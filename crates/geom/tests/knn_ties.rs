//! k-nearest queries on inputs full of exact distance ties.
//!
//! Points on a small integer lattice, many of them duplicated, queried
//! from lattice and half-lattice positions: most squared distances are
//! shared by several points, so a result is only right when the tie
//! break is. `KdTree` answers in `(d², point index)` order and
//! `IncrementalKdIndex` in `(d², id)` order; both must equal the
//! brute-force prefix exactly, at every `k`, whatever the tree shape,
//! the id order or the tombstones and side-list entries that roster
//! churn leaves behind.

use qlec_geom::{IncrementalKdIndex, KdTree, Vec3};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const KS: [usize; 3] = [1, 5, 29];

fn lattice_point(rng: &mut StdRng, side: i32) -> Vec3 {
    Vec3::new(
        rng.gen_range(0..side) as f64,
        rng.gen_range(0..side) as f64,
        rng.gen_range(0..side) as f64,
    )
}

/// `n` lattice points in a `side³` cube; every fourth one repeats an
/// earlier point exactly.
fn lattice_points(rng: &mut StdRng, n: usize, side: i32) -> Vec<Vec3> {
    let mut pts: Vec<Vec3> = Vec::with_capacity(n);
    for i in 0..n {
        let p = if i % 4 == 3 {
            pts[rng.gen_range(0..i)]
        } else {
            lattice_point(rng, side)
        };
        pts.push(p);
    }
    pts
}

/// A lattice or half-lattice query point (halves sit equidistant from
/// neighbouring lattice planes).
fn query_point(rng: &mut StdRng, side: i32) -> Vec3 {
    let p = lattice_point(rng, side);
    if rng.gen_range(0..2) == 0 {
        p
    } else {
        p + Vec3::splat(0.5)
    }
}

/// `n` distinct ids in shuffled, non-monotone order.
fn shuffled_ids(rng: &mut StdRng, n: usize) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..n as u32).map(|i| i * 7 + 3).collect();
    for i in (1..ids.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        ids.swap(i, j);
    }
    ids
}

fn brute_knn(items: &[(u32, Vec3)], q: Vec3, k: usize) -> Vec<(u32, f64)> {
    let mut v: Vec<(u32, f64)> = items.iter().map(|&(id, p)| (id, p.dist_sq(q))).collect();
    v.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    v.truncate(k);
    v
}

fn index_knn(idx: &IncrementalKdIndex, q: Vec3, k: usize) -> Vec<(u32, f64)> {
    let mut scratch = Vec::new();
    let mut out = Vec::new();
    idx.k_nearest_into(q, k, &mut scratch, &mut out);
    out
}

#[test]
fn kdtree_k_nearest_is_the_brute_force_d2_index_prefix() {
    let mut rng = StdRng::seed_from_u64(61);
    for &(n, side) in &[(40usize, 3i32), (300, 5), (1000, 7)] {
        let pts = lattice_points(&mut rng, n, side);
        let tree = KdTree::build(pts.clone());
        let items: Vec<(u32, Vec3)> = pts
            .iter()
            .enumerate()
            .map(|(i, &p)| (i as u32, p))
            .collect();
        let mut buf = Vec::new();
        for _ in 0..200 {
            let q = query_point(&mut rng, side);
            for k in KS {
                let want = brute_knn(&items, q, k);
                assert_eq!(tree.k_nearest(q, k), want, "n {n} q {q:?} k {k}");
                tree.k_nearest_into(q, k, &mut buf);
                assert_eq!(buf, want, "into: n {n} q {q:?} k {k}");
            }
        }
    }
}

#[test]
fn rebuilt_index_is_the_brute_force_d2_id_prefix() {
    let mut rng = StdRng::seed_from_u64(67);
    for &(n, side) in &[(40usize, 3i32), (300, 5), (1000, 7)] {
        let pts = lattice_points(&mut rng, n, side);
        let items: Vec<(u32, Vec3)> = shuffled_ids(&mut rng, n).into_iter().zip(pts).collect();
        let mut idx = IncrementalKdIndex::new();
        idx.rebuild_from(&items);
        for _ in 0..200 {
            let q = query_point(&mut rng, side);
            for k in KS {
                assert_eq!(
                    index_knn(&idx, q, k),
                    brute_knn(&items, q, k),
                    "n {n} q {q:?} k {k}"
                );
            }
        }
    }
}

#[test]
fn synced_index_with_tombstones_and_extras_is_the_brute_force_prefix() {
    let mut rng = StdRng::seed_from_u64(71);
    let side = 5;
    let pts = lattice_points(&mut rng, 400, side);
    let mut roster: Vec<(u32, Vec3)> = shuffled_ids(&mut rng, pts.len())
        .into_iter()
        .zip(pts)
        .collect();
    // Arrivals take ids 7i + 1 (interleaved with the tree's 7i + 3) and
    // ids above every tree id, alternately.
    let (mut low_id, mut high_id) = (1u32, 100_000u32);
    let mut idx = IncrementalKdIndex::new();
    // A threshold this high never rebuilds on slack, so the churn below
    // piles up tombstones and side-list entries for every query.
    idx.set_rebuild_threshold(100.0);
    idx.rebuild_from(&roster);
    let rebuilds = idx.rebuilds();
    for round in 0..25 {
        // Drop a few heads (only that in round 0, so tombstones are
        // queried without a side list), add a few on (often shared)
        // lattice points under ids that fall both below and above the
        // tree's, and move one onto a neighbour's position.
        for _ in 0..6 {
            let i = rng.gen_range(0..roster.len());
            roster.swap_remove(i);
        }
        let arrivals = if round == 0 { 0 } else { 6 };
        for j in 0..arrivals {
            let id = if j % 2 == 0 {
                high_id += 1;
                high_id
            } else {
                low_id += 7;
                low_id
            };
            roster.push((id, lattice_point(&mut rng, side)));
        }
        if round > 0 {
            let (a, b) = (
                rng.gen_range(0..roster.len()),
                rng.gen_range(0..roster.len()),
            );
            roster[a].1 = roster[b].1;
        }
        idx.sync(&roster);
        assert_eq!(idx.len(), roster.len(), "round {round}");
        for _ in 0..40 {
            let q = query_point(&mut rng, side);
            for k in KS {
                assert_eq!(
                    index_knn(&idx, q, k),
                    brute_knn(&roster, q, k),
                    "round {round} q {q:?} k {k}"
                );
            }
        }
    }
    assert_eq!(idx.rebuilds(), rebuilds, "churn must stay incremental");
}
