//! Generation-stamped incremental k-nearest index over an id-keyed point
//! set.
//!
//! The Send-Data phase (Algorithm 4) prunes Q-routing candidates to the
//! `c` cluster heads nearest each member. The head roster changes every
//! round, so a naive implementation rebuilds a [`KdTree`] per round —
//! `O(k log k)` even when the diff against the previous roster is small.
//! [`IncrementalKdIndex`] instead keeps the last-built tree and absorbs
//! roster *diffs*: departed points are tombstoned inside the tree,
//! arrivals go to a brute-force side list, and a full rebuild happens only
//! when the accumulated slack (tombstones + side-list entries) exceeds a
//! configurable fraction of the tree — the same churn-threshold policy as
//! [`crate::UniformGrid`].
//!
//! Queries return exactly the first `k` live points **in `(distance²,
//! id)` order**, ties included, which makes results independent of tree
//! shape: a freshly rebuilt index and an incrementally maintained one
//! answer identically for the same live point set. The tree lays its
//! points out in ascending id order, so its own `(distance², point
//! index)` order is the `(distance², id)` order, and the tombstone
//! over-fetch window is an exact prefix of the brute-force ranking. That
//! property is what lets the protocol's rebuild-per-round and incremental
//! modes produce byte-equal event streams.

use crate::kdtree::{knn_order, KdTree};
use crate::vec3::Vec3;
use std::collections::HashMap;

/// Default slack fraction that triggers a full rebuild on `sync`.
const DEFAULT_REBUILD_THRESHOLD: f64 = 0.25;

/// Where an id currently lives inside the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Index into the tree's point order.
    Tree(u32),
    /// Index into the `extras` side list.
    Extra(u32),
}

/// An incrementally maintained k-nearest index over `(id, position)`
/// pairs. See the module docs for the maintenance strategy.
///
/// ```
/// use qlec_geom::{IncrementalKdIndex, Vec3};
/// let mut idx = IncrementalKdIndex::new();
/// idx.rebuild_from(&[(7, Vec3::ZERO), (3, Vec3::splat(10.0))]);
/// // Roster changed: 7 left, 12 arrived — sync absorbs the diff.
/// idx.sync(&[(3, Vec3::splat(10.0)), (12, Vec3::ONE)]);
/// let mut scratch = Vec::new();
/// let mut out = Vec::new();
/// idx.k_nearest_into(Vec3::ZERO, 2, &mut scratch, &mut out);
/// assert_eq!(out.iter().map(|e| e.0).collect::<Vec<_>>(), vec![12, 3]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct IncrementalKdIndex {
    tree: KdTree,
    /// Tree point order → caller id.
    ids: Vec<u32>,
    /// Tombstoned tree slots (departed since the last rebuild).
    tombstone: Vec<bool>,
    /// Count of set bits in `tombstone`.
    dead: usize,
    /// Points tracked outside the tree (arrived since the last rebuild).
    extras: Vec<(u32, Vec3)>,
    /// id → current slot, for every live tracked id.
    slot: HashMap<u32, Slot>,
    /// Slack fraction of the tree size above which `sync` rebuilds.
    rebuild_threshold: f64,
    generation: u64,
    rebuilds: u64,
}

impl IncrementalKdIndex {
    /// An empty index; populate with [`rebuild_from`](Self::rebuild_from)
    /// or [`sync`](Self::sync).
    pub fn new() -> Self {
        IncrementalKdIndex {
            rebuild_threshold: DEFAULT_REBUILD_THRESHOLD,
            ..Default::default()
        }
    }

    /// Number of live tracked points.
    pub fn len(&self) -> usize {
        self.tree.len() - self.dead + self.extras.len()
    }

    /// Whether no live points are tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Monotone counter bumped by every content change (`rebuild_from`,
    /// and `sync` when the roster actually differs).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Full tree rebuilds performed, by either entry point.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Set the slack fraction (tombstones + side-list entries, relative to
    /// tree size) above which `sync` falls back to a full rebuild. Must be
    /// positive; default 0.25.
    pub fn set_rebuild_threshold(&mut self, t: f64) {
        assert!(t > 0.0, "rebuild threshold must be positive");
        self.rebuild_threshold = t;
    }

    /// Whether `id` is currently tracked (live).
    pub fn contains(&self, id: u32) -> bool {
        self.slot.contains_key(&id)
    }

    /// Discard all incremental state and rebuild the tree from `items`,
    /// laid out in ascending id order. Ids must be unique.
    pub fn rebuild_from(&mut self, items: &[(u32, Vec3)]) {
        let mut by_id = items.to_vec();
        by_id.sort_unstable_by_key(|&(id, _)| id);
        self.tree = KdTree::build(by_id.iter().map(|&(_, p)| p).collect());
        self.ids.clear();
        self.ids.extend(by_id.iter().map(|&(id, _)| id));
        self.tombstone.clear();
        self.tombstone.resize(items.len(), false);
        self.dead = 0;
        self.extras.clear();
        self.slot.clear();
        for (ti, &id) in self.ids.iter().enumerate() {
            let prev = self.slot.insert(id, Slot::Tree(ti as u32));
            assert!(prev.is_none(), "duplicate id {id} in rebuild_from");
        }
        self.rebuilds += 1;
        self.generation += 1;
    }

    /// Bring the index in line with `items` (the complete new roster) by
    /// absorbing the diff against the currently tracked set: departures
    /// tombstone or drop, arrivals join the side list, and a position
    /// change counts as departure + arrival. Falls back to
    /// [`rebuild_from`](Self::rebuild_from) when the accumulated slack
    /// exceeds the rebuild threshold. Ids must be unique.
    pub fn sync(&mut self, items: &[(u32, Vec3)]) {
        let mut changed = false;

        // Departures and moves: anything tracked that the new roster
        // doesn't hold at the same position.
        let new_pos: HashMap<u32, Vec3> = items.iter().copied().collect();
        assert_eq!(new_pos.len(), items.len(), "duplicate id in sync roster");
        let departed: Vec<u32> = self
            .slot
            .keys()
            .copied()
            .filter(|id| new_pos.get(id).is_none_or(|&p| p != self.position_of(*id)))
            .collect();
        for id in departed {
            match self.slot.remove(&id).expect("departed id was tracked") {
                Slot::Tree(ti) => {
                    self.tombstone[ti as usize] = true;
                    self.dead += 1;
                }
                Slot::Extra(xi) => {
                    self.extras.swap_remove(xi as usize);
                    if let Some(&(moved_id, _)) = self.extras.get(xi as usize) {
                        self.slot.insert(moved_id, Slot::Extra(xi));
                    }
                }
            }
            changed = true;
        }

        // Arrivals: roster entries not (or no longer) tracked.
        for &(id, p) in items {
            if !self.slot.contains_key(&id) {
                self.slot.insert(id, Slot::Extra(self.extras.len() as u32));
                self.extras.push((id, p));
                changed = true;
            }
        }

        if changed {
            self.generation += 1;
        }
        let slack = self.dead + self.extras.len();
        let budget = (self.rebuild_threshold * self.tree.len().max(1) as f64).ceil() as usize;
        if slack > budget {
            self.rebuild_from(items);
        }
    }

    fn position_of(&self, id: u32) -> Vec3 {
        match self.slot[&id] {
            Slot::Tree(ti) => self.tree.points()[ti as usize],
            Slot::Extra(xi) => self.extras[xi as usize].1,
        }
    }

    /// The `k` live points nearest `q`, written to `out` as `(id, squared
    /// distance)` sorted ascending by `(squared distance, id)` — the same
    /// distance convention as [`KdTree::k_nearest`]. `out` is cleared
    /// first; `scratch` is caller-owned so `&self` queries can run from
    /// parallel planners without interior mutation.
    pub fn k_nearest_into(
        &self,
        q: Vec3,
        k: usize,
        scratch: &mut Vec<(u32, f64)>,
        out: &mut Vec<(u32, f64)>,
    ) {
        out.clear();
        if k == 0 {
            return;
        }
        if !self.tree.is_empty() {
            // Over-fetch by the tombstone count: of the (k + dead) nearest
            // tree points at most `dead` are tombstoned, so at least k
            // live ones survive the filter (or the tree is exhausted).
            // Tree indices ascend with ids, so the window is the exact
            // `(distance², id)` prefix of the tree's points.
            let window = (k + self.dead).min(self.tree.len());
            self.tree.k_nearest_into(q, window, scratch);
            out.extend(
                scratch
                    .iter()
                    .filter(|&&(ti, _)| !self.tombstone[ti as usize])
                    .map(|&(ti, d)| (self.ids[ti as usize], d)),
            );
        }
        if !self.extras.is_empty() {
            out.extend(self.extras.iter().map(|&(id, p)| (id, p.dist_sq(q))));
            out.sort_unstable_by(knn_order);
        }
        out.truncate(k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aabb::Aabb;
    use crate::sample::uniform_points_in_aabb;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn brute_knn(items: &[(u32, Vec3)], q: Vec3, k: usize) -> Vec<(u32, f64)> {
        let mut v: Vec<(u32, f64)> = items.iter().map(|&(id, p)| (id, p.dist_sq(q))).collect();
        v.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    fn query(idx: &IncrementalKdIndex, q: Vec3, k: usize) -> Vec<(u32, f64)> {
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        idx.k_nearest_into(q, k, &mut scratch, &mut out);
        out
    }

    #[test]
    fn empty_index_answers_nothing() {
        let idx = IncrementalKdIndex::new();
        assert!(idx.is_empty());
        assert!(query(&idx, Vec3::ZERO, 5).is_empty());
    }

    #[test]
    fn rebuild_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(41);
        let b = Aabb::cube(100.0);
        let items: Vec<(u32, Vec3)> = uniform_points_in_aabb(&mut rng, &b, 200)
            .into_iter()
            .enumerate()
            .map(|(i, p)| (i as u32 * 3 + 1, p)) // non-contiguous ids
            .collect();
        let mut idx = IncrementalKdIndex::new();
        idx.rebuild_from(&items);
        assert_eq!(idx.len(), items.len());
        for q in uniform_points_in_aabb(&mut rng, &b, 30) {
            for &k in &[1usize, 4, 17, 250] {
                assert_eq!(query(&idx, q, k), brute_knn(&items, q, k));
            }
        }
    }

    #[test]
    fn sync_absorbs_roster_churn() {
        let mut rng = StdRng::seed_from_u64(43);
        let b = Aabb::cube(100.0);
        let mut roster: Vec<(u32, Vec3)> = uniform_points_in_aabb(&mut rng, &b, 150)
            .into_iter()
            .enumerate()
            .map(|(i, p)| (i as u32, p))
            .collect();
        let mut idx = IncrementalKdIndex::new();
        idx.set_rebuild_threshold(0.9); // keep the incremental path exercised
        idx.sync(&roster); // sync on empty == rebuild path via slack
        let mut next_id = roster.len() as u32;
        for round in 0..20 {
            // Drop a few, add a few, move one.
            for _ in 0..3 {
                let i = rng.gen_range(0..roster.len());
                roster.swap_remove(i);
            }
            for p in uniform_points_in_aabb(&mut rng, &b, 3) {
                roster.push((next_id, p));
                next_id += 1;
            }
            let i = rng.gen_range(0..roster.len());
            roster[i].1 = uniform_points_in_aabb(&mut rng, &b, 1)[0];
            idx.sync(&roster);
            assert_eq!(idx.len(), roster.len(), "round {round}");
            for q in uniform_points_in_aabb(&mut rng, &b, 10) {
                for &k in &[1usize, 5, 20] {
                    assert_eq!(
                        query(&idx, q, k),
                        brute_knn(&roster, q, k),
                        "round {round} k {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn low_threshold_forces_rebuilds() {
        let mut rng = StdRng::seed_from_u64(47);
        let b = Aabb::cube(80.0);
        let items: Vec<(u32, Vec3)> = uniform_points_in_aabb(&mut rng, &b, 100)
            .into_iter()
            .enumerate()
            .map(|(i, p)| (i as u32, p))
            .collect();
        let mut idx = IncrementalKdIndex::new();
        idx.set_rebuild_threshold(0.05);
        idx.rebuild_from(&items);
        let before = idx.rebuilds();
        // Remove 20% of the roster: far above the 5% slack budget.
        let reduced: Vec<(u32, Vec3)> = items.iter().copied().skip(20).collect();
        idx.sync(&reduced);
        assert!(idx.rebuilds() > before);
        for q in uniform_points_in_aabb(&mut rng, &b, 10) {
            assert_eq!(query(&idx, q, 7), brute_knn(&reduced, q, 7));
        }
    }

    #[test]
    fn noop_sync_does_not_bump_generation() {
        let items = vec![(1, Vec3::ZERO), (2, Vec3::ONE)];
        let mut idx = IncrementalKdIndex::new();
        idx.rebuild_from(&items);
        let g = idx.generation();
        idx.sync(&items);
        assert_eq!(idx.generation(), g);
        idx.sync(&[(1, Vec3::ZERO)]);
        assert_eq!(idx.generation(), g + 1);
        assert!(!idx.contains(2));
        assert!(idx.contains(1));
    }
}
