//! A static k-d tree over 3-D points.
//!
//! Used where the query pattern is dominated by nearest-neighbour lookups —
//! assigning 2 896 power-plant nodes to their closest of 272 cluster heads
//! each round (§5.3), and the k-means / FCM baselines' assignment steps.
//! Complements [`crate::grid::UniformGrid`], which is better for
//! fixed-radius queries.
//!
//! The tree is built once (median splits, `O(n log n)`) and is immutable.

use crate::vec3::Vec3;
use std::cmp::Ordering;

#[derive(Debug, Clone)]
struct Node {
    /// Index into `points`.
    point: u32,
    /// Split axis (0, 1, 2).
    axis: u8,
    left: i32,
    right: i32,
}

const NIL: i32 = -1;

/// Immutable k-d tree for nearest-neighbour and k-nearest queries.
#[derive(Debug, Clone)]
pub struct KdTree {
    nodes: Vec<Node>,
    points: Vec<Vec3>,
    root: i32,
}

impl Default for KdTree {
    /// An empty tree (same as `KdTree::build(Vec::new())`).
    fn default() -> Self {
        KdTree::build(Vec::new())
    }
}

impl KdTree {
    /// Build a balanced tree over `points` (median splitting on the widest
    /// axis of each partition).
    pub fn build(points: Vec<Vec3>) -> Self {
        let n = points.len();
        let mut idx: Vec<u32> = (0..n as u32).collect();
        let mut nodes = Vec::with_capacity(n);
        let root = Self::build_rec(&points, &mut idx[..], &mut nodes);
        KdTree {
            nodes,
            points,
            root,
        }
    }

    fn build_rec(points: &[Vec3], idx: &mut [u32], nodes: &mut Vec<Node>) -> i32 {
        if idx.is_empty() {
            return NIL;
        }
        // Pick the widest axis of this partition for better balance on
        // anisotropic data (the power-plant deployment is much wider in
        // longitude/latitude than in height).
        let mut lo = Vec3::splat(f64::INFINITY);
        let mut hi = Vec3::splat(f64::NEG_INFINITY);
        for &i in idx.iter() {
            lo = lo.min(points[i as usize]);
            hi = hi.max(points[i as usize]);
        }
        let ext = hi - lo;
        let axis = if ext.x >= ext.y && ext.x >= ext.z {
            0
        } else if ext.y >= ext.z {
            1
        } else {
            2
        };
        let mid = idx.len() / 2;
        idx.select_nth_unstable_by(mid, |&a, &b| {
            points[a as usize][axis].total_cmp(&points[b as usize][axis])
        });
        let point = idx[mid];
        let node_pos = nodes.len() as i32;
        nodes.push(Node {
            point,
            axis: axis as u8,
            left: NIL,
            right: NIL,
        });
        let (left_idx, rest) = idx.split_at_mut(mid);
        let right_idx = &mut rest[1..];
        let left = Self::build_rec(points, left_idx, nodes);
        let right = Self::build_rec(points, right_idx, nodes);
        nodes[node_pos as usize].left = left;
        nodes[node_pos as usize].right = right;
        node_pos
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The indexed points, in the order indices refer to.
    pub fn points(&self) -> &[Vec3] {
        &self.points
    }

    /// Index of the nearest point to `q` and its squared distance.
    pub fn nearest(&self, q: Vec3) -> Option<(u32, f64)> {
        if self.root == NIL {
            return None;
        }
        let mut best = (u32::MAX, f64::INFINITY);
        self.nearest_rec(self.root, q, &mut best);
        Some(best)
    }

    fn nearest_rec(&self, ni: i32, q: Vec3, best: &mut (u32, f64)) {
        let node = &self.nodes[ni as usize];
        let p = self.points[node.point as usize];
        let d = p.dist_sq(q);
        if d < best.1 {
            *best = (node.point, d);
        }
        let axis = node.axis as usize;
        let delta = q[axis] - p[axis];
        let (near, far) = if delta < 0.0 {
            (node.left, node.right)
        } else {
            (node.right, node.left)
        };
        if near != NIL {
            self.nearest_rec(near, q, best);
        }
        // Only descend the far side if the splitting plane is closer than
        // the current best — the classic branch-and-bound prune.
        if far != NIL && delta * delta < best.1 {
            self.nearest_rec(far, q, best);
        }
    }

    /// Indices of the `k` nearest points to `q` with their squared
    /// distances, sorted ascending by `(squared distance, point index)`:
    /// exactly the first `k` of all points in that order, so equal
    /// distances break by index whatever the tree shape. Returns fewer
    /// when the tree holds fewer points.
    pub fn k_nearest(&self, q: Vec3, k: usize) -> Vec<(u32, f64)> {
        let mut out = Vec::new();
        self.k_nearest_into(q, k, &mut out);
        out
    }

    /// [`KdTree::k_nearest`] into a caller-provided buffer (cleared
    /// first), in the same `(squared distance, point index)` order — the
    /// allocation-free variant for per-packet queries.
    pub fn k_nearest_into(&self, q: Vec3, k: usize, out: &mut Vec<(u32, f64)>) {
        out.clear();
        if self.root == NIL || k == 0 {
            return;
        }
        out.reserve(k);
        self.knn_rec(self.root, q, k, out);
        out.sort_unstable_by(knn_order);
    }

    /// Branch-and-bound k-nearest walk. `heap` holds the best `k` seen so
    /// far as a binary max-heap under [`knn_order`], so `heap[0]` is the
    /// one to evict.
    fn knn_rec(&self, ni: i32, q: Vec3, k: usize, heap: &mut Vec<(u32, f64)>) {
        let node = &self.nodes[ni as usize];
        let p = self.points[node.point as usize];
        let hit = (node.point, p.dist_sq(q));
        if heap.len() < k {
            let last = heap.len();
            heap.push(hit);
            sift_up(heap, last);
        } else if knn_order(&hit, &heap[0]).is_lt() {
            heap[0] = hit;
            sift_down(heap, 0);
        }
        let axis = node.axis as usize;
        let delta = q[axis] - p[axis];
        let (near, far) = if delta < 0.0 {
            (node.left, node.right)
        } else {
            (node.right, node.left)
        };
        if near != NIL {
            self.knn_rec(near, q, k, heap);
        }
        // `<=`, not `<`: a far-side point exactly as far as the current
        // worst still wins the tie when its index is smaller.
        if far != NIL && (heap.len() < k || delta * delta <= heap[0].1) {
            self.knn_rec(far, q, k, heap);
        }
    }
}

/// The k-nearest result order: squared distance, then point index (or
/// id, for callers that map indices to ids monotonically).
pub(crate) fn knn_order(a: &(u32, f64), b: &(u32, f64)) -> Ordering {
    a.1.total_cmp(&b.1).then(a.0.cmp(&b.0))
}

/// Restore the max-heap property upwards from `i`.
fn sift_up(heap: &mut [(u32, f64)], mut i: usize) {
    while i > 0 {
        let parent = (i - 1) / 2;
        if knn_order(&heap[i], &heap[parent]).is_le() {
            break;
        }
        heap.swap(i, parent);
        i = parent;
    }
}

/// Restore the max-heap property downwards from `i`.
fn sift_down(heap: &mut [(u32, f64)], mut i: usize) {
    loop {
        let left = 2 * i + 1;
        if left >= heap.len() {
            break;
        }
        let right = left + 1;
        let child = if right < heap.len() && knn_order(&heap[right], &heap[left]).is_gt() {
            right
        } else {
            left
        };
        if knn_order(&heap[child], &heap[i]).is_le() {
            break;
        }
        heap.swap(i, child);
        i = child;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aabb::Aabb;
    use crate::sample::uniform_points_in_aabb;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn empty_tree() {
        let t = KdTree::build(Vec::new());
        assert!(t.is_empty());
        assert!(t.nearest(Vec3::ZERO).is_none());
        assert!(t.k_nearest(Vec3::ZERO, 3).is_empty());
    }

    #[test]
    fn single_point() {
        let t = KdTree::build(vec![Vec3::splat(1.0)]);
        let (i, d) = t.nearest(Vec3::ZERO).unwrap();
        assert_eq!(i, 0);
        assert!((d - 3.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(3);
        let b = Aabb::cube(200.0);
        let pts = uniform_points_in_aabb(&mut rng, &b, 1_000);
        let t = KdTree::build(pts.clone());
        for q in uniform_points_in_aabb(&mut rng, &b, 200) {
            let (gi, gd) = t.nearest(q).unwrap();
            let bd = pts
                .iter()
                .map(|p| p.dist_sq(q))
                .fold(f64::INFINITY, f64::min);
            assert!((gd - bd).abs() < 1e-9, "query {q:?}");
            assert!((pts[gi as usize].dist_sq(q) - bd).abs() < 1e-9);
        }
    }

    #[test]
    fn k_nearest_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(5);
        let b = Aabb::cube(50.0);
        let pts = uniform_points_in_aabb(&mut rng, &b, 300);
        let t = KdTree::build(pts.clone());
        for q in uniform_points_in_aabb(&mut rng, &b, 30) {
            for &k in &[1usize, 5, 17] {
                let got = t.k_nearest(q, k);
                assert_eq!(got.len(), k.min(pts.len()));
                let mut dists: Vec<f64> = pts.iter().map(|p| p.dist_sq(q)).collect();
                dists.sort_by(|a, b| a.total_cmp(b));
                for (j, (_, d)) in got.iter().enumerate() {
                    assert!((d - dists[j]).abs() < 1e-9, "k={k} j={j}");
                }
                // Results are sorted ascending.
                for w in got.windows(2) {
                    assert!(w[0].1 <= w[1].1);
                }
            }
        }
    }

    #[test]
    fn k_nearest_into_matches_allocating_variant() {
        let mut rng = StdRng::seed_from_u64(7);
        let b = Aabb::cube(50.0);
        let pts = uniform_points_in_aabb(&mut rng, &b, 200);
        let t = KdTree::build(pts);
        let mut buf = Vec::new();
        for q in uniform_points_in_aabb(&mut rng, &b, 20) {
            t.k_nearest_into(q, 5, &mut buf);
            assert_eq!(buf, t.k_nearest(q, 5), "stale buffer state leaked");
        }
    }

    #[test]
    fn k_larger_than_n() {
        let pts = vec![Vec3::ZERO, Vec3::ONE, Vec3::splat(2.0)];
        let t = KdTree::build(pts);
        let got = t.k_nearest(Vec3::ZERO, 10);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].0, 0);
    }

    #[test]
    fn anisotropic_data() {
        // Points spread only along x — widest-axis splitting must keep the
        // tree balanced enough to answer correctly.
        let pts: Vec<Vec3> = (0..1000).map(|i| Vec3::new(i as f64, 0.0, 0.0)).collect();
        let t = KdTree::build(pts);
        let (i, _) = t.nearest(Vec3::new(512.3, 0.0, 0.0)).unwrap();
        assert_eq!(i, 512);
    }

    #[test]
    fn duplicates_are_handled() {
        let pts = vec![Vec3::ONE; 32];
        let t = KdTree::build(pts);
        let got = t.k_nearest(Vec3::ONE, 5);
        assert_eq!(got.len(), 5);
        assert!(got.iter().all(|&(_, d)| d == 0.0));
    }
}
