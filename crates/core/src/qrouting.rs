//! The Data Transmission Phase — Algorithm 4 (`Send-Data`) and the reward
//! functions of Eq. 16–20.
//!
//! Per §4.2, each non-head node `b_i` maintains a state space
//! `S(b_i) = {b_i, h_BS} ∪ H` and, on every packet, *computes* the Q-value
//! of forwarding to each current head (and the BS) from its model —
//! ACK-estimated link probabilities and the reward functions — instead of
//! sampling real transitions:
//!
//! ```text
//! Q*(b_i, a_j) = R_t + γ·(P^{a_j}_{b_i h_j}·V*(h_j) + P^{a_j}_{b_i b_i}·V*(b_i))
//! R_t          = P·R^{a_j}_{b_i h_j} + (1−P)·R^{a_j}_{b_i b_i}                (Eq. 16)
//! R^{a_j}_{b_i h_j} = −g + α₁[x(b_i)+x(h_j)] − α₂·y(b_i,h_j)                  (Eq. 17)
//! R^{a_BS}_{b_i h_BS} = … − l                                                  (Eq. 19)
//! R^{a_j}_{b_i b_i} = −g + β₁·x(b_i) − β₂·y(b_i,h_j)                          (Eq. 20)
//! ```
//!
//! then updates `V*(b_i) = max_j Q*(b_i, a_j)` and forwards to the argmax
//! head. Cluster heads run the same update for their own BS hop at the
//! round end (Algorithm 1 line 15) — without the `l` penalty, since
//! relaying to the BS is a head's job, not the behaviour Eq. 19 punishes.
//!
//! Scaling conventions (see [`crate::params::QlecParams`]): `x(·)` is the
//! residual *fraction* and `y(·,·)` is the Eq. 18 transmission energy
//! normalized by the cost at a reference distance, so the Table 2 weights
//! are meaningful on any deployment.

use crate::fxhash::FxHashMap;
use crate::params::QlecParams;
use qlec_mdp::{ConvergenceTracker, UpdateCounter};
use qlec_net::{Network, NodeId, Target};

/// Key for the link-probability table: `(source, destination)` with
/// `u32::MAX` standing in for the base station.
type LinkKey = (u32, u32);

const BS_KEY: u32 = u32::MAX;

fn key_of(src: NodeId, target: Target) -> LinkKey {
    match target {
        Target::Bs => (src.0, BS_KEY),
        Target::Head(h) => (src.0, h.0),
    }
}

/// ACK-ratio link-probability estimator (§4.2, following \[2\]): an EWMA
/// of transmission outcomes per directed link, with an optimistic prior.
#[derive(Debug, Clone)]
pub struct LinkEstimator {
    weight: f64,
    prior: f64,
    table: FxHashMap<LinkKey, f64>,
}

impl LinkEstimator {
    /// Create with the given EWMA weight and prior.
    pub fn new(weight: f64, prior: f64) -> Self {
        assert!((0.0..=1.0).contains(&weight) && weight > 0.0);
        assert!((0.0..=1.0).contains(&prior));
        LinkEstimator {
            weight,
            prior,
            table: FxHashMap::default(),
        }
    }

    /// Current estimate `P̂` for a link.
    pub fn probability(&self, src: NodeId, target: Target) -> f64 {
        *self.table.get(&key_of(src, target)).unwrap_or(&self.prior)
    }

    /// Fold in one ACK (or its absence).
    pub fn record(&mut self, src: NodeId, target: Target, success: bool) {
        let entry = self.table.entry(key_of(src, target)).or_insert(self.prior);
        let obs = if success { 1.0 } else { 0.0 };
        *entry += self.weight * (obs - *entry);
    }

    /// The estimate that [`LinkEstimator::record`] would leave behind,
    /// given the current estimate — the pure EWMA step, exposed so
    /// plan-time code can maintain a private overlay of pending updates
    /// without mutating the shared table.
    pub fn updated(&self, current: f64, success: bool) -> f64 {
        let obs = if success { 1.0 } else { 0.0 };
        current + self.weight * (obs - current)
    }

    /// Number of links with recorded evidence.
    pub fn links_tracked(&self) -> usize {
        self.table.len()
    }

    /// Drop every link with a dead endpoint. Dead nodes never transmit
    /// again and never come back, so their entries are pure leak: over a
    /// lifespan run the table would otherwise keep one entry per directed
    /// link ever exercised, long after both ends stopped existing. BS
    /// links survive as long as their source does (the BS is
    /// mains-powered).
    pub fn prune_dead(&mut self, net: &Network) {
        self.table.retain(|&(src, dst), _| {
            net.node(NodeId(src)).is_alive() && (dst == BS_KEY || net.node(NodeId(dst)).is_alive())
        });
    }
}

/// Sweep-invariant constants of one `Send-Data` action, hoisted by
/// [`QRouter::send_data_core_cached`]: the (NACK-halved) link belief, the
/// Eq. 16 expected reward, and the target's `V*` — everything in the
/// Q-value except the failure self-loop term that the fixed point
/// iterates on.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ActionConst {
    target: Target,
    p_ok: f64,
    r_t: f64,
    v_target: f64,
}

/// The per-network Q-routing state: one V value per node plus the BS.
#[derive(Debug, Clone)]
pub struct QRouter {
    params: QlecParams,
    /// `V*(b_i)` for every node; the BS is pinned at 0 (terminal — its
    /// value never updates, matching the terminal-state convention of
    /// `qlec-mdp`).
    v: Vec<f64>,
    links: LinkEstimator,
    /// Reference transmission cost used to normalize Eq. 18 (cost at the
    /// deployment side length).
    y_ref: f64,
    /// Counts elementary Q computations — the paper's `X` (Lemma 3).
    pub updates: UpdateCounter,
    /// Tracks V-value deltas for convergence measurement.
    pub convergence: ConvergenceTracker,
    /// Signed V change of the most recent update (observability).
    last_delta: f64,
    /// Reused action buffer of [`QRouter::send_data_excluding`], so
    /// per-packet calls allocate nothing in steady state.
    action_buf: Vec<ActionConst>,
}

impl QRouter {
    /// Initialize for a network: "all the V values and Q values are
    /// initialized to 0" (§4.2).
    pub fn new(net: &Network, params: QlecParams) -> Self {
        params.validate().expect("invalid QlecParams");
        let m = net.side_length().max(1e-9);
        // Eq. 18 cost at the reference distance; per-bit (bit count
        // cancels in the normalized ratio, so use 1 bit). Eq. 18 is the
        // *amplifier* energy only (`L·ε_fs·d²` / `L·ε_mp·d⁴` — no
        // electronics term).
        let y_ref = net.radio.amp_energy(1, m);
        QRouter {
            params,
            v: vec![0.0; net.len()],
            links: LinkEstimator::new(params.link_ewma_weight, params.link_prior),
            y_ref,
            updates: UpdateCounter::new(),
            convergence: ConvergenceTracker::new(1e-4),
            last_delta: 0.0,
            action_buf: Vec::new(),
        }
    }

    /// Signed `V` change of the most recent [`QRouter::send_data`] or
    /// [`QRouter::head_update`] call (0 before any update).
    pub fn last_delta(&self) -> f64 {
        self.last_delta
    }

    /// Current `V*` of a node.
    pub fn v_of(&self, id: NodeId) -> f64 {
        self.v[id.index()]
    }

    /// Link estimator (read access for diagnostics).
    pub fn links(&self) -> &LinkEstimator {
        &self.links
    }

    /// Normalized residual fraction `x(b_i)`.
    fn x(&self, net: &Network, id: NodeId) -> f64 {
        let b = &net.node(id).battery;
        if b.initial() > 0.0 {
            b.residual() / b.initial()
        } else {
            0.0
        }
    }

    /// Normalized Eq. 18 transmission cost `y(b_i, target)` (amplifier
    /// energy, Eq. 18 verbatim).
    fn y(&self, net: &Network, src: NodeId, target: Target) -> f64 {
        let d = match target {
            Target::Bs => net.dist_to_bs(src),
            Target::Head(h) => net.distance(src, h),
        };
        net.radio.amp_energy(1, d) / self.y_ref
    }

    /// Eq. 17 / Eq. 19: reward for a *successful* hop from `src` to
    /// `target`. `penalize_bs` applies the `l` penalty of Eq. 19 (true
    /// for members, false for heads doing their aggregate duty).
    fn reward_success(&self, net: &Network, src: NodeId, target: Target, penalize_bs: bool) -> f64 {
        let p = &self.params;
        let x_target = match target {
            Target::Bs => p.x_bs,
            Target::Head(h) => self.x(net, h),
        };
        let mut r =
            -p.g + p.alpha1 * (self.x(net, src) + x_target) - p.alpha2 * self.y(net, src, target);
        if penalize_bs && target == Target::Bs {
            r -= p.l;
        }
        r
    }

    /// Eq. 20: reward for a failed hop (stay in state `b_i`).
    fn reward_failure(&self, net: &Network, src: NodeId, target: Target) -> f64 {
        let p = &self.params;
        -p.g + p.beta1 * self.x(net, src) - p.beta2 * self.y(net, src, target)
    }

    /// One Algorithm 4 Q-value: Eq. 16 expected reward plus the discounted
    /// two-outcome continuation (Eq. 15 specialised to
    /// `{delivered → target, lost → self}`).
    pub fn q_value(&self, net: &Network, src: NodeId, target: Target, penalize_bs: bool) -> f64 {
        let p_ok = self.links.probability(src, target);
        self.q_value_with_p_v(net, src, target, penalize_bs, p_ok, self.v[src.index()])
    }

    /// [`QRouter::q_value`] with an explicit link probability and
    /// `V*(src)`.
    fn q_value_with_p_v(
        &self,
        net: &Network,
        src: NodeId,
        target: Target,
        penalize_bs: bool,
        p_ok: f64,
        v_src: f64,
    ) -> f64 {
        let r_t = self.expected_reward(net, src, target, penalize_bs, p_ok);
        r_t + self.params.gamma * (p_ok * self.v_target(target) + (1.0 - p_ok) * v_src)
    }

    /// Eq. 16: the expected reward `R_t` of one hop under link belief
    /// `p_ok`.
    fn expected_reward(
        &self,
        net: &Network,
        src: NodeId,
        target: Target,
        penalize_bs: bool,
        p_ok: f64,
    ) -> f64 {
        p_ok * self.reward_success(net, src, target, penalize_bs)
            + (1.0 - p_ok) * self.reward_failure(net, src, target)
    }

    /// `V*` of a forwarding target; the BS is terminal and pinned at 0.
    fn v_target(&self, target: Target) -> f64 {
        match target {
            Target::Bs => 0.0,
            Target::Head(h) => self.v[h.index()],
        }
    }

    /// Algorithm 4 (`Send-Data`): compute Q for every current head and the
    /// BS, update `V*(src)` to the max, and return the argmax action.
    ///
    /// Each `Q(src, a)` is affine in `V*(src)` through the failure
    /// self-loop term `γ·(1−P)·V*(src)`, so `V*(src) = max_a Q_a(V*(src))`
    /// is solved by iterating the backup to its fixed point — this is
    /// §3.3's "nodes are capable of computing the Q values of all the
    /// actions based on their own knowledge to update V values rather
    /// than take real actions". The iteration is a γ-contraction and
    /// typically settles in a handful of sweeps; every elementary Q
    /// computation counts toward the paper's `X`.
    ///
    /// Returns [`Target::Bs`] when `heads` is empty (the only action
    /// left). Dead heads are skipped.
    pub fn send_data(&mut self, net: &Network, src: NodeId, heads: &[NodeId]) -> Target {
        self.send_data_excluding(net, src, heads, &[])
    }

    /// [`QRouter::send_data`] with a per-packet NACK list: each NACK a
    /// target already gave *this* packet halves the link belief used for
    /// the remaining attempts. A single radio fluke on a good link barely
    /// moves the argmax (the packet is retried in place, where success is
    /// still likely), while a persistently-full queue collects NACKs and
    /// is priced out — without ever *removing* the action, so the router
    /// never trades a cheap nearby head for a ruinously distant one
    /// unless the Q comparison genuinely favours it.
    pub fn send_data_excluding(
        &mut self,
        net: &Network,
        src: NodeId,
        heads: &[NodeId],
        nacked: &[Target],
    ) -> Target {
        let v_before = self.v[src.index()];
        let mut v_src = v_before;
        let mut updates = 0u64;
        let mut scratch = std::mem::take(&mut self.action_buf);
        let p_base = |t: Target| self.links.probability(src, t);
        let action = self.send_data_core_cached(
            net,
            src,
            heads,
            nacked,
            &mut v_src,
            &p_base,
            &mut updates,
            &mut scratch,
        );
        self.action_buf = scratch;
        self.absorb_plan(src, v_src, updates, &[v_src - v_before]);
        action
    }

    /// The reference Algorithm 4 fixed-point iteration: every sweep
    /// recomputes every action's Q-value from scratch. Test-only — it is
    /// the oracle [`QRouter::send_data_core_cached`] must match bit for
    /// bit (see `cached_kernel_is_bit_identical`).
    #[cfg(test)]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn send_data_core(
        &self,
        net: &Network,
        src: NodeId,
        heads: &[NodeId],
        nacked: &[Target],
        v_src: &mut f64,
        p_base: &dyn Fn(Target) -> f64,
        updates: &mut u64,
    ) -> Target {
        const MAX_SWEEPS: usize = 60;
        const TOL: f64 = 1e-6;
        let p_of = |t: Target| -> f64 {
            let n = nacked.iter().filter(|&&x| x == t).count() as i32;
            p_base(t) * 0.5f64.powi(n)
        };

        let mut action = Target::Bs;
        for _ in 0..MAX_SWEEPS {
            let mut best: Option<(Target, f64)> = None;
            for &h in heads {
                if !net.node(h).is_alive() {
                    continue;
                }
                let t = Target::Head(h);
                let q = self.q_value_with_p_v(net, src, t, true, p_of(t), *v_src);
                *updates += 1;
                if best.is_none_or(|(_, bq)| q > bq) {
                    best = Some((t, q));
                }
            }
            let q_bs = self.q_value_with_p_v(net, src, Target::Bs, true, p_of(Target::Bs), *v_src);
            *updates += 1;
            if best.is_none_or(|(_, bq)| q_bs > bq) {
                best = Some((Target::Bs, q_bs));
            }
            let (a, v_new) = best.expect("BS action always exists");
            action = a;
            let delta = (v_new - *v_src).abs();
            *v_src = v_new;
            if delta < TOL {
                break;
            }
        }
        action
    }

    /// The Algorithm 4 fixed-point iteration, side-effect-free: `V*(src)`
    /// lives in the caller-owned `v_src`, link beliefs come from the
    /// caller-supplied `p_base` (so a planning pass can layer pending
    /// per-packet EWMA updates over the shared table), and elementary
    /// Q-computation counts accumulate in `updates`.
    ///
    /// Within one call the network is frozen (`&Network`) and the NACK
    /// list fixed, so each action's link belief `P`, Eq. 16 expected
    /// reward `R_t`, and target `V*` are sweep invariants, computed once
    /// into `scratch` (the caller-owned action buffer, cleared here) —
    /// only the failure self-loop term `γ·(1−P)·V*(src)` changes as the
    /// fixed point iterates. The expression tree
    /// `R_t + γ·(P·V*(target) + (1−P)·V*(src))` is the one
    /// [`QRouter::q_value`] evaluates, so every intermediate f64 and the
    /// elementary-update count (the paper's `X`) match a kernel that
    /// recomputes every Q-value each sweep; the test-only reference
    /// kernel `send_data_core` locks that bit for bit.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn send_data_core_cached(
        &self,
        net: &Network,
        src: NodeId,
        heads: &[NodeId],
        nacked: &[Target],
        v_src: &mut f64,
        p_base: &dyn Fn(Target) -> f64,
        updates: &mut u64,
        scratch: &mut Vec<ActionConst>,
    ) -> Target {
        const MAX_SWEEPS: usize = 60;
        const TOL: f64 = 1e-6;
        let p_of = |t: Target| -> f64 {
            let n = nacked.iter().filter(|&&x| x == t).count() as i32;
            p_base(t) * 0.5f64.powi(n)
        };

        // Dead heads are skipped before the elementary-update counter,
        // and the BS action comes last, fixing the argmax comparison
        // order (ties keep the earlier action).
        scratch.clear();
        let alive_heads = heads
            .iter()
            .filter(|&&h| net.node(h).is_alive())
            .map(|&h| Target::Head(h));
        for target in alive_heads.chain(std::iter::once(Target::Bs)) {
            let p_ok = p_of(target);
            scratch.push(ActionConst {
                target,
                p_ok,
                r_t: self.expected_reward(net, src, target, true, p_ok),
                v_target: self.v_target(target),
            });
        }

        let mut action = Target::Bs;
        for _ in 0..MAX_SWEEPS {
            let mut best: Option<(Target, f64)> = None;
            for a in scratch.iter() {
                let q = a.r_t + self.params.gamma * (a.p_ok * a.v_target + (1.0 - a.p_ok) * *v_src);
                *updates += 1;
                if best.is_none_or(|(_, bq)| q > bq) {
                    best = Some((a.target, q));
                }
            }
            let (a, v_new) = best.expect("BS action always exists");
            action = a;
            let delta = (v_new - *v_src).abs();
            *v_src = v_new;
            if delta < TOL {
                break;
            }
        }
        action
    }

    /// Commit the outcome of a planning pass that ran
    /// `QRouter::send_data_core_cached` (possibly several times, one per
    /// packet) on a local `V*` copy: write the final value back, fold in
    /// the elementary-update count, and replay the per-packet signed
    /// deltas through the convergence tracker in packet order — exactly
    /// the bookkeeping [`QRouter::send_data_excluding`] does per call.
    pub fn absorb_plan(&mut self, src: NodeId, v_src: f64, updates: u64, deltas: &[f64]) {
        self.v[src.index()] = v_src;
        self.updates.add(updates);
        for &d in deltas {
            self.last_delta = d;
            self.convergence.observe(d.abs());
        }
    }

    /// Algorithm 1 line 15: a cluster head refreshes its own V from its
    /// BS-hop Q-value after forwarding the aggregate (no Eq. 19 penalty —
    /// see the module docs).
    ///
    /// `aggregate_share` is the fraction of a member packet's bits that
    /// actually travel on the head's fused BS transmission — the data
    /// fusion compression ratio (Table 2: 0.5). The head's transmission
    /// cost `y(h, BS)` is scaled by it so the value a member inherits
    /// through `V*(h_j)` reflects the *marginal* cost its packet adds to
    /// the aggregate, not a full uncompressed retransmission.
    pub fn head_update(&mut self, net: &Network, head: NodeId, aggregate_share: f64) {
        assert!(
            (0.0..=1.0).contains(&aggregate_share),
            "aggregate_share must be in [0,1], got {aggregate_share}"
        );
        let p = self.params;
        let p_ok = self.links.probability(head, Target::Bs);
        let r_success = -p.g + p.alpha1 * (self.x(net, head) + p.x_bs)
            - p.alpha2 * aggregate_share * self.y(net, head, Target::Bs);
        let r_failure = -p.g + p.beta1 * self.x(net, head)
            - p.beta2 * aggregate_share * self.y(net, head, Target::Bs);
        let r_t = p_ok * r_success + (1.0 - p_ok) * r_failure;
        let q = r_t + p.gamma * (1.0 - p_ok) * self.v[head.index()];
        self.updates.bump();
        self.last_delta = q - self.v[head.index()];
        self.convergence.observe(self.last_delta.abs());
        self.v[head.index()] = q;
    }

    /// [`QRouter::head_update`] over a whole head roster, in roster
    /// order. Returns the per-head signed deltas in roster order for
    /// event emission.
    pub fn head_update_batch(
        &mut self,
        net: &Network,
        heads: &[NodeId],
        aggregate_share: f64,
    ) -> Vec<f64> {
        heads
            .iter()
            .map(|&h| {
                self.head_update(net, h, aggregate_share);
                self.last_delta
            })
            .collect()
    }

    /// ACK feedback from the simulator.
    pub fn on_hop_result(&mut self, src: NodeId, target: Target, success: bool) {
        self.links.record(src, target, success);
    }

    /// Round-end housekeeping: drop link estimates whose endpoint died
    /// (see [`LinkEstimator::prune_dead`]). Behaviour-invariant — dead
    /// links are never consulted again — but keeps `links_tracked()`
    /// bounded by the live topology instead of the run's history.
    pub fn prune_dead_links(&mut self, net: &Network) {
        self.links.prune_dead(net);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlec_geom::Vec3;
    use qlec_net::NetworkBuilder;

    /// Line deployment: src at origin, near head at 30 m, far head at
    /// 150 m, BS at 60 m (the enclosing-box centre is irrelevant — we pin
    /// the BS).
    fn line_net() -> Network {
        NetworkBuilder::new()
            .bs_at(Vec3::new(60.0, 0.0, 0.0))
            .from_nodes(&[
                (Vec3::new(0.0, 0.0, 0.0), 5.0),   // 0: src
                (Vec3::new(30.0, 0.0, 0.0), 5.0),  // 1: near head
                (Vec3::new(150.0, 0.0, 0.0), 5.0), // 2: far head
            ])
    }

    fn router(net: &Network) -> QRouter {
        QRouter::new(net, QlecParams::paper())
    }

    #[test]
    fn link_estimator_converges_to_frequency() {
        let mut est = LinkEstimator::new(0.2, 1.0);
        let src = NodeId(0);
        let t = Target::Head(NodeId(1));
        assert_eq!(est.probability(src, t), 1.0, "prior before evidence");
        for _ in 0..200 {
            est.record(src, t, false);
        }
        assert!(
            est.probability(src, t) < 0.01,
            "all-failure link must go to ≈ 0"
        );
        for _ in 0..200 {
            est.record(src, t, true);
        }
        assert!(est.probability(src, t) > 0.99);
        assert_eq!(est.links_tracked(), 1);
    }

    #[test]
    fn link_estimator_is_per_link() {
        let mut est = LinkEstimator::new(0.5, 1.0);
        est.record(NodeId(0), Target::Head(NodeId(1)), false);
        assert!(est.probability(NodeId(0), Target::Head(NodeId(1))) < 1.0);
        assert_eq!(est.probability(NodeId(0), Target::Head(NodeId(2))), 1.0);
        assert_eq!(est.probability(NodeId(0), Target::Bs), 1.0);
        est.record(NodeId(0), Target::Bs, false);
        assert!(est.probability(NodeId(0), Target::Bs) < 1.0);
    }

    #[test]
    fn prune_dead_drops_only_dead_endpoint_links() {
        let mut net = line_net();
        let mut est = LinkEstimator::new(0.5, 1.0);
        est.record(NodeId(0), Target::Head(NodeId(1)), true);
        est.record(NodeId(0), Target::Head(NodeId(2)), false);
        est.record(NodeId(0), Target::Bs, true);
        est.record(NodeId(1), Target::Bs, true);
        assert_eq!(est.links_tracked(), 4);
        net.node_mut(NodeId(1)).battery.consume(10.0);
        est.prune_dead(&net);
        // Gone: 0→1 (dead dst) and 1→BS (dead src). Kept: 0→2, 0→BS.
        assert_eq!(est.links_tracked(), 2);
        assert!(est.probability(NodeId(0), Target::Head(NodeId(2))) < 1.0);
        assert_eq!(
            est.probability(NodeId(0), Target::Head(NodeId(1))),
            1.0,
            "pruned link reverts to the prior"
        );
    }

    #[test]
    fn member_prefers_near_head_over_far() {
        // Same energies and priors: the Eq. 18 cost (30 m free-space vs
        // 150 m multi-path) must dominate.
        let net = line_net();
        let mut r = router(&net);
        let heads = [NodeId(1), NodeId(2)];
        assert_eq!(
            r.send_data(&net, NodeId(0), &heads),
            Target::Head(NodeId(1))
        );
    }

    #[test]
    fn member_avoids_bs_due_to_penalty() {
        // The BS at 60 m is geometrically closer than the far head, but
        // Eq. 19's penalty l must keep members off it while any head
        // lives.
        let net = line_net();
        let mut r = router(&net);
        for &heads in &[&[NodeId(1)][..], &[NodeId(2)][..]] {
            let t = r.send_data(&net, NodeId(0), heads);
            assert_ne!(t, Target::Bs, "heads {heads:?}");
        }
    }

    #[test]
    fn no_heads_forces_bs() {
        let net = line_net();
        let mut r = router(&net);
        assert_eq!(r.send_data(&net, NodeId(0), &[]), Target::Bs);
    }

    #[test]
    fn dead_head_is_skipped() {
        let mut net = line_net();
        net.node_mut(NodeId(1)).battery.consume(10.0);
        let mut r = router(&net);
        let t = r.send_data(&net, NodeId(0), &[NodeId(1), NodeId(2)]);
        assert_eq!(t, Target::Head(NodeId(2)));
    }

    #[test]
    fn failed_acks_steer_away_from_lossy_head() {
        // Start preferring the near head, then fail its ACKs repeatedly:
        // the estimator drives P̂ down and the fixed-point backup makes
        // hammering a dead link worth R_fail/(1−γ) — far below the far
        // head's value — so the router must switch.
        let net = line_net();
        let mut r = router(&net);
        let heads = [NodeId(1), NodeId(2)];
        assert_eq!(
            r.send_data(&net, NodeId(0), &heads),
            Target::Head(NodeId(1))
        );
        let mut switched = false;
        for _ in 0..60 {
            let t = r.send_data(&net, NodeId(0), &heads);
            if t == Target::Head(NodeId(2)) {
                switched = true;
                break;
            }
            // The simulator would report the failed hop.
            r.on_hop_result(NodeId(0), t, false);
        }
        assert!(switched, "router never abandoned the all-failure link");
        // And it stays switched while the bad link's estimate is ≈ 0.
        assert_eq!(
            r.send_data(&net, NodeId(0), &heads),
            Target::Head(NodeId(2))
        );
    }

    #[test]
    fn lower_energy_head_is_less_attractive() {
        // Two heads at symmetric distances; drain one. The α₁·x(h_j) term
        // and its V must tip the choice to the full head.
        let net = NetworkBuilder::new()
            .bs_at(Vec3::new(0.0, 100.0, 0.0))
            .from_nodes(&[
                (Vec3::new(0.0, 0.0, 0.0), 5.0),   // 0: src
                (Vec3::new(40.0, 0.0, 0.0), 5.0),  // 1: full head
                (Vec3::new(-40.0, 0.0, 0.0), 5.0), // 2: to be drained
            ]);
        let mut net = net;
        net.node_mut(NodeId(2)).battery.consume(4.5);
        let mut r = router(&net);
        let t = r.send_data(&net, NodeId(0), &[NodeId(1), NodeId(2)]);
        assert_eq!(t, Target::Head(NodeId(1)));
    }

    #[test]
    fn head_update_reflects_bs_cost_and_energy() {
        let net = line_net();
        let mut r = router(&net);
        assert_eq!(r.v_of(NodeId(1)), 0.0);
        r.head_update(&net, NodeId(1), 0.5);
        let v_near = r.v_of(NodeId(1)); // head at 30 m from BS
        r.head_update(&net, NodeId(2), 0.5);
        let v_far = r.v_of(NodeId(2)); // head at 90 m from BS
        assert!(
            v_near > v_far,
            "near-BS head V {v_near} must exceed far head V {v_far}"
        );
        // No Eq. 19 penalty in the head update: values stay on the reward
        // scale, far above -l.
        assert!(v_far > -r.params.l / 2.0);
    }

    #[test]
    fn v_values_are_bounded() {
        // Repeated updates must stay within r_max/(1-γ).
        let net = line_net();
        let mut r = router(&net);
        let heads = [NodeId(1), NodeId(2)];
        for i in 0..500 {
            r.send_data(&net, NodeId(0), &heads);
            r.head_update(&net, NodeId(1), 0.5);
            r.head_update(&net, NodeId(2), 0.5);
            let _ = i;
        }
        let p = QlecParams::paper();
        let r_max = p.g + 2.0 * p.alpha1 + p.alpha2 * 10.0 + p.l; // generous
        let bound = r_max / (1.0 - p.gamma);
        for id in [NodeId(0), NodeId(1), NodeId(2)] {
            assert!(
                r.v_of(id).abs() <= bound,
                "V({id}) = {} exceeds bound {bound}",
                r.v_of(id)
            );
        }
    }

    #[test]
    fn repeated_updates_converge() {
        // With a static network, V deltas shrink to (numerical) zero —
        // the fixed point exists and X is finite.
        let net = line_net();
        let mut r = router(&net);
        let heads = [NodeId(1), NodeId(2)];
        let mut converged_at = None;
        for sweep in 0..10_000 {
            r.send_data(&net, NodeId(0), &heads);
            r.head_update(&net, NodeId(1), 0.5);
            r.head_update(&net, NodeId(2), 0.5);
            if r.convergence.end_sweep() {
                converged_at = Some(sweep);
                break;
            }
        }
        assert!(converged_at.is_some(), "V never converged");
        assert!(r.updates.total() > 0);
    }

    /// [`QRouter::send_data_excluding`] on the test-only reference
    /// kernel, with the same bookkeeping.
    fn reference_send_data(
        r: &mut QRouter,
        net: &Network,
        src: NodeId,
        heads: &[NodeId],
        nacked: &[Target],
    ) -> Target {
        let v_before = r.v_of(src);
        let mut v_src = v_before;
        let mut updates = 0u64;
        let p_base = |t: Target| r.links.probability(src, t);
        let action = r.send_data_core(net, src, heads, nacked, &mut v_src, &p_base, &mut updates);
        r.absorb_plan(src, v_src, updates, &[v_src - v_before]);
        action
    }

    /// Drive the production kernel and the reference kernel through the
    /// same `steps` decisions — sources and head subsets rotating per
    /// step, evolving link evidence and NACK lists — and require the
    /// same action, `V*(src)` bits, elementary-update count and signed
    /// delta after every one.
    fn assert_kernels_agree(
        net: &Network,
        sources: &[NodeId],
        head_sets: &[&[NodeId]],
        steps: u32,
    ) {
        let mut reference = router(net);
        let mut cached = reference.clone();
        // Deterministic pseudo-random hop results / NACK churn.
        let mut x: u64 = 0x9E37_79B9;
        let mut nacked: Vec<Target> = Vec::new();
        for step in 0..steps {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let src = sources[step as usize % sources.len()];
            let heads = head_sets[step as usize % head_sets.len()];
            if step % 7 == 0 {
                nacked.clear();
            }
            let a = reference_send_data(&mut reference, net, src, heads, &nacked);
            let b = cached.send_data_excluding(net, src, heads, &nacked);
            assert_eq!(a, b, "action diverged at step {step}");
            assert_eq!(
                reference.v_of(src).to_bits(),
                cached.v_of(src).to_bits(),
                "V*(src) bits diverged at step {step}"
            );
            assert_eq!(
                reference.updates.total(),
                cached.updates.total(),
                "update counts diverged at step {step}"
            );
            assert_eq!(
                reference.last_delta().to_bits(),
                cached.last_delta().to_bits(),
                "last_delta bits diverged at step {step}"
            );
            let success = x & 1 == 0;
            reference.on_hop_result(src, a, success);
            cached.on_hop_result(src, b, success);
            if !success {
                nacked.push(a);
            }
            // Heads refresh their V between decisions, as at a round end,
            // so the hoisted `V*(target)` constants keep moving.
            if step % 5 == 4 {
                reference.head_update_batch(net, heads, 0.5);
                cached.head_update_batch(net, heads, 0.5);
            }
        }
    }

    #[test]
    fn cached_kernel_is_bit_identical() {
        // Small input: one source, a dead head, partial and empty head
        // sets.
        let mut net = NetworkBuilder::new()
            .bs_at(Vec3::new(60.0, 40.0, 0.0))
            .from_nodes(&[
                (Vec3::new(0.0, 0.0, 0.0), 5.0),
                (Vec3::new(30.0, 10.0, 0.0), 5.0),
                (Vec3::new(150.0, 0.0, 20.0), 5.0),
                (Vec3::new(80.0, 80.0, 80.0), 5.0),
                (Vec3::new(10.0, 90.0, 40.0), 2.5),
            ]);
        net.node_mut(NodeId(3)).battery.consume(4.0);
        let all_heads = [NodeId(1), NodeId(2), NodeId(3), NodeId(4)];
        assert_kernels_agree(
            &net,
            &[NodeId(0)],
            &[&all_heads, &all_heads[..2], &all_heads[2..], &[]],
            200,
        );

        // At-scale input: 14 heads (more than the 8 the Theorem-1
        // candidate budget keeps for small k), several sources, three
        // dead heads and drained ones, spread through a 200 m cube.
        let mut nodes = Vec::new();
        let mut y: u64 = 0x2545_F491_4F6C_DD1D;
        for i in 0..20u32 {
            let mut coord = || {
                y ^= y << 13;
                y ^= y >> 7;
                y ^= y << 17;
                (y % 200_000) as f64 / 1000.0
            };
            let pos = Vec3::new(coord(), coord(), coord());
            nodes.push((pos, if i % 3 == 0 { 2.0 } else { 5.0 }));
        }
        let mut net = NetworkBuilder::new()
            .bs_at(Vec3::new(100.0, 100.0, 250.0))
            .from_nodes(&nodes);
        for dead in [7, 11, 16] {
            net.node_mut(NodeId(dead)).battery.consume(10.0);
        }
        net.node_mut(NodeId(9)).battery.consume(3.5);
        let sources = [NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4)];
        let heads: Vec<NodeId> = (6..20).map(NodeId).collect();
        assert!(heads.len() > 8);
        assert_kernels_agree(&net, &sources, &[&heads, &heads[3..], &heads[..9]], 600);
    }

    #[test]
    fn update_counter_counts_k_plus_one_per_sweep() {
        let net = line_net();
        let mut r = router(&net);
        let heads = [NodeId(1), NodeId(2)];
        r.send_data(&net, NodeId(0), &heads);
        // Each fixed-point sweep performs k + 1 = 3 elementary updates;
        // with optimistic priors (P = 1, no self-loop term) the fixed
        // point lands in the first sweep and the second confirms it.
        let total = r.updates.total();
        assert!(total >= 3 && total.is_multiple_of(3), "updates = {total}");
        assert!(total <= 3 * 200, "sweep cap respected");
    }
}
