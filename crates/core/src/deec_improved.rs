//! The improved DEEC cluster-head selection (Algorithms 2 and 3).
//!
//! Two improvements over plain DEEC (§3.1):
//!
//! 1. **Energy threshold** (Eq. 4): a node is only eligible while
//!    `E_i(r) ≥ E_{i,th}(r) = (1 − (r/R)²)·E_{i,initial}` — nearly-drained
//!    nodes are barred from serving even when the randomized rotation
//!    would pick them. (The paper writes strict `>`; at `r = 0` the
//!    threshold equals the initial energy, so a strict comparison would
//!    bar *every* fresh node — we use `≥`, which matches the obvious
//!    intent.) If an elected node fails the threshold, "the improved DEEC
//!    algorithm will choose another node up to the demand to replace it" —
//!    implemented as the energy-greedy top-up below.
//! 2. **Redundancy reduction** (Algorithm 3): every fresh head HELLOs all
//!    nodes within the coverage radius `d_c` (Eq. 5) with its energy; a
//!    head that hears a HELLO from a *richer* head withdraws. HELLOs are
//!    broadcast simultaneously, so a head withdraws iff *any* elected head
//!    within `d_c` had more energy — including one that itself withdraws
//!    (it already sent its HELLO). Ties break toward the lower node id so
//!    the outcome is deterministic and at least one head of any conflict
//!    group survives.
//!
//! Cost per round, for `N` alive nodes and target `k`: the election is one
//! roster pass, Algorithm 3 and the HELLO charge are grid ball queries,
//! and the top-up is a sort plus one bitset test and one head-grid ball
//! query per candidate — `O(N log N)` overall, matching Lemma 2's linear
//! phase up to the sort. Nothing here may cost `O(N·k)`: `k` grows with
//! `N` (k = N/20 at scale).

use crate::params::QlecParams;
use qlec_clustering::deec::deec_probability;
use qlec_clustering::leach::{rotating_epoch, rotating_threshold};
use qlec_geom::UniformGrid;
use qlec_net::{Network, NodeId};
use qlec_obs::{Event, ObserverSet, Phase};
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

/// Eq. 4: the minimum residual energy node `i` needs at round `r` (out of
/// planned `total_rounds`) to be eligible as a cluster head.
///
/// Total over all inputs: the decaying fraction `r/R` saturates at 1, so
/// the threshold is `0.0` for every round at or past the plan horizon
/// (`r ≥ total_rounds`) — and, by the same saturation, for the degenerate
/// `total_rounds = 0` (a zero-length plan is always past its horizon).
/// No input produces NaN or a negative threshold.
pub fn energy_threshold(initial_energy: f64, r: u32, total_rounds: u32) -> f64 {
    if r >= total_rounds {
        return 0.0;
    }
    let frac = r as f64 / total_rounds as f64;
    (1.0 - frac * frac) * initial_energy
}

/// Which optional improvements to apply — the ablation switchboard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SelectionFeatures {
    /// Apply the Eq. 4 energy threshold.
    pub energy_threshold: bool,
    /// Run the Algorithm 3 HELLO redundancy reduction.
    pub redundancy_reduction: bool,
    /// Enforce the target `k`: top up a short head set with the
    /// highest-energy eligible, non-conflicting candidates (the paper's
    /// replacement mechanism) and trim an over-full one to the `k`
    /// richest heads ("it is very important to set a certain cluster
    /// number for each round", §3.1).
    pub top_up: bool,
}

impl Default for SelectionFeatures {
    fn default() -> Self {
        SelectionFeatures {
            energy_threshold: true,
            redundancy_reduction: true,
            top_up: true,
        }
    }
}

/// Outcome of one selection round (diagnostics for tests and benches).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectionOutcome {
    /// The final head set.
    pub heads: Vec<NodeId>,
    /// Heads elected by the randomized threshold before Algorithm 3.
    pub elected: usize,
    /// Heads withdrawn by the redundancy reduction.
    pub withdrawn: usize,
    /// The withdrawn heads themselves (id order of election).
    pub withdrawn_ids: Vec<NodeId>,
    /// Heads added by the top-up/replacement mechanism.
    pub topped_up: usize,
}

/// Run one round of improved-DEEC head selection. Installs roles and
/// rotation bookkeeping on the network and (optionally) charges HELLO
/// energy.
///
/// `k` is the target head count (Theorem 1's `k_opt` in QLEC proper);
/// `grid` must index the network's node positions in id order.
pub fn select_heads(
    net: &mut Network,
    grid: &UniformGrid,
    round: u32,
    k: usize,
    params: &QlecParams,
    features: SelectionFeatures,
    rng: &mut dyn RngCore,
) -> SelectionOutcome {
    select_heads_observed(
        net,
        grid,
        round,
        k,
        params,
        features,
        rng,
        &ObserverSet::new(),
    )
}

/// [`select_heads`] with an observer: times the Algorithm 3 HELLO
/// broadcast as [`Phase::Broadcast`] and emits one
/// [`Event::HeadWithdrawn`] per head the redundancy reduction removes.
///
/// Scans the network for the alive roster itself; callers that already
/// maintain one (the protocol's incremental election index) should use
/// [`select_heads_from_roster`] and skip the `O(N)` re-scan.
#[allow(clippy::too_many_arguments)]
pub fn select_heads_observed(
    net: &mut Network,
    grid: &UniformGrid,
    round: u32,
    k: usize,
    params: &QlecParams,
    features: SelectionFeatures,
    rng: &mut dyn RngCore,
    obs: &ObserverSet,
) -> SelectionOutcome {
    let alive: Vec<NodeId> = net.alive_ids().collect();
    select_heads_from_roster(net, grid, &alive, round, k, params, features, rng, obs)
}

/// [`select_heads_observed`] driven by a caller-maintained alive roster.
///
/// `alive` must hold exactly the network's alive node ids in ascending
/// order — the order Algorithm 2 consumes randomness in, so a correct
/// roster is byte-identical to the self-scanning entry point while the
/// caller amortizes the per-round `O(N)` alive scan into whatever diff
/// bookkeeping it already does (see the protocol's incremental index
/// maintenance). Every per-node pass below (election, top-up ranking,
/// the last-resort promotion) walks this roster instead of re-scanning
/// all `N` deployment slots.
#[allow(clippy::too_many_arguments)]
pub fn select_heads_from_roster(
    net: &mut Network,
    grid: &UniformGrid,
    alive: &[NodeId],
    round: u32,
    k: usize,
    params: &QlecParams,
    features: SelectionFeatures,
    rng: &mut dyn RngCore,
    obs: &ObserverSet,
) -> SelectionOutcome {
    select_with(
        net, grid, alive, round, k, params, features, rng, obs, enforce_k,
    )
}

/// How [`select_with`] enforces the target `k`: [`enforce_k`] in
/// production, the seed-era scan in the byte-identity oracle test.
type EnforceK = fn(&Network, &[NodeId], &mut Vec<NodeId>, Demand) -> usize;

/// The body of [`select_heads_from_roster`], with the `k` enforcement
/// pluggable so tests can diff it against a reference implementation.
#[allow(clippy::too_many_arguments)]
fn select_with(
    net: &mut Network,
    grid: &UniformGrid,
    alive: &[NodeId],
    round: u32,
    k: usize,
    params: &QlecParams,
    features: SelectionFeatures,
    rng: &mut dyn RngCore,
    obs: &ObserverSet,
    enforce: EnforceK,
) -> SelectionOutcome {
    assert!(k > 0, "target head count must be positive");
    // Both roster checks are O(N) and hold in release builds: a stale
    // roster would silently elect dead heads or skip live ones.
    assert!(
        alive.windows(2).all(|w| w[0] < w[1]),
        "alive roster must be strictly ascending"
    );
    assert!(
        alive.iter().all(|&id| net.node(id).is_alive()) && alive.len() == net.alive_count(),
        "alive roster out of sync with the network"
    );
    let n = net.len().max(1);
    let p_opt = (k as f64 / n as f64).min(1.0);
    let dc = crate::kopt::coverage_radius(net.side_length(), k);

    // Eq. 2 estimate of the average network energy. Saturate past the
    // plan horizon (and for a degenerate zero-round plan) like Eq. 4.
    let r_frac = if round >= params.total_rounds {
        1.0
    } else {
        round as f64 / params.total_rounds as f64
    };
    let avg_energy = (net.total_initial() / n as f64) * (1.0 - r_frac);

    // --- Algorithm 2: randomized election --------------------------------
    let mut elected: Vec<NodeId> = Vec::new();
    for id in alive {
        let node = net.node(*id);
        if features.energy_threshold {
            let th = energy_threshold(node.battery.initial(), round, params.total_rounds);
            if node.residual() < th {
                continue;
            }
        }
        let p_i = deec_probability(p_opt, node.residual(), avg_energy);
        if p_i <= 0.0 || node.was_head_recently(round, rotating_epoch(p_i)) {
            continue;
        }
        let t = rotating_threshold(p_i, round);
        if rng.gen::<f64>() < t {
            elected.push(*id);
        }
    }
    let elected_count = elected.len();

    // --- Algorithm 3: HELLO redundancy reduction -------------------------
    let mut withdrawn_ids: Vec<NodeId> = Vec::new();
    let broadcast_span = obs.span_start();
    let mut heads: Vec<NodeId> = if features.redundancy_reduction && elected.len() > 1 {
        // Every elected head broadcasts simultaneously; charge energy
        // before any withdrawal (the message was already sent).
        if params.charge_control_traffic {
            charge_hello(net, grid, &elected, dc, params.hello_bits);
        }
        let (kept, withdrawn) = redundancy_withdrawals(net, grid, &elected, dc);
        withdrawn_ids = withdrawn;
        kept
    } else {
        elected
    };
    obs.span_end(broadcast_span, round, Phase::Broadcast);
    if obs.is_active() {
        for &w in &withdrawn_ids {
            obs.emit(Event::HeadWithdrawn { round, node: w.0 });
        }
    }

    let demand = Demand {
        k,
        dc,
        round,
        total_rounds: params.total_rounds,
        features,
    };
    let topped_up = enforce(net, alive, &mut heads, demand);

    // Last resort: an empty head set stalls the round — promote the single
    // richest alive node (unconditionally eligible).
    if heads.is_empty() {
        if let Some(best) = alive.iter().copied().max_by(|&a, &b| {
            net.node(a)
                .residual()
                .total_cmp(&net.node(b).residual())
                .then(b.cmp(&a))
        }) {
            heads.push(best);
        }
    }

    qlec_net::protocol::install_heads(net, round, &heads);
    let withdrawn = withdrawn_ids.len();
    SelectionOutcome {
        heads,
        elected: elected_count,
        withdrawn,
        withdrawn_ids,
        topped_up,
    }
}

/// The round's head-count demand, as [`enforce_k`] sees it.
#[derive(Debug, Clone, Copy)]
struct Demand {
    /// Target head count.
    k: usize,
    /// Coverage radius (Eq. 5): the separation pass 1 of the top-up keeps.
    dc: f64,
    round: u32,
    total_rounds: u32,
    features: SelectionFeatures,
}

/// Enforce the target `k` on the post-Algorithm-3 `heads`: trim an
/// over-full set to the richest `k`, or top a short one up from `alive`.
/// Returns how many heads the top-up added.
///
/// `O(N log N)` in the roster: one `is_head` bitset answers membership,
/// and pass 1's d_c separation queries a [`UniformGrid`] over the
/// current heads only (cells about d_c wide, so a query touches `O(1)`
/// heads on average). The sorts run on precomputed `(passes, residual,
/// id)` keys; the id tie-break makes the order total, so an unstable
/// sort is deterministic and matches `enforce_k_reference`'s stable
/// one.
fn enforce_k(net: &Network, alive: &[NodeId], heads: &mut Vec<NodeId>, d: Demand) -> usize {
    let Demand {
        k,
        dc,
        round,
        total_rounds,
        features,
    } = d;
    if !features.top_up || heads.len() == k {
        return 0;
    }

    // --- Trim an over-full head set to the richest k ---------------------
    if heads.len() > k {
        let mut ranked: Vec<(f64, NodeId)> =
            heads.iter().map(|&h| (net.node(h).residual(), h)).collect();
        ranked.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        heads.clear();
        heads.extend(ranked[..k].iter().map(|&(_, h)| h));
        return 0;
    }

    // --- Replacement / top-up (the Eq. 4 "choose another node") ----------
    //
    // "Up to the demand": the round must end with k heads whenever enough
    // alive nodes exist. Candidates are ranked by (passes the Eq. 4
    // threshold, residual energy); the coverage separation is respected
    // while possible and relaxed only when it would leave the demand
    // unmet — otherwise a congested early round (every node fractionally
    // below the near-initial threshold) collapses to a single head and
    // the network melts down.
    let mut is_head = vec![false; net.len()];
    for &h in heads.iter() {
        is_head[h.index()] = true;
    }
    let mut candidates: Vec<(bool, f64, NodeId)> = alive
        .iter()
        .copied()
        .filter(|id| !is_head[id.index()])
        .map(|id| {
            let node = net.node(id);
            let residual = node.residual();
            let passes = !features.energy_threshold
                || residual >= energy_threshold(node.battery.initial(), round, total_rounds);
            (passes, residual, id)
        })
        .collect();
    candidates.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(b.1.total_cmp(&a.1)).then(a.2.cmp(&b.2)));

    let mut topped_up = 0usize;
    // Pass 1: respect the d_c separation. Grid index `i` is `heads[i]`;
    // the inflated query radius makes the ball a superset of the exact
    // `distance <= dc` predicate, which still decides (as in
    // `redundancy_withdrawals`).
    let mut head_grid = features
        .redundancy_reduction
        .then(|| head_grid(net, heads, dc));
    let query_radius = dc * (1.0 + 1e-12);
    let mut ball: Vec<u32> = Vec::new();
    for &(_, _, id) in &candidates {
        if heads.len() >= k {
            break;
        }
        let pos = net.node(id).pos;
        if let Some(grid) = head_grid.as_mut() {
            grid.within_radius_into(pos, query_radius, &mut ball);
            if ball
                .iter()
                .any(|&i| net.distance(id, heads[i as usize]) <= dc)
            {
                continue;
            }
            grid.insert(pos);
        }
        heads.push(id);
        is_head[id.index()] = true;
        topped_up += 1;
    }
    // Pass 2: demand still unmet — relax the separation.
    for &(_, _, id) in &candidates {
        if heads.len() >= k {
            break;
        }
        if !is_head[id.index()] {
            heads.push(id);
            is_head[id.index()] = true;
            topped_up += 1;
        }
    }
    topped_up
}

/// A [`UniformGrid`] over `heads` alone (index `i` is `heads[i]`), with
/// cells about `d_c` wide so a d_c ball spans at most 3 cells per axis.
fn head_grid(net: &Network, heads: &[NodeId], dc: f64) -> UniformGrid {
    let bounds = net.bounds();
    let ext = bounds.extent();
    // `as usize` saturates NaN (a degenerate zero-size axis) to 0; the
    // cap bounds the cell table once k passes about 500k. Cells are at
    // least d_c wide either way.
    let cells = |e: f64| ((e / dc) as usize).clamp(1, 128);
    UniformGrid::build_with_dims(
        heads.iter().map(|&h| net.node(h).pos).collect(),
        bounds,
        [cells(ext.x), cells(ext.y), cells(ext.z)],
    )
}

/// The seed-era [`enforce_k`]: `O(N·k)` membership tests and an
/// all-heads d_c scan per candidate. Kept as the byte-identity oracle.
#[cfg(test)]
fn enforce_k_reference(
    net: &Network,
    alive: &[NodeId],
    heads: &mut Vec<NodeId>,
    d: Demand,
) -> usize {
    let Demand {
        k,
        dc,
        round,
        total_rounds,
        features,
    } = d;
    if features.top_up && heads.len() > k {
        heads.sort_by(|&a, &b| {
            net.node(b)
                .residual()
                .total_cmp(&net.node(a).residual())
                .then(a.cmp(&b))
        });
        heads.truncate(k);
    }
    let mut topped_up = 0usize;
    if features.top_up && heads.len() < k {
        let mut candidates: Vec<(bool, NodeId)> = alive
            .iter()
            .copied()
            .filter(|id| !heads.contains(id))
            .map(|id| {
                let node = net.node(id);
                let passes = !features.energy_threshold
                    || node.residual()
                        >= energy_threshold(node.battery.initial(), round, total_rounds);
                (passes, id)
            })
            .collect();
        candidates.sort_by(|&(pa, a), &(pb, b)| {
            pb.cmp(&pa)
                .then(net.node(b).residual().total_cmp(&net.node(a).residual()))
                .then(a.cmp(&b))
        });
        for &(_, id) in &candidates {
            if heads.len() >= k {
                break;
            }
            if features.redundancy_reduction && heads.iter().any(|h| net.distance(id, *h) <= dc) {
                continue;
            }
            heads.push(id);
            topped_up += 1;
        }
        for &(_, id) in &candidates {
            if heads.len() >= k {
                break;
            }
            if !heads.contains(&id) {
                heads.push(id);
                topped_up += 1;
            }
        }
    }
    topped_up
}

/// Algorithm 3 core: partition `elected` into (survivors, withdrawals),
/// both in election order. A head withdraws iff *any* other elected head
/// within `d_c` out-ranks it (more residual energy, or equal energy and a
/// lower id) — simultaneous-HELLO semantics, so out-ranking heads count
/// even when they themselves withdraw.
///
/// The candidate set per head comes from a [`UniformGrid`] ball query —
/// O(elected · ball) instead of the seed's O(elected²) all-pairs scan.
/// The grid is queried with a radius inflated by one part in 10¹² so its
/// squared-distance cell test is a superset of the exact predicate; the
/// final call is still `net.distance(i, j) <= dc`, bit-for-bit the
/// comparison the brute-force scan made.
pub fn redundancy_withdrawals(
    net: &Network,
    grid: &UniformGrid,
    elected: &[NodeId],
    dc: f64,
) -> (Vec<NodeId>, Vec<NodeId>) {
    let mut is_elected = vec![false; net.len()];
    for &e in elected {
        is_elected[e.0 as usize] = true;
    }
    let query_radius = dc * (1.0 + 1e-12);
    let mut ball: Vec<u32> = Vec::new();
    let mut kept: Vec<NodeId> = Vec::with_capacity(elected.len());
    let mut withdrawn: Vec<NodeId> = Vec::new();
    for &i in elected {
        let me = net.node(i).residual();
        grid.within_radius_into(net.node(i).pos, query_radius, &mut ball);
        let outranked = ball.iter().any(|&jx| {
            let j = NodeId(jx);
            is_elected[jx as usize] && j != i && net.distance(i, j) <= dc && {
                let other = net.node(j).residual();
                other > me || (other == me && j < i)
            }
        });
        if outranked {
            withdrawn.push(i);
        } else {
            kept.push(i);
        }
    }
    (kept, withdrawn)
}

/// Charge the Algorithm 3 HELLO broadcast: each head transmits
/// `hello_bits` at range `d_c`; every other node inside the ball pays
/// reception.
fn charge_hello(net: &mut Network, grid: &UniformGrid, heads: &[NodeId], dc: f64, bits: u64) {
    let radio = net.radio;
    let tx = radio.tx_energy(bits, dc);
    let rx = radio.rx_energy(bits);
    let mut in_range = Vec::new();
    for &h in heads {
        net.node_mut(h).battery.consume(tx);
        grid.within_radius_into(net.node(h).pos, dc, &mut in_range);
        for &i in &in_range {
            let id = NodeId(i);
            if id != h && net.node(id).is_alive() {
                net.node_mut(id).battery.consume(rx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qlec_net::NetworkBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(seed: u64, n: usize) -> (Network, UniformGrid) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = NetworkBuilder::new().uniform_cube(&mut rng, n, 200.0, 5.0);
        let grid = UniformGrid::build(net.positions(), 8);
        (net, grid)
    }

    #[test]
    fn eq4_threshold_shape() {
        // Fresh network: threshold equals initial energy.
        assert_eq!(energy_threshold(5.0, 0, 20), 5.0);
        // Quadratic decay: at r = R/2 the threshold is 75 % of initial.
        assert!((energy_threshold(5.0, 10, 20) - 3.75).abs() < 1e-12);
        // At the horizon: zero.
        assert_eq!(energy_threshold(5.0, 20, 20), 0.0);
        // Beyond the horizon it clamps at zero, never negative.
        assert_eq!(energy_threshold(5.0, 99, 20), 0.0);
    }

    #[test]
    fn eq4_threshold_is_total() {
        // A zero-length plan is always past its horizon: threshold 0, no
        // NaN (the old code divided 0/0 here in release builds).
        for r in [0u32, 1, 1000, u32::MAX] {
            let th = energy_threshold(5.0, r, 0);
            assert_eq!(th, 0.0, "r={r}, total_rounds=0");
            assert!(!th.is_nan());
        }
        // Extreme but valid inputs stay finite and non-negative.
        for (r, total) in [(0u32, u32::MAX), (u32::MAX, u32::MAX), (u32::MAX, 1)] {
            let th = energy_threshold(f64::MAX, r, total);
            assert!(th.is_finite() && th >= 0.0, "r={r} total={total} → {th}");
        }
    }

    #[test]
    fn selection_survives_zero_round_plan() {
        // total_rounds = 0 must not divide by zero in the Eq. 2 average
        // or the Eq. 4 threshold: the plan is past its horizon, so the
        // threshold bars nobody and the average-energy estimate is 0.
        let (mut net, grid) = setup(3, 60);
        let mut rng = StdRng::seed_from_u64(5);
        let params = QlecParams {
            total_rounds: 0,
            ..QlecParams::paper()
        };
        let out = select_heads(
            &mut net,
            &grid,
            0,
            4,
            &params,
            SelectionFeatures::default(),
            &mut rng,
        );
        assert!(!out.heads.is_empty(), "top-up must still reach k");
    }

    #[test]
    fn fresh_round_zero_selects_heads() {
        // The ≥-vs-> interpretation: with everything at full energy the
        // threshold equals the residual, and selection must still work.
        let (mut net, grid) = setup(1, 100);
        let mut rng = StdRng::seed_from_u64(2);
        let out = select_heads(
            &mut net,
            &grid,
            0,
            5,
            &QlecParams::paper(),
            SelectionFeatures::default(),
            &mut rng,
        );
        assert!(!out.heads.is_empty());
    }

    #[test]
    fn top_up_reaches_target_k() {
        let (mut net, grid) = setup(3, 100);
        let mut rng = StdRng::seed_from_u64(4);
        let out = select_heads(
            &mut net,
            &grid,
            0,
            5,
            &QlecParams::paper(),
            SelectionFeatures::default(),
            &mut rng,
        );
        assert_eq!(
            out.heads.len(),
            5,
            "top-up must hit k when candidates exist"
        );
    }

    #[test]
    fn redundancy_reduction_separates_heads() {
        let (mut net, grid) = setup(5, 200);
        let mut rng = StdRng::seed_from_u64(6);
        let k = 5;
        let dc = crate::kopt::coverage_radius(200.0, k);
        let out = select_heads(
            &mut net,
            &grid,
            0,
            k,
            &QlecParams::paper(),
            SelectionFeatures::default(),
            &mut rng,
        );
        // After Alg. 3 + separation-respecting top-up, surviving heads are
        // pairwise separated OR one of a conflicting pair out-ranks the
        // other — with simultaneous HELLO semantics the survivor set is
        // pairwise conflict-free.
        for (i, &a) in out.heads.iter().enumerate() {
            for &b in &out.heads[i + 1..] {
                assert!(
                    net.distance(a, b) > dc,
                    "heads {a} and {b} are within d_c = {dc}"
                );
            }
        }
    }

    #[test]
    fn drained_nodes_are_barred_by_threshold() {
        let (mut net, grid) = setup(7, 60);
        // Drain node 0 below the round-5 threshold.
        net.node_mut(NodeId(0)).battery.consume(2.0); // 3.0 residual
        let th = energy_threshold(5.0, 5, 20);
        assert!(3.0 < th, "test premise: node 0 must be under the threshold");
        let mut rng = StdRng::seed_from_u64(8);
        for r in 0..10u32 {
            net.reset_roles();
            let out = select_heads(
                &mut net,
                &grid,
                5, // fixed round so the threshold stays put
                4,
                &QlecParams::paper(),
                SelectionFeatures::default(),
                &mut rng,
            );
            assert!(!out.heads.contains(&NodeId(0)), "round {r}");
        }
    }

    #[test]
    fn without_threshold_drained_nodes_can_serve() {
        let (mut net, grid) = setup(9, 30);
        for i in 0..30u32 {
            net.node_mut(NodeId(i)).battery.consume(2.0);
        }
        let mut rng = StdRng::seed_from_u64(10);
        let features = SelectionFeatures {
            energy_threshold: false,
            ..Default::default()
        };
        let out = select_heads(
            &mut net,
            &grid,
            5,
            4,
            &QlecParams::paper(),
            features,
            &mut rng,
        );
        assert!(
            !out.heads.is_empty(),
            "ablated threshold must not block selection"
        );
    }

    #[test]
    fn hello_costs_energy_when_charged() {
        let (net0, grid) = setup(11, 100);
        let run = |charge: bool| {
            let mut net = net0.clone();
            let mut rng = StdRng::seed_from_u64(12);
            let params = QlecParams {
                charge_control_traffic: charge,
                ..QlecParams::paper()
            };
            select_heads(
                &mut net,
                &grid,
                0,
                5,
                &params,
                SelectionFeatures::default(),
                &mut rng,
            );
            net.total_consumed()
        };
        let with = run(true);
        let without = run(false);
        assert!(with > without, "HELLO charging {with} vs free {without}");
        assert_eq!(without, 0.0);
    }

    #[test]
    fn all_dead_network_yields_no_heads() {
        let (mut net, grid) = setup(13, 10);
        for i in 0..10u32 {
            net.node_mut(NodeId(i)).battery.consume(100.0);
        }
        let mut rng = StdRng::seed_from_u64(14);
        let out = select_heads(
            &mut net,
            &grid,
            0,
            3,
            &QlecParams::paper(),
            SelectionFeatures::default(),
            &mut rng,
        );
        assert!(out.heads.is_empty());
    }

    #[test]
    fn head_count_tracks_k_over_many_rounds() {
        let (mut net, grid) = setup(15, 100);
        let mut rng = StdRng::seed_from_u64(16);
        let mut total = 0usize;
        let rounds = 20;
        for r in 0..rounds {
            net.reset_roles();
            let out = select_heads(
                &mut net,
                &grid,
                r,
                5,
                &QlecParams::paper(),
                SelectionFeatures::default(),
                &mut rng,
            );
            total += out.heads.len();
        }
        let mean = total as f64 / rounds as f64;
        assert!(
            (4.0..=6.0).contains(&mean),
            "mean head count {mean}, want ≈ 5 (the paper's 'very close to k_opt')"
        );
    }

    /// One scenario for the `enforce_k` byte-identity oracle: a
    /// deployment in some mid-life state plus the caller-side indexes the
    /// protocol would hand to selection.
    struct OracleCase {
        net: Network,
        grid: UniformGrid,
        params: QlecParams,
        features: SelectionFeatures,
        k: usize,
        first_round: u32,
        rounds: u32,
        seed: u64,
    }

    /// The selection outcome and every node's post-selection state
    /// (residual bits, role, rotation bookkeeping) after `rounds`
    /// consecutive elections driven by `enforce`.
    #[allow(clippy::type_complexity)]
    fn run_oracle_case(
        case: &OracleCase,
        enforce: EnforceK,
    ) -> (Vec<SelectionOutcome>, Vec<(u64, bool, Option<u32>, u32)>) {
        let mut net = case.net.clone();
        let mut rng = StdRng::seed_from_u64(case.seed);
        let mut outcomes = Vec::new();
        for r in case.first_round..case.first_round + case.rounds {
            net.reset_roles();
            let alive: Vec<NodeId> = net.alive_ids().collect();
            outcomes.push(select_with(
                &mut net,
                &case.grid,
                &alive,
                r,
                case.k,
                &case.params,
                case.features,
                &mut rng,
                &ObserverSet::new(),
                enforce,
            ));
        }
        let state = net
            .ids()
            .map(|id| {
                let node = net.node(id);
                (
                    node.residual().to_bits(),
                    node.role == qlec_net::Role::ClusterHead,
                    node.last_head_round,
                    node.head_count,
                )
            })
            .collect();
        (outcomes, state)
    }

    fn assert_matches_reference(case: &OracleCase) {
        let (got, got_state) = run_oracle_case(case, enforce_k);
        let (want, want_state) = run_oracle_case(case, enforce_k_reference);
        assert_eq!(got, want, "selection outcomes diverge from the reference");
        assert!(
            got_state == want_state,
            "post-selection node state diverges from the reference"
        );
    }

    /// Features from a 3-bit mask, so one `0..8` draw spans all 8 combinations.
    fn features_from_bits(bits: u8) -> SelectionFeatures {
        SelectionFeatures {
            energy_threshold: bits & 1 != 0,
            redundancy_reduction: bits & 2 != 0,
            top_up: bits & 4 != 0,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// `enforce_k` (bitset + head-only grid) reproduces the seed-era
        /// O(N·k) top-up byte for byte: same heads in the same order,
        /// same diagnostics, same post-selection energies and roles.
        /// Covers all feature combinations, k up to n/2 (so pass 2 of
        /// the top-up fires), nodes drained below Eq. 4, rounds at and
        /// past the plan horizon, and nodes killed then revived while
        /// the caller's grid still has them removed — the incremental
        /// head-index state after a blackout.
        #[test]
        fn enforce_k_matches_reference(
            seed in 0u64..10_000,
            n in 2usize..400,
            k_frac in 0.0f64..0.5,
            bits in 0u8..8,
            first_round in 0u32..30,
            drain_every in 1usize..6,
            drain_to in 0.0f64..1.0,
            kill_every in 2usize..12,
            revive in any::<bool>(),
            charge in any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut net = NetworkBuilder::new().uniform_cube(&mut rng, n, 200.0, 5.0);
            let mut grid = UniformGrid::build(net.iter_positions(), 8);
            for i in (0..n).step_by(drain_every) {
                // Residual in [0, 5): many fall under Eq. 4 for early rounds.
                net.node_mut(NodeId(i as u32)).battery.consume(5.0 * (1.0 - drain_to));
            }
            for i in (1..n).step_by(kill_every) {
                let id = NodeId(i as u32);
                *net.node_mut(id).online = false;
                grid.remove(id.0);
                if revive {
                    *net.node_mut(id).online = true;
                }
            }
            let case = OracleCase {
                net,
                grid,
                params: QlecParams {
                    total_rounds: 20,
                    charge_control_traffic: charge,
                    ..QlecParams::paper()
                },
                features: features_from_bits(bits),
                k: ((n as f64 * k_frac) as usize).max(1),
                first_round,
                rounds: 3,
                seed: seed ^ 0x5eed,
            };
            assert_matches_reference(&case);
        }
    }

    #[test]
    fn enforce_k_matches_reference_at_20k() {
        // One fixed large case: N = 20k, k = 1000, all features on, with
        // a drained quarter so the threshold ranks candidates.
        let (mut net, grid) = setup(17, 20_000);
        for i in (0..20_000u32).step_by(4) {
            net.node_mut(NodeId(i)).battery.consume(1.5);
        }
        let case = OracleCase {
            net,
            grid,
            params: QlecParams::paper(),
            features: SelectionFeatures::default(),
            k: 1000,
            first_round: 3,
            rounds: 2,
            seed: 18,
        };
        assert_matches_reference(&case);
    }
}
