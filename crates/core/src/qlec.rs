//! The full QLEC protocol (Algorithm 1), as a [`qlec_net::Protocol`].
//!
//! Per round:
//!
//! 1. compute `k_opt` (Theorem 1, cached; or the explicit `k` override)
//!    and the coverage radius `d_c` (Eq. 5) — Algorithm 1 lines 1–2;
//! 2. run the improved-DEEC selection with HELLO redundancy reduction —
//!    lines 5–9 ([`crate::deec_improved`]);
//! 3. route every member packet by the Q-learning `Send-Data` rule —
//!    lines 10–12 ([`crate::qrouting`]);
//! 4. heads forward their fused aggregates directly to the BS and update
//!    their own V values — lines 13–15.

use crate::deec_improved::{select_heads_from_roster, SelectionFeatures, SelectionOutcome};
use crate::fxhash::FxHashMap;
use crate::kopt;
use crate::params::{CandidatePolicy, HeadIndexMode, QlecParams};
use crate::qrouting::{ActionConst, QRouter};
use qlec_geom::{IncrementalKdIndex, UniformGrid, Vec3};
use qlec_net::protocol::{nearest_head, PlanScratch, RoutePlanner};
use qlec_net::{Network, NodeId, Protocol, Target};
use qlec_obs::{Event, ObserverSet, Phase};
use rand::RngCore;

/// QLEC with its feature switchboard (all features on = the paper's
/// algorithm; see [`crate::ablation`] for the toggled variants).
pub struct QlecProtocol {
    params: QlecParams,
    features: SelectionFeatures,
    /// When false, members fall back to nearest-head routing (plain-DEEC
    /// behaviour) instead of the Q-learning rule — the routing ablation.
    q_routing: bool,
    /// Lazily computed per deployment.
    k: Option<usize>,
    grid: Option<UniformGrid>,
    router: Option<QRouter>,
    /// Selection diagnostics of the most recent round.
    pub last_selection: Option<SelectionOutcome>,
    /// Targets that NACKed the packet currently being sent, per source
    /// (cleared by `on_packet_start`; retries avoid them).
    failed_this_packet: FxHashMap<NodeId, Vec<Target>>,
    /// Fraction of a member packet that rides the head's fused BS
    /// transmission (the data-fusion compression ratio, Table 2: 0.5);
    /// scales the head-update transmission cost — see
    /// [`QRouter::head_update`].
    aggregate_share: f64,
    name: String,
    /// Structured-event observer (inert by default). Emits
    /// [`Event::QUpdate`] per V change, [`Event::HeadWithdrawn`] from the
    /// redundancy reduction, and a per-round [`Phase::QRouting`] span.
    obs: ObserverSet,
    /// Round currently in flight (protocol hooks that lack a round
    /// argument stamp their events with it).
    current_round: u32,
    /// Wall time spent in `Send-Data` this round (accumulated across
    /// `choose_target` calls, flushed as one span at the round end).
    qrouting_ns: u64,
    /// Incremental k-nearest index over head positions, maintained per
    /// round by rebuild or roster sync according to
    /// [`QlecParams::head_index`]. Only queried while
    /// `candidates_active`.
    head_index: IncrementalKdIndex,
    /// Whether this round's candidate budget is binding — i.e.
    /// `params.candidates` resolved to a budget smaller than the head
    /// set and `head_index` was brought in line with the roster.
    candidates_active: bool,
    /// The resolved per-packet candidate budget for the current round
    /// (meaningless while `candidates_active` is false).
    candidate_budget: usize,
    /// Which node ids the incremental grid still carries; the per-round
    /// death diff removes the newly dead (incremental mode only).
    alive_mask: Vec<bool>,
    /// Election-phase alive roster: exactly the alive node ids, ascending.
    /// `Incremental` mode maintains it by the same per-round diff that
    /// feeds the grid (deaths retained out, blackout revivals re-merged);
    /// `Rebuild` re-scans every round (the benchmark baseline). Algorithm
    /// 2+3 head selection walks this roster instead of re-scanning all
    /// `N` deployment slots.
    alive_roster: Vec<NodeId>,
    /// Per-node alive flag backing `alive_roster` diffs. Unlike
    /// `alive_mask` (one-way, mirroring the grid's remove-only
    /// maintenance) this tracks revivals too, so the roster always equals
    /// the true alive set.
    roster_alive: Vec<bool>,
    /// Reused scratch for the per-packet k-nearest query (tree window).
    knn_buf: Vec<(u32, f64)>,
    /// Reused scratch holding the pruned candidate head set.
    candidate_buf: Vec<NodeId>,
    /// Per-round cache of the k-nearest head ranking per source node,
    /// used by `choose_target` (merge-time retargets). The ranking
    /// depends only on the source position and `head_index` — both
    /// frozen between `on_round_start` calls — so the first query of a
    /// node this round pays the tree walk and later ones reuse it; the
    /// alive filter stays live, so heads that die mid-round drop out of
    /// the candidate set exactly as a fresh query would drop them.
    retarget_knn: FxHashMap<u32, Vec<(u32, f64)>>,
}

/// Fluent configuration for [`QlecProtocol`] — the one way to assemble a
/// QLEC variant.
///
/// Replaces the former constructor zoo (`paper()`, `paper_with_k()`,
/// `with_features()`, `with_observer()`, `with_aggregate_share()`,
/// `named()` — deprecated for two releases and now removed). Defaults are
/// the paper's Table 2 configuration with every selection feature enabled
/// and Theorem 1's derived `k_opt`:
///
/// ```
/// use qlec_core::QlecProtocol;
/// let protocol = QlecProtocol::builder().k(5).named("qlec-k5").build();
/// ```
#[derive(Clone)]
pub struct QlecBuilder {
    params: QlecParams,
    features: SelectionFeatures,
    q_routing: bool,
    aggregate_share: f64,
    name: String,
    obs: ObserverSet,
}

impl Default for QlecBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl QlecBuilder {
    /// Start from the paper's Table 2 parameters (all features on,
    /// Q-routing on, derived `k_opt`, aggregate share 0.5).
    pub fn new() -> Self {
        QlecBuilder {
            params: QlecParams::paper(),
            features: SelectionFeatures::default(),
            q_routing: true,
            aggregate_share: 0.5,
            name: "qlec".to_string(),
            obs: ObserverSet::new(),
        }
    }

    /// Replace the full parameter set (validated at [`Self::build`]).
    pub fn params(mut self, params: QlecParams) -> Self {
        self.params = params;
        self
    }

    /// Fix the cluster count instead of deriving Theorem 1's `k_opt`
    /// (the Fig. 3 configuration uses the §5.1 `k = 5`).
    pub fn k(mut self, k: usize) -> Self {
        self.params.k_override = Some(k);
        self
    }

    /// Set the planned horizon `R` (drives the Eq. 2/Eq. 4 estimates).
    pub fn total_rounds(mut self, rounds: u32) -> Self {
        self.params.total_rounds = rounds;
        self
    }

    /// Set the `Send-Data` candidate-pruning policy. The default
    /// [`CandidatePolicy::Auto`] derives the per-round budget from
    /// Theorem 1 (full scan for `k ≤ 8`); see [`QlecParams::candidates`].
    pub fn candidates(mut self, policy: CandidatePolicy) -> Self {
        self.params.candidates = policy;
        self
    }

    /// Set the spatial-index maintenance strategy. The default
    /// [`HeadIndexMode::Incremental`] absorbs per-round diffs;
    /// [`HeadIndexMode::Rebuild`] rebuilds from scratch every round (the
    /// benchmark baseline). Results are identical either way.
    pub fn head_index(mut self, mode: HeadIndexMode) -> Self {
        self.params.head_index = mode;
        self
    }

    /// Shorthand for [`Self::candidates`]`(CandidatePolicy::Fixed(c))`:
    /// prune each packet's `Send-Data` scan to the `c` nearest alive
    /// heads regardless of `k`.
    pub fn candidate_heads(mut self, c: usize) -> Self {
        self.params.candidates = CandidatePolicy::Fixed(c);
        self
    }

    /// Override the head-selection feature switchboard (ablations).
    pub fn features(mut self, features: SelectionFeatures) -> Self {
        self.features = features;
        self
    }

    /// Enable or disable the Q-learning `Send-Data` routing rule; when
    /// off, members fall back to nearest-head routing (plain-DEEC
    /// behaviour) — the routing ablation.
    pub fn q_routing(mut self, enabled: bool) -> Self {
        self.q_routing = enabled;
        self
    }

    /// Override the data-fusion share used in the head V update (set it
    /// to the simulator's `compression` when running with a non-default
    /// ratio).
    pub fn aggregate_share(mut self, share: f64) -> Self {
        assert!((0.0..=1.0).contains(&share), "share must be in [0,1]");
        self.aggregate_share = share;
        self
    }

    /// Override the displayed protocol name (ablation labelling).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Attach an observer set. Pass a clone of the set given to
    /// [`qlec_net::SimBuilder::observers`] so protocol-level events (Q
    /// updates, HELLO withdrawals, Q-routing timing) land in the same
    /// sinks as the simulator's.
    pub fn observer(mut self, obs: ObserverSet) -> Self {
        self.obs = obs;
        self
    }

    /// Validate the parameters and assemble the protocol.
    ///
    /// # Panics
    ///
    /// If the parameter set fails [`QlecParams::validate`].
    pub fn build(self) -> QlecProtocol {
        self.params.validate().expect("invalid QlecParams");
        QlecProtocol {
            params: self.params,
            features: self.features,
            q_routing: self.q_routing,
            k: self.params.k_override,
            grid: None,
            router: None,
            last_selection: None,
            failed_this_packet: FxHashMap::default(),
            aggregate_share: self.aggregate_share,
            name: self.name,
            obs: self.obs,
            current_round: 0,
            qrouting_ns: 0,
            head_index: IncrementalKdIndex::new(),
            candidates_active: false,
            candidate_budget: 0,
            alive_mask: Vec::new(),
            alive_roster: Vec::new(),
            roster_alive: Vec::new(),
            knn_buf: Vec::new(),
            candidate_buf: Vec::new(),
            retarget_knn: FxHashMap::default(),
        }
    }
}

impl QlecProtocol {
    /// Start configuring a QLEC variant — see [`QlecBuilder`].
    pub fn builder() -> QlecBuilder {
        QlecBuilder::new()
    }

    /// The paper's QLEC with the given parameters.
    pub fn new(params: QlecParams) -> Self {
        QlecBuilder::new().params(params).build()
    }

    /// In-crate observer attachment (wrappers like
    /// [`crate::multihop::MultiHopQlec`] forward to this without exposing
    /// a public setter).
    pub(crate) fn set_observer(&mut self, obs: ObserverSet) {
        self.obs = obs;
    }

    /// In-crate feature override (see [`Self::set_observer`]).
    pub(crate) fn set_features(&mut self, features: SelectionFeatures, q_routing: bool) {
        self.features = features;
        self.q_routing = q_routing;
    }

    /// In-crate rename (see [`Self::set_observer`]).
    pub(crate) fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The cluster count in use (`None` until the first round when it is
    /// derived from the deployment).
    pub fn k(&self) -> Option<usize> {
        self.k
    }

    /// The Q-router state (populated after the first round).
    pub fn router(&self) -> Option<&QRouter> {
        self.router.as_ref()
    }

    /// Total elementary Q updates so far — the paper's `X`.
    pub fn q_updates(&self) -> u64 {
        self.router.as_ref().map_or(0, |r| r.updates.total())
    }

    fn ensure_initialized(&mut self, net: &Network) {
        if self.k.is_none() {
            // Algorithm 1 line 1: Theorem 1 with d_toBS approximated by
            // the mean node→BS distance.
            let k = kopt::kopt(
                net.len(),
                net.side_length(),
                net.mean_dist_to_bs().max(1e-9),
                &net.radio,
            );
            self.k = Some(k);
        }
        if self.router.is_none() {
            self.router = Some(QRouter::new(net, self.params));
        }
    }

    /// Bring the Algorithm 3 node grid in line with the network at the
    /// top of a round. `Rebuild` pays `O(N)` every round (over every
    /// deployment position, dead or not — matching the grid a fresh
    /// build would produce); `Incremental` builds once and then only
    /// removes the nodes that died since the last round. Queries behave
    /// identically either way: every grid consumer filters dead nodes
    /// out-of-band (`is_elected` / `is_alive`), so whether a dead node's
    /// entry is still present is unobservable. One known exception: a node
    /// revived after a blackout is not re-inserted, so `Incremental` stops
    /// seeing it (see ROADMAP item 5 and the ignored
    /// `rebuild_and_incremental_modes_agree_across_a_blackout_revival`).
    /// Also brings `alive_roster` in line with the network (both modes),
    /// folding the roster diff into the same per-node pass as the grid's
    /// death diff so the round pays one alive scan, not one per consumer.
    fn maintain_grid(&mut self, net: &Network) {
        match self.params.head_index {
            HeadIndexMode::Rebuild => {
                self.grid = Some(UniformGrid::build(net.iter_positions(), 8));
                // Baseline mode: fresh roster scan every round.
                self.alive_roster.clear();
                self.alive_roster.extend(net.alive_ids());
            }
            HeadIndexMode::Incremental => {
                if self.grid.is_none() {
                    self.grid = Some(UniformGrid::build(net.iter_positions(), 8));
                    self.alive_mask = vec![true; net.len()];
                    self.roster_alive = vec![true; net.len()];
                    self.alive_roster = net.ids().collect();
                }
                let grid = self.grid.as_mut().expect("built above");
                let mut deaths = 0usize;
                let mut revivals = 0usize;
                for i in 0..net.len() {
                    let now = net.node(NodeId(i as u32)).is_alive();
                    if self.alive_mask[i] && !now {
                        grid.remove(i as u32);
                        self.alive_mask[i] = false;
                    }
                    if self.roster_alive[i] != now {
                        self.roster_alive[i] = now;
                        if now {
                            revivals += 1;
                        } else {
                            deaths += 1;
                        }
                    }
                }
                // Deaths compact in place; a (rare) blackout revival
                // re-merges by rebuilding from the flags — both keep the
                // roster exactly the ascending alive set.
                if revivals > 0 {
                    self.alive_roster.clear();
                    self.alive_roster.extend(
                        self.roster_alive
                            .iter()
                            .enumerate()
                            .filter(|(_, &a)| a)
                            .map(|(i, _)| NodeId(i as u32)),
                    );
                } else if deaths > 0 {
                    let flags = &self.roster_alive;
                    self.alive_roster.retain(|id| flags[id.0 as usize]);
                }
            }
        }
    }
}

impl Protocol for QlecProtocol {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_round_start(
        &mut self,
        net: &mut Network,
        round: u32,
        rng: &mut dyn RngCore,
    ) -> Vec<NodeId> {
        self.ensure_initialized(net);
        self.current_round = round;
        self.qrouting_ns = 0;
        let k = self.k.expect("initialized above");
        // Index maintenance, part 1: the Algorithm 3 node grid. Timed
        // into the round's IndexMaintenance span (which nests inside the
        // simulator's Election span — this all happens in
        // `on_round_start`).
        let grid_start_ns = self.obs.now_ns();
        self.maintain_grid(net);
        let mut index_ns = self.obs.now_ns().saturating_sub(grid_start_ns);
        let grid = self.grid.as_ref().expect("maintained above");
        let outcome = select_heads_from_roster(
            net,
            grid,
            &self.alive_roster,
            round,
            k,
            &self.params,
            self.features,
            rng,
            &self.obs,
        );
        let heads = outcome.heads.clone();
        self.last_selection = Some(outcome);
        // Index maintenance, part 2: the Send-Data candidate index over
        // this round's heads, for the per-packet c-nearest query. Only
        // worth it (and only *valid* as a pure speedup) when the head set
        // is larger than the candidate budget.
        self.candidates_active = false;
        self.retarget_knn.clear();
        if let Some(c) = self.params.candidates.budget(k) {
            if self.q_routing && heads.len() > c {
                let head_start_ns = self.obs.now_ns();
                let roster: Vec<(u32, Vec3)> =
                    heads.iter().map(|&h| (h.0, net.node(h).pos)).collect();
                match self.params.head_index {
                    HeadIndexMode::Rebuild => self.head_index.rebuild_from(&roster),
                    HeadIndexMode::Incremental => self.head_index.sync(&roster),
                }
                self.candidate_budget = c;
                self.candidates_active = true;
                index_ns += self.obs.now_ns().saturating_sub(head_start_ns);
            }
        }
        if self.obs.is_active() {
            self.obs.emit(Event::PhaseTimed {
                round,
                phase: Phase::IndexMaintenance,
                wall_ns: index_ns,
                sim_time: self.obs.sim_time(),
            });
        }
        // Refresh each head's V at promotion: a node's V from its member
        // days values a different action set; the head's state is "hold
        // the aggregate, forward to the BS", so its V is the line-15
        // Q(h, a_BS) — computed now so members route against current
        // values instead of stale ones.
        if self.q_routing {
            if let Some(router) = self.router.as_mut() {
                let deltas = router.head_update_batch(net, &heads, self.aggregate_share);
                if self.obs.is_active() {
                    for (&h, &delta) in heads.iter().zip(&deltas) {
                        self.obs.emit(Event::QUpdate {
                            round,
                            node: h.0,
                            delta,
                        });
                    }
                }
            }
        }
        heads
    }

    fn on_packet_start(&mut self, src: NodeId) {
        if let Some(failed) = self.failed_this_packet.get_mut(&src) {
            failed.clear();
        }
    }

    fn choose_target(
        &mut self,
        net: &Network,
        src: NodeId,
        heads: &[NodeId],
        _rng: &mut dyn RngCore,
    ) -> Target {
        if self.q_routing {
            let excluded = self
                .failed_this_packet
                .get(&src)
                .map(|v| v.as_slice())
                .unwrap_or(&[]);
            // Pruned candidate set: the c nearest alive heads. The query
            // window is padded so a few mid-round head deaths still leave
            // c alive candidates; an all-dead window falls back to the
            // full list (the router skips dead heads itself).
            let candidates: &[NodeId] = if self.candidates_active {
                let c = self.candidate_budget;
                let knn = self.retarget_knn.entry(src.0).or_insert_with(|| {
                    let window = (c + 8).min(self.head_index.len());
                    let mut ranking = Vec::new();
                    self.head_index.k_nearest_into(
                        net.node(src).pos,
                        window,
                        &mut self.knn_buf,
                        &mut ranking,
                    );
                    ranking
                });
                self.candidate_buf.clear();
                for &(id, _) in knn.iter() {
                    let h = NodeId(id);
                    if net.node(h).is_alive() {
                        self.candidate_buf.push(h);
                        if self.candidate_buf.len() == c {
                            break;
                        }
                    }
                }
                if self.candidate_buf.is_empty() {
                    heads
                } else {
                    &self.candidate_buf
                }
            } else {
                heads
            };
            let start_ns = self.obs.now_ns();
            let router = self
                .router
                .as_mut()
                .expect("router initialized in on_round_start");
            let target = router.send_data_excluding(net, src, candidates, excluded);
            if self.obs.is_active() {
                self.qrouting_ns += self.obs.now_ns().saturating_sub(start_ns);
                self.obs.emit(Event::QUpdate {
                    round: self.current_round,
                    node: src.0,
                    delta: router.last_delta(),
                });
            }
            target
        } else {
            nearest_head(net, src, heads).map_or(Target::Bs, Target::Head)
        }
    }

    fn on_hop_result(&mut self, src: NodeId, target: Target, success: bool) {
        if let Some(router) = self.router.as_mut() {
            router.on_hop_result(src, target, success);
        }
        if !success {
            self.failed_this_packet.entry(src).or_default().push(target);
        }
    }

    fn on_round_end(&mut self, net: &mut Network, round: u32, heads: &[NodeId]) {
        // Algorithm 1 line 15: heads refresh their own V values from the
        // BS-hop Q after data fusion.
        if let Some(router) = self.router.as_mut() {
            let start_ns = self.obs.now_ns();
            let deltas = router.head_update_batch(net, heads, self.aggregate_share);
            if self.obs.is_active() {
                for (&h, &delta) in heads.iter().zip(&deltas) {
                    self.obs.emit(Event::QUpdate {
                        round,
                        node: h.0,
                        delta,
                    });
                }
            }
            router.convergence.end_sweep();
            // Round-end housekeeping: drop link estimates for endpoints
            // that died this round (they are never consulted again, so
            // this cannot change behaviour — only the table's footprint).
            router.prune_dead_links(net);
            if self.obs.is_active() {
                // One span for the round's whole Send-Data workload: the
                // per-packet time accumulated in `choose_target` (or
                // planned and absorbed by the parallel engine) plus the
                // line-15 head refresh above.
                let wall_ns = self.qrouting_ns + self.obs.now_ns().saturating_sub(start_ns);
                self.obs.emit(Event::PhaseTimed {
                    round,
                    phase: Phase::QRouting,
                    wall_ns,
                    sim_time: self.obs.sim_time(),
                });
                self.qrouting_ns = 0;
            }
        }
    }

    fn planner(&self) -> Option<&dyn RoutePlanner> {
        Some(self)
    }

    fn absorb_plan(&mut self, src: NodeId, scratch: PlanScratch) {
        let s = scratch
            .downcast::<QlecPlanScratch>()
            .expect("QlecProtocol scratch");
        if let Some(router) = self.router.as_mut() {
            router.absorb_plan(src, s.v_src, s.updates, &s.deltas);
        }
        self.qrouting_ns += s.ns;
        if self.obs.is_active() {
            for &delta in &s.deltas {
                self.obs.emit(Event::QUpdate {
                    round: self.current_round,
                    node: src.0,
                    delta,
                });
            }
        }
    }
}

/// Per-node planning state for the parallel engine (one per member node
/// per round, created by [`RoutePlanner::begin_node`]).
///
/// `v_src` carries the node's `V*` through its packets' fixed-point
/// iterations; `overlay` layers this node's pending link-EWMA updates
/// over the shared table (the shared table itself is only written at
/// merge time, through the usual `on_hop_result` replay, so cross-node
/// learning lands between rounds regardless of thread count); `deltas`
/// and `updates` are the bookkeeping that [`QlecProtocol::absorb_plan`]
/// commits, and `ns` is the plan-time Send-Data wall clock folded into
/// the round's Q-routing span.
struct QlecPlanScratch {
    v_src: f64,
    /// Pending link-belief updates, keyed by destination (`u32::MAX` =
    /// BS) — all entries share `src`, so the source id is implicit.
    overlay: FxHashMap<u32, f64>,
    /// Targets that NACKed the packet currently being planned.
    nacked: Vec<Target>,
    knn_buf: Vec<(u32, f64)>,
    knn_out: Vec<(u32, f64)>,
    candidate_buf: Vec<NodeId>,
    /// Whether `candidate_buf` already holds this node's pruned set.
    /// Planning sees a frozen network, so the query — and the alive
    /// filter — return the same set for every attempt of every packet of
    /// the node: the first attempt pays the tree walk and the rest reuse
    /// it.
    knn_ready: bool,
    /// Per-action constant buffer for the `Send-Data` kernel.
    action_buf: Vec<ActionConst>,
    /// Signed `V*(src)` change per planned packet, in packet order.
    deltas: Vec<f64>,
    /// Elementary Q computations performed while planning.
    updates: u64,
    ns: u64,
}

fn overlay_key(t: Target) -> u32 {
    match t {
        Target::Bs => u32::MAX,
        Target::Head(h) => h.0,
    }
}

impl RoutePlanner for QlecProtocol {
    fn begin_node(&self, _net: &Network, src: NodeId) -> PlanScratch {
        Box::new(QlecPlanScratch {
            v_src: self.router.as_ref().map_or(0.0, |r| r.v_of(src)),
            overlay: FxHashMap::default(),
            nacked: Vec::new(),
            knn_buf: Vec::new(),
            knn_out: Vec::new(),
            candidate_buf: Vec::new(),
            knn_ready: false,
            action_buf: Vec::new(),
            deltas: Vec::new(),
            updates: 0,
            ns: 0,
        })
    }

    fn begin_packet(&self, _src: NodeId, scratch: &mut PlanScratch) {
        let s = scratch
            .downcast_mut::<QlecPlanScratch>()
            .expect("QlecProtocol scratch");
        s.nacked.clear();
    }

    fn plan_target(
        &self,
        net: &Network,
        src: NodeId,
        heads: &[NodeId],
        _rng: &mut dyn RngCore,
        scratch: &mut PlanScratch,
    ) -> Target {
        if !self.q_routing {
            return nearest_head(net, src, heads).map_or(Target::Bs, Target::Head);
        }
        let s = scratch
            .downcast_mut::<QlecPlanScratch>()
            .expect("QlecProtocol scratch");
        let router = self
            .router
            .as_ref()
            .expect("router initialized in on_round_start");
        let QlecPlanScratch {
            v_src,
            overlay,
            nacked,
            knn_buf,
            knn_out,
            candidate_buf,
            knn_ready,
            action_buf,
            deltas,
            updates,
            ns,
        } = s;
        // Same pruned-candidate query as `choose_target`, on the
        // node-private buffers (the index itself is only read — `&self`
        // planning stays free of interior mutation), computed once per
        // node: the network is frozen while planning.
        let candidates: &[NodeId] = if self.candidates_active {
            if !*knn_ready {
                let c = self.candidate_budget;
                let window = (c + 8).min(self.head_index.len());
                self.head_index
                    .k_nearest_into(net.node(src).pos, window, knn_buf, knn_out);
                candidate_buf.clear();
                for &(id, _) in knn_out.iter() {
                    let h = NodeId(id);
                    if net.node(h).is_alive() {
                        candidate_buf.push(h);
                        if candidate_buf.len() == c {
                            break;
                        }
                    }
                }
                *knn_ready = true;
            }
            if candidate_buf.is_empty() {
                heads
            } else {
                candidate_buf
            }
        } else {
            heads
        };
        let start_ns = self.obs.now_ns();
        let overlay_ref: &FxHashMap<u32, f64> = overlay;
        let p_base = |t: Target| -> f64 {
            match overlay_ref.get(&overlay_key(t)) {
                Some(&p) => p,
                None => router.links().probability(src, t),
            }
        };
        let v_before = *v_src;
        let target = router.send_data_core_cached(
            net, src, candidates, nacked, v_src, &p_base, updates, action_buf,
        );
        deltas.push(*v_src - v_before);
        if self.obs.is_active() {
            *ns += self.obs.now_ns().saturating_sub(start_ns);
        }
        target
    }

    fn plan_hop_result(
        &self,
        src: NodeId,
        target: Target,
        success: bool,
        scratch: &mut PlanScratch,
    ) {
        let s = scratch
            .downcast_mut::<QlecPlanScratch>()
            .expect("QlecProtocol scratch");
        if let Some(router) = self.router.as_ref() {
            let key = overlay_key(target);
            let current = s
                .overlay
                .get(&key)
                .copied()
                .unwrap_or_else(|| router.links().probability(src, target));
            s.overlay
                .insert(key, router.links().updated(current, success));
        }
        if !success {
            s.nacked.push(target);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlec_net::{NetworkBuilder, SimConfig, Simulator};
    use qlec_radio::link::{AnyLink, DistanceLossLink, IdealLink};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn paper_net(seed: u64, link: AnyLink) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        NetworkBuilder::new()
            .link(link)
            .uniform_cube(&mut rng, 100, 200.0, 5.0)
    }

    #[test]
    fn full_run_is_conserved_and_delivers() {
        let net = paper_net(1, AnyLink::Ideal(IdealLink));
        let mut rng = StdRng::seed_from_u64(2);
        let mut p = QlecProtocol::builder().k(5).build();
        let report = Simulator::builder(net)
            .config(SimConfig::paper(5.0))
            .build()
            .run(&mut p, &mut rng);
        assert!(report.totals.is_conserved());
        assert!(report.pdr() > 0.9, "QLEC idle PDR {}", report.pdr());
        assert_eq!(report.protocol, "qlec");
        assert!(p.q_updates() > 0);
    }

    #[test]
    fn kopt_is_derived_when_not_overridden() {
        let net = paper_net(3, AnyLink::Ideal(IdealLink));
        let mut rng = StdRng::seed_from_u64(4);
        let mut p = QlecProtocol::builder().build();
        assert_eq!(p.k(), None);
        let mut cfg = SimConfig::paper(5.0);
        cfg.rounds = 1;
        let _ = Simulator::builder(net)
            .config(cfg)
            .build()
            .run(&mut p, &mut rng);
        let k = p.k().expect("k computed on first round");
        // Centre-BS Theorem 1 value for N=100, M=200 (see kopt.rs note).
        assert!((8..=14).contains(&k), "derived k_opt = {k}");
    }

    #[test]
    fn head_counts_stay_near_k() {
        let net = paper_net(5, AnyLink::Ideal(IdealLink));
        let mut rng = StdRng::seed_from_u64(6);
        let mut p = QlecProtocol::builder().k(5).build();
        let report = Simulator::builder(net)
            .config(SimConfig::paper(5.0))
            .build()
            .run(&mut p, &mut rng);
        let mean = report.mean_head_count();
        assert!((4.0..=6.0).contains(&mean), "mean head count {mean}");
    }

    #[test]
    fn members_avoid_direct_bs_when_heads_exist() {
        let net = paper_net(7, AnyLink::Ideal(IdealLink));
        let mut rng = StdRng::seed_from_u64(8);
        let mut p = QlecProtocol::builder().k(5).build();
        let mut cfg = SimConfig::paper(5.0);
        cfg.rounds = 5;
        let report = Simulator::builder(net)
            .config(cfg)
            .build()
            .run(&mut p, &mut rng);
        // Direct-to-BS member hops would show up as delivered packets with
        // sub-slot latency; with ideal links and the l penalty every
        // member packet should go through a head. We check the lifespan
        // counters indirectly: no dropped_dead, conserved, high PDR.
        assert!(report.pdr() > 0.9);
    }

    #[test]
    fn q_routing_beats_nearest_head_under_congestion() {
        // The Fig. 3(a) mechanism in miniature: under congestion, the
        // nearest-head rule pins each member to one queue, so big
        // clusters overflow while small ones idle; the ACK-driven router
        // senses queue refusals (P̂ drops) and redistributes load.
        let run = |q_routing: bool, seed: u64| {
            let net = paper_net(9, AnyLink::Ideal(IdealLink));
            let mut rng = StdRng::seed_from_u64(seed);
            let mut p = QlecProtocol::builder().k(5).q_routing(q_routing).build();
            let mut cfg = SimConfig::paper(2.0); // congested
            cfg.rounds = 10;
            Simulator::builder(net)
                .config(cfg)
                .build()
                .run(&mut p, &mut rng)
                .pdr()
        };
        // Average over seeds to damp randomized-election noise.
        let seeds = [10u64, 11, 12];
        let with_q: f64 = seeds.iter().map(|&s| run(true, s)).sum::<f64>() / seeds.len() as f64;
        let without: f64 = seeds.iter().map(|&s| run(false, s)).sum::<f64>() / seeds.len() as f64;
        assert!(
            with_q > without,
            "Q-routing congested PDR {with_q} should beat nearest-head {without}"
        );
    }

    #[test]
    fn q_routing_matches_nearest_head_on_lossy_links() {
        // With distance-monotone link loss, nearest-head is already
        // reliability-optimal; the learned router must not do materially
        // worse while it spends packets learning the link map. Uses the
        // experiments' own link model (reliable below ~150 m): under
        // much harsher loss the ACK signal conflates congestion with
        // radio loss and the comparison is not meaningful.
        let link = AnyLink::DistanceLoss(DistanceLossLink::for_cube(200.0));
        let run = |q_routing: bool, seed: u64| {
            let net = paper_net(9, link);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut p = QlecProtocol::builder().k(5).q_routing(q_routing).build();
            let mut cfg = SimConfig::paper(4.0);
            cfg.rounds = 10;
            Simulator::builder(net)
                .config(cfg)
                .build()
                .run(&mut p, &mut rng)
                .pdr()
        };
        let seeds = [10u64, 11, 12];
        let with_q: f64 = seeds.iter().map(|&s| run(true, s)).sum::<f64>() / seeds.len() as f64;
        let without: f64 = seeds.iter().map(|&s| run(false, s)).sum::<f64>() / seeds.len() as f64;
        assert!(
            with_q >= without - 0.05,
            "Q-routing PDR {with_q} trails nearest-head {without} by too much"
        );
    }

    #[test]
    fn candidate_pruning_off_or_inert_is_identical() {
        // The knob defaults off; a budget the head set never exceeds must
        // also leave every code path untouched. Identical RNG streams ⇒
        // identical reports.
        let run = |c: Option<usize>| {
            let net = paper_net(21, AnyLink::Ideal(IdealLink));
            let mut rng = StdRng::seed_from_u64(22);
            let mut b = QlecProtocol::builder().k(5);
            if let Some(c) = c {
                b = b.candidate_heads(c);
            }
            let mut p = b.build();
            let mut cfg = SimConfig::paper(5.0);
            cfg.rounds = 10;
            Simulator::builder(net)
                .config(cfg)
                .build()
                .run(&mut p, &mut rng)
        };
        let off = run(None);
        let inert = run(Some(50)); // ≥ any head count at k = 5
        assert_eq!(off.consumption_rates, inert.consumption_rates);
        assert_eq!(off.pdr(), inert.pdr());
        assert_eq!(off.mean_head_count(), inert.mean_head_count());
    }

    #[test]
    fn candidate_pruning_small_c_stays_equivalent() {
        // Aggressive pruning (c = 2 of k = 5 heads) must preserve the
        // protocol's character: conserved energy, near-full idle PDR, and
        // an unchanged head-selection trajectory (selection never looks at
        // the knob).
        let run = |prune: bool| {
            let net = paper_net(23, AnyLink::Ideal(IdealLink));
            let mut rng = StdRng::seed_from_u64(24);
            let mut b = QlecProtocol::builder().k(5);
            if prune {
                b = b.candidate_heads(2);
            }
            let mut p = b.build();
            Simulator::builder(net)
                .config(SimConfig::paper(5.0))
                .build()
                .run(&mut p, &mut rng)
        };
        let full = run(false);
        let pruned = run(true);
        assert!(pruned.totals.is_conserved());
        assert!(pruned.pdr() > 0.9, "pruned idle PDR {}", pruned.pdr());
        assert_eq!(full.mean_head_count(), pruned.mean_head_count());
        assert!(
            (full.pdr() - pruned.pdr()).abs() < 0.05,
            "pruned PDR {} vs full {}",
            pruned.pdr(),
            full.pdr()
        );
    }

    #[test]
    fn link_table_is_pruned_over_a_lifespan_run() {
        // Run a deployment to total meltdown: every endpoint eventually
        // dies, so the round-end pruning must leave the link table empty.
        // Before this PR the table kept one entry per directed link ever
        // used — the regression this guards against.
        let mut rng = StdRng::seed_from_u64(25);
        let net = NetworkBuilder::new()
            .link(AnyLink::Ideal(IdealLink))
            .uniform_cube(&mut rng, 60, 200.0, 0.05);
        let mut p = QlecProtocol::builder().k(5).build();
        let mut cfg = SimConfig::paper(5.0);
        cfg.rounds = 400;
        let report = Simulator::builder(net)
            .config(cfg)
            .build()
            .run(&mut p, &mut rng);
        assert_eq!(
            report.rounds.last().expect("ran").alive_end,
            0,
            "premise: the network melts down"
        );
        assert!(p.q_updates() > 0, "premise: links were exercised");
        let tracked = p.router().expect("router ran").links().links_tracked();
        assert_eq!(tracked, 0, "{tracked} link entries leaked past death");
    }

    #[test]
    fn rotation_spreads_head_duty() {
        let net = paper_net(15, AnyLink::Ideal(IdealLink));
        let mut rng = StdRng::seed_from_u64(16);
        let mut p = QlecProtocol::builder().k(5).build();
        let mut cfg = SimConfig::paper(5.0);
        cfg.rounds = 20;
        let sim = Simulator::builder(net).config(cfg);
        let _ = sim; // run consumes; rebuild to inspect final network
        let net = paper_net(15, AnyLink::Ideal(IdealLink));
        let sim = Simulator::builder(net).config(cfg);
        let report = sim.build().run(&mut p, &mut rng);
        // ~5 heads × 20 rounds = ~100 head-slots across 100 nodes: the
        // rotation should touch a sizable fraction of the network.
        let served = report
            .consumption_rates
            .iter()
            .filter(|&&r| r > 0.0)
            .count();
        assert!(served > 50, "only {served} nodes consumed energy");
    }

    #[test]
    fn survives_heavily_drained_network() {
        let mut net = paper_net(17, AnyLink::Ideal(IdealLink));
        for i in 0..95u32 {
            net.node_mut(NodeId(i)).battery.consume(4.99);
        }
        let mut rng = StdRng::seed_from_u64(18);
        let mut p = QlecProtocol::builder().k(5).build();
        let mut cfg = SimConfig::paper(5.0);
        cfg.rounds = 10;
        let report = Simulator::builder(net)
            .config(cfg)
            .build()
            .run(&mut p, &mut rng);
        assert!(report.totals.is_conserved());
    }

    #[test]
    fn rebuild_and_incremental_modes_agree() {
        // The two index-maintenance strategies are different *engines*
        // for the same queries: identical RNG streams must give
        // identical reports, including with a binding candidate budget
        // (k = 12 > budget 3 forces the head index into use) and enough
        // rounds for deaths to exercise the grid's incremental removal.
        use crate::params::HeadIndexMode;
        let run = |mode: HeadIndexMode| {
            let net = paper_net(31, AnyLink::Ideal(IdealLink));
            let mut rng = StdRng::seed_from_u64(32);
            let mut p = QlecProtocol::builder()
                .k(12)
                .candidate_heads(3)
                .head_index(mode)
                .build();
            let mut cfg = SimConfig::paper(5.0);
            cfg.rounds = 30;
            Simulator::builder(net)
                .config(cfg)
                .build()
                .run(&mut p, &mut rng)
        };
        let rebuild = run(HeadIndexMode::Rebuild);
        let incremental = run(HeadIndexMode::Incremental);
        assert_eq!(rebuild.consumption_rates, incremental.consumption_rates);
        assert_eq!(rebuild.pdr(), incremental.pdr());
        assert_eq!(rebuild.mean_head_count(), incremental.mean_head_count());
        assert_eq!(
            rebuild.rounds.last().map(|r| r.alive_end),
            incremental.rounds.last().map(|r| r.alive_end)
        );
    }

    #[test]
    #[ignore = "known divergence, see ROADMAP item 5"]
    fn rebuild_and_incremental_modes_agree_across_a_blackout_revival() {
        // A region blackout takes its nodes offline for rounds 2–4 and
        // revives them at round 5. The incremental node grid removes a
        // node when it goes dark but never re-inserts it on revival, so
        // from round 5 on revived nodes miss HELLO reception (and count
        // for nothing in Algorithm 3) while the rebuilt grid sees them.
        // The two reports must be byte-identical once that is fixed.
        use crate::params::HeadIndexMode;
        use qlec_geom::Aabb;
        use qlec_net::{FaultDriver, FaultEvent, FaultPlan};
        let run = |mode: HeadIndexMode| {
            let plan = FaultPlan::named(
                "revival",
                vec![FaultEvent::RegionBlackout {
                    from_round: 2,
                    to_round: 4,
                    region: Aabb::new(Vec3::ZERO, Vec3::splat(120.0)),
                }],
            );
            let net = paper_net(51, AnyLink::Ideal(IdealLink));
            let mut rng = StdRng::seed_from_u64(52);
            let mut p = QlecProtocol::builder().k(5).head_index(mode).build();
            let mut cfg = SimConfig::paper(5.0);
            cfg.rounds = 10;
            let report = Simulator::builder(net)
                .config(cfg)
                .faults(FaultDriver::new(plan).expect("valid plan"))
                .build()
                .run(&mut p, &mut rng);
            serde_json::to_string(&report).expect("report serializes")
        };
        assert_eq!(run(HeadIndexMode::Rebuild), run(HeadIndexMode::Incremental));
    }

    #[test]
    fn named_variant_reports_custom_name() {
        let p = QlecProtocol::builder().k(5).named("qlec-ablated").build();
        assert_eq!(p.name(), "qlec-ablated");
    }
}
