//! The clustering-protocol interface, plus simple reference protocols.
//!
//! QLEC (in `qlec-core`) and every baseline (in `qlec-clustering`)
//! implement [`Protocol`]; the round engine in [`crate::sim`] drives any of
//! them identically, so measured differences are attributable to the
//! algorithms alone. The hooks mirror the paper's structure:
//!
//! * [`Protocol::on_round_start`] — the *Cluster Head Selection Phase*
//!   (Algorithm 1 lines 5–9). The protocol receives `&mut Network` so it
//!   can charge control-message energy (HELLO broadcasts of Algorithm 3)
//!   and must install roles/rotation bookkeeping itself (helpers below).
//! * [`Protocol::choose_target`] — the per-packet decision of the *Data
//!   Transmission Phase* (`Send-Data`, Algorithm 4).
//! * [`Protocol::on_hop_result`] — the ACK feedback of §4.2 ("an ACK
//!   message will be delivered … indicating that the packet … is
//!   successfully received and processed"), from which QLEC estimates the
//!   link probabilities.
//! * [`Protocol::aggregate_route`] — how a head's fused data reaches the
//!   BS (direct for QLEC/k-means; hierarchy multi-hop for the FCM
//!   baseline).
//! * [`Protocol::on_round_end`] — Algorithm 1 line 15 (heads update their
//!   own V values) and any other per-round bookkeeping.

use crate::network::Network;
use crate::node::NodeId;
use crate::packet::Target;
use rand::RngCore;

/// Opaque per-node planning state produced by [`RoutePlanner::begin_node`]
/// and handed back to [`Protocol::absorb_plan`] once the round's
/// transmissions are merged. `Send` so node plans can be computed on
/// worker threads.
pub type PlanScratch = Box<dyn std::any::Any + Send>;

/// Immutable, thread-safe routing front-end for the parallel round engine.
///
/// A protocol that can decide per-packet targets from shared state (plus a
/// private per-node scratch) exposes one of these via
/// [`Protocol::planner`]; the engine then plans every member node's
/// packets independently — in node-id order sequentially, or fanned out
/// across threads — and commits the per-node results back through
/// [`Protocol::absorb_plan`] in stable node-id order. Because each node's
/// plan reads only the frozen post-election network, the shared `&self`
/// state, and its own scratch, the outcome is identical at every thread
/// count.
///
/// Within the planning pass the protocol's mutable state is *not*
/// consulted or updated: learning feedback reaches the real protocol via
/// the usual [`Protocol::on_hop_result`] replay during the sequential
/// merge, and per-node learned state (e.g. value updates) is committed in
/// `absorb_plan`.
pub trait RoutePlanner: Sync {
    /// Create the private scratch for planning `src`'s packets this round.
    fn begin_node(&self, net: &Network, src: NodeId) -> PlanScratch;

    /// A fresh packet from `src` is about to be planned (reset per-packet
    /// scratch state such as the NACK list).
    fn begin_packet(&self, src: NodeId, scratch: &mut PlanScratch);

    /// Plan the routing decision for one attempt of `src`'s current
    /// packet — the immutable counterpart of [`Protocol::choose_target`].
    /// `rng` is the node's private decision stream.
    fn plan_target(
        &self,
        net: &Network,
        src: NodeId,
        heads: &[NodeId],
        rng: &mut dyn RngCore,
        scratch: &mut PlanScratch,
    ) -> Target;

    /// Radio-level outcome of the planned attempt (queue verdicts are
    /// only known at merge time and reach the protocol through
    /// [`Protocol::on_hop_result`] instead).
    fn plan_hop_result(
        &self,
        src: NodeId,
        target: Target,
        success: bool,
        scratch: &mut PlanScratch,
    );
}

/// A clustering/routing protocol under test.
pub trait Protocol {
    /// Human-readable name used in reports and experiment tables.
    fn name(&self) -> &str;

    /// Cluster-head selection for `round`. Returns the ids of the heads
    /// that will serve; must also promote them in the network (see
    /// [`install_heads`]). An empty return means no clustering this round
    /// (members will be asked to route anyway and should pick
    /// [`Target::Bs`]).
    fn on_round_start(
        &mut self,
        net: &mut Network,
        round: u32,
        rng: &mut dyn RngCore,
    ) -> Vec<NodeId>;

    /// Called once when member `src` starts trying to send a fresh packet
    /// (before the first `choose_target` for it). Lets learning protocols
    /// reset per-packet state such as the set of targets already NACKed
    /// for this packet.
    fn on_packet_start(&mut self, src: NodeId) {
        let _ = src;
    }

    /// Routing decision for one packet originated by member `src`.
    fn choose_target(
        &mut self,
        net: &Network,
        src: NodeId,
        heads: &[NodeId],
        rng: &mut dyn RngCore,
    ) -> Target;

    /// ACK feedback for the member-hop attempt (`success == false` covers
    /// link loss, queue refusal, and deadline misses — the paper's ACK
    /// semantics is "received *and processed*").
    fn on_hop_result(&mut self, src: NodeId, target: Target, success: bool) {
        let _ = (src, target, success);
    }

    /// Hop sequence for `head`'s fused aggregate. The last element must be
    /// [`Target::Bs`]; intermediate [`Target::Head`] entries are relay
    /// heads (the FCM baseline's hierarchy routing). Default: direct.
    fn aggregate_route(&mut self, net: &Network, head: NodeId, heads: &[NodeId]) -> Vec<Target> {
        let _ = (net, head, heads);
        vec![Target::Bs]
    }

    /// End-of-round hook (after aggregates are sent).
    fn on_round_end(&mut self, net: &mut Network, round: u32, heads: &[NodeId]) {
        let _ = (net, round, heads);
    }

    /// The protocol's immutable planning front-end, if it has one. `None`
    /// (the default) makes the engine fall back to sequential per-node
    /// [`Protocol::choose_target`] calls — still deterministic at every
    /// thread count, just never fanned out.
    fn planner(&self) -> Option<&dyn RoutePlanner> {
        None
    }

    /// Commit the per-node scratch produced through [`Protocol::planner`]
    /// this round. Called once per planned member node, in ascending
    /// node-id order, after the transmission merge.
    fn absorb_plan(&mut self, src: NodeId, scratch: PlanScratch) {
        let _ = (src, scratch);
    }

    /// The engine's resolved worker-thread count for this run (called once
    /// before the first round). Informational only: a run's bytes are the
    /// same at every thread count, so a protocol must not let this value
    /// choose what it computes. No built-in protocol overrides it;
    /// wrappers forward it so instrumentation can record it.
    fn configure_threads(&mut self, threads: usize) {
        let _ = threads;
    }
}

/// Boxed protocols are protocols (lets `Box<dyn Protocol>` flow through
/// generic wrappers like `TraceRecorder`).
impl<P: Protocol + ?Sized> Protocol for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn on_round_start(
        &mut self,
        net: &mut Network,
        round: u32,
        rng: &mut dyn RngCore,
    ) -> Vec<NodeId> {
        (**self).on_round_start(net, round, rng)
    }

    fn on_packet_start(&mut self, src: NodeId) {
        (**self).on_packet_start(src)
    }

    fn choose_target(
        &mut self,
        net: &Network,
        src: NodeId,
        heads: &[NodeId],
        rng: &mut dyn RngCore,
    ) -> Target {
        (**self).choose_target(net, src, heads, rng)
    }

    fn on_hop_result(&mut self, src: NodeId, target: Target, success: bool) {
        (**self).on_hop_result(src, target, success)
    }

    fn aggregate_route(&mut self, net: &Network, head: NodeId, heads: &[NodeId]) -> Vec<Target> {
        (**self).aggregate_route(net, head, heads)
    }

    fn on_round_end(&mut self, net: &mut Network, round: u32, heads: &[NodeId]) {
        (**self).on_round_end(net, round, heads)
    }

    fn planner(&self) -> Option<&dyn RoutePlanner> {
        (**self).planner()
    }

    fn absorb_plan(&mut self, src: NodeId, scratch: PlanScratch) {
        (**self).absorb_plan(src, scratch)
    }

    fn configure_threads(&mut self, threads: usize) {
        (**self).configure_threads(threads)
    }
}

/// Promote `heads` in the network for `round` (role + rotation
/// bookkeeping). Call from `on_round_start` implementations.
pub fn install_heads(net: &mut Network, round: u32, heads: &[NodeId]) {
    for &h in heads {
        net.node_mut(h).promote_to_head(round);
    }
}

/// Members pick the geometrically nearest alive head; heads are the `k`
/// alive nodes with the highest residual energy (ties to lower id). A
/// deterministic, energy-greedy reference protocol used by the engine's
/// own tests and as an extra comparison point.
#[derive(Debug, Clone)]
pub struct GreedyEnergyProtocol {
    /// Number of heads to elect.
    pub k: usize,
}

impl GreedyEnergyProtocol {
    /// Create with the given head count.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "head count must be positive");
        GreedyEnergyProtocol { k }
    }
}

impl Protocol for GreedyEnergyProtocol {
    fn name(&self) -> &str {
        "greedy-energy"
    }

    fn on_round_start(
        &mut self,
        net: &mut Network,
        round: u32,
        _rng: &mut dyn RngCore,
    ) -> Vec<NodeId> {
        let mut alive: Vec<NodeId> = net.alive_ids().collect();
        alive.sort_by(|&a, &b| {
            net.node(b)
                .residual()
                .total_cmp(&net.node(a).residual())
                .then(a.cmp(&b))
        });
        alive.truncate(self.k);
        install_heads(net, round, &alive);
        alive
    }

    fn choose_target(
        &mut self,
        net: &Network,
        src: NodeId,
        heads: &[NodeId],
        _rng: &mut dyn RngCore,
    ) -> Target {
        nearest_head(net, src, heads).map_or(Target::Bs, Target::Head)
    }

    fn planner(&self) -> Option<&dyn RoutePlanner> {
        Some(self)
    }
}

/// Nearest-head routing is a pure function of the frozen network, so the
/// planner needs no scratch at all.
impl RoutePlanner for GreedyEnergyProtocol {
    fn begin_node(&self, _net: &Network, _src: NodeId) -> PlanScratch {
        Box::new(())
    }

    fn begin_packet(&self, _src: NodeId, _scratch: &mut PlanScratch) {}

    fn plan_target(
        &self,
        net: &Network,
        src: NodeId,
        heads: &[NodeId],
        _rng: &mut dyn RngCore,
        _scratch: &mut PlanScratch,
    ) -> Target {
        nearest_head(net, src, heads).map_or(Target::Bs, Target::Head)
    }

    fn plan_hop_result(
        &self,
        _src: NodeId,
        _target: Target,
        _success: bool,
        _scratch: &mut PlanScratch,
    ) {
    }
}

/// Every node transmits straight to the base station — the no-clustering
/// strawman that clustering protocols are supposed to beat.
#[derive(Debug, Clone, Default)]
pub struct DirectToBsProtocol;

impl Protocol for DirectToBsProtocol {
    fn name(&self) -> &str {
        "direct-to-bs"
    }

    fn on_round_start(
        &mut self,
        _net: &mut Network,
        _round: u32,
        _rng: &mut dyn RngCore,
    ) -> Vec<NodeId> {
        Vec::new()
    }

    fn choose_target(
        &mut self,
        _net: &Network,
        _src: NodeId,
        _heads: &[NodeId],
        _rng: &mut dyn RngCore,
    ) -> Target {
        Target::Bs
    }

    fn planner(&self) -> Option<&dyn RoutePlanner> {
        Some(self)
    }
}

impl RoutePlanner for DirectToBsProtocol {
    fn begin_node(&self, _net: &Network, _src: NodeId) -> PlanScratch {
        Box::new(())
    }

    fn begin_packet(&self, _src: NodeId, _scratch: &mut PlanScratch) {}

    fn plan_target(
        &self,
        _net: &Network,
        _src: NodeId,
        _heads: &[NodeId],
        _rng: &mut dyn RngCore,
        _scratch: &mut PlanScratch,
    ) -> Target {
        Target::Bs
    }

    fn plan_hop_result(
        &self,
        _src: NodeId,
        _target: Target,
        _success: bool,
        _scratch: &mut PlanScratch,
    ) {
    }
}

/// The geometrically nearest *alive* head to `src`, if any.
pub fn nearest_head(net: &Network, src: NodeId, heads: &[NodeId]) -> Option<NodeId> {
    heads
        .iter()
        .copied()
        .filter(|&h| net.node(h).is_alive())
        .min_by(|&a, &b| {
            net.distance(src, a)
                .total_cmp(&net.distance(src, b))
                .then(a.cmp(&b))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkBuilder;
    use crate::node::Role;
    use qlec_geom::Vec3;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn line_network() -> Network {
        // Nodes at x = 0, 10, 20, 30 with distinct energies.
        let spec: Vec<(Vec3, f64)> = (0..4)
            .map(|i| (Vec3::new(i as f64 * 10.0, 0.0, 0.0), 1.0 + i as f64))
            .collect();
        NetworkBuilder::new().from_nodes(&spec)
    }

    #[test]
    fn greedy_energy_picks_highest_residual() {
        let mut net = line_network();
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = GreedyEnergyProtocol::new(2);
        let heads = p.on_round_start(&mut net, 0, &mut rng);
        // Energies are 1,2,3,4 → heads are nodes 3 and 2.
        assert_eq!(heads, vec![NodeId(3), NodeId(2)]);
        assert_eq!(net.node(NodeId(3)).role, Role::ClusterHead);
        assert_eq!(net.node(NodeId(3)).last_head_round, Some(0));
    }

    #[test]
    fn greedy_energy_skips_dead_nodes() {
        let mut net = line_network();
        net.node_mut(NodeId(3)).battery.consume(10.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = GreedyEnergyProtocol::new(2);
        let heads = p.on_round_start(&mut net, 0, &mut rng);
        assert_eq!(heads, vec![NodeId(2), NodeId(1)]);
    }

    #[test]
    fn members_choose_nearest_head() {
        let net = line_network();
        let heads = [NodeId(0), NodeId(3)];
        assert_eq!(nearest_head(&net, NodeId(1), &heads), Some(NodeId(0)));
        assert_eq!(nearest_head(&net, NodeId(2), &heads), Some(NodeId(3)));
        assert_eq!(nearest_head(&net, NodeId(1), &[]), None);
    }

    #[test]
    fn nearest_head_ignores_dead_heads() {
        let mut net = line_network();
        net.node_mut(NodeId(0)).battery.consume(10.0);
        let heads = [NodeId(0), NodeId(3)];
        assert_eq!(nearest_head(&net, NodeId(1), &heads), Some(NodeId(3)));
    }

    #[test]
    fn direct_protocol_never_clusters() {
        let mut net = line_network();
        let mut rng = StdRng::seed_from_u64(2);
        let mut p = DirectToBsProtocol;
        assert!(p.on_round_start(&mut net, 0, &mut rng).is_empty());
        assert_eq!(p.choose_target(&net, NodeId(1), &[], &mut rng), Target::Bs);
    }

    #[test]
    fn default_aggregate_route_is_direct() {
        let net = line_network();
        let mut p = GreedyEnergyProtocol::new(1);
        assert_eq!(
            p.aggregate_route(&net, NodeId(0), &[NodeId(0)]),
            vec![Target::Bs]
        );
    }
}
