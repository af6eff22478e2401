//! The merge walk's clean/residue classification vs the sequential
//! oracle run.
//!
//! Every thread count commits a round through the same ordered merge
//! walk, which also classifies member packets: clean up to the round's
//! frontier (the first terminal head hop refused with retry budget
//! left), residue from that packet on. With threads > 1 the round
//! engine reports the classification. These tests drive it over
//! randomized deployments, congestion levels, and fault plans (node
//! crashes plus deep battery drains that kill elected heads mid-round),
//! then byte-diff the deterministic event streams and reports across
//! thread counts and check the classification was reported and that
//! mid-round head deaths show up in the residue.

use proptest::prelude::*;
use qlec::core::QlecProtocol;
use qlec::net::{FaultDriver, FaultEvent, FaultPlan, NetworkBuilder, SimConfig, Simulator};
use qlec::obs::{JsonLinesSink, ObserverSet, PhaseProfiler};
use qlec::radio::link::{AnyLink, DistanceLossLink};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// A `Write` target the test can read back after the `ObserverSet`
/// clones holding the sink are gone.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One observed run: the deterministic JSON-lines event stream, the
/// serialized report (minus the resolved `threads` field, the one
/// value that legitimately tracks the knob under test), and the
/// profiler whose merge counters the caller may inspect.
#[allow(clippy::too_many_arguments)]
fn run_once(
    seed: u64,
    n: usize,
    k: usize,
    rounds: u32,
    lambda: f64,
    battery_j: f64,
    threads: usize,
    faults: Option<&FaultPlan>,
) -> (String, String, Arc<PhaseProfiler>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = NetworkBuilder::new()
        .link(AnyLink::DistanceLoss(DistanceLossLink::for_cube(200.0)))
        .uniform_cube(&mut rng, n, 200.0, battery_j);
    let buf = SharedBuf::default();
    let sink = JsonLinesSink::new(buf.clone())
        .expect("in-memory sink")
        .deterministic();
    let profiler = Arc::new(PhaseProfiler::new());
    let mut obs = ObserverSet::new().with_profiler(profiler.clone());
    obs.attach(Arc::new(Mutex::new(sink)));
    let mut cfg = SimConfig::paper(lambda);
    cfg.rounds = rounds;
    cfg.threads = threads;
    let mut protocol = QlecProtocol::builder()
        .k(k)
        .total_rounds(rounds)
        .observer(obs.clone())
        .build();
    let mut sim = Simulator::builder(net).config(cfg).observers(obs.clone());
    if let Some(plan) = faults {
        sim = sim.faults(FaultDriver::new(plan.clone()).expect("plan validates"));
    }
    let report = sim.build().run(&mut protocol, &mut rng);
    obs.flush().expect("sink flush");
    let stream = String::from_utf8(buf.0.lock().unwrap().clone()).expect("utf8 stream");
    let mut value = serde_json::to_value(&report).expect("report serializes");
    if let serde::Value::Object(fields) = &mut value {
        fields.retain(|(k, _)| k != "threads");
    }
    let report_json = serde_json::to_string(&value).expect("report serializes");
    (stream, report_json, profiler)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The threads=2 run, which reports the merge classification, has
    /// a stream and report byte-identical to the threads=1 oracle run —
    /// under randomized deployments, congestion, node crashes, and
    /// battery drains deep enough to leave elected heads dying
    /// mid-round — and classifies at least one packet.
    #[test]
    fn clean_packets_match_the_sequential_oracle(
        seed in 0u64..64,
        n in 40usize..90,
        k in 3usize..6,
        rounds in 3u32..6,
        congested in any::<bool>(),
        crash_a in 0u32..40,
        crash_b in 0u32..40,
        crash_round in 1u32..3,
        drain_base in 0u32..30,
        drain_round in 1u32..3,
        drain_joules in 4.5f64..4.999,
    ) {
        let lambda = if congested { 5.0 } else { 1.0 };
        // Two crashes plus three deep drains: drained nodes keep only
        // a sliver of their 5 J battery, so when one wins election its
        // rx drain kills it mid-round — the dead-head residue class.
        let plan = FaultPlan::named(
            "reservation-oracle",
            vec![
                FaultEvent::NodeCrash { round: crash_round, node: crash_a },
                FaultEvent::NodeCrash { round: crash_round + 1, node: crash_b },
                FaultEvent::BatteryDrain { round: drain_round, node: drain_base, joules: drain_joules },
                FaultEvent::BatteryDrain { round: drain_round, node: drain_base + 1, joules: drain_joules },
                FaultEvent::BatteryDrain { round: drain_round + 1, node: drain_base + 2, joules: drain_joules },
            ],
        );
        let (base_stream, base_report, _) =
            run_once(seed, n, k, rounds, lambda, 5.0, 1, Some(&plan));
        prop_assert!(
            base_stream.lines().count() > 50,
            "oracle stream must carry real traffic"
        );
        let (stream, report, profiler) =
            run_once(seed, n, k, rounds, lambda, 5.0, 2, Some(&plan));
        prop_assert!(stream == base_stream, "event stream diverged at threads = 2");
        prop_assert_eq!(report, base_report);
        // The classification was reported for this workload.
        let profile = profiler.report();
        let clean = profile.counter("merge.clean_commits").unwrap_or(0);
        let residue = profile.counter("merge.residue").unwrap_or(0);
        prop_assert!(
            clean + residue > 0,
            "threads = 2 must classify packets (clean = {clean}, residue = {residue})"
        );
    }
}

/// A fault plan that drains every node to a sliver must produce
/// mid-round head deaths — packets planned against a head that is gone
/// by reception time — which retarget live and so leave residue, still
/// byte-identical to the sequential oracle.
#[test]
fn mid_round_head_kills_take_the_dead_head_path() {
    // 1 J batteries, drained to ~30 mJ minus round-1 spend at round 2:
    // a head elected after the drain can pay for only a few hundred
    // receptions (rx = 0.1 mJ) plus its own forwarding before dying
    // mid-round, while λ = 5 traffic from ~15 members offers it more.
    let drains = (0..60)
        .map(|node| FaultEvent::BatteryDrain {
            round: 2,
            node,
            joules: 0.97,
        })
        .collect();
    let plan = FaultPlan::named("drain-everyone", drains);
    let (base_stream, base_report, _) = run_once(11, 60, 4, 4, 5.0, 1.0, 1, Some(&plan));
    let (stream, report, profiler) = run_once(11, 60, 4, 4, 5.0, 1.0, 2, Some(&plan));
    assert!(
        stream == base_stream,
        "event stream diverged at threads = 2"
    );
    assert_eq!(report, base_report, "report diverged at threads = 2");
    let profile = profiler.report();
    let dead = profile.counter("merge.conflict_dead_head").unwrap_or(0);
    assert!(
        dead > 0,
        "the drain plan must produce mid-round head deaths (counters: {:?})",
        profile.counters
    );
    let residue = profile.counter("merge.residue").unwrap_or(0);
    assert!(residue > 0, "dead-head conflicts imply residue packets");
}
