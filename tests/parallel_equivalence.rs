//! The parallel round engine's core guarantee: `SimConfig::threads` is a
//! pure throughput knob. Traffic generation and member routing draw from
//! per-(seed, round, node) RNG streams and merge in a fixed global
//! order, so every thread count — including the rayon fan-out path —
//! must produce *byte-identical* deterministic event streams and
//! reports. These tests lock that in for the planner path (QLEC), the
//! `choose_target` fallback path (a trace-wrapped protocol), and both
//! paper scale (N = 100) and the pruned large-N configuration
//! (N = 1000, auto candidate pruning active).

use qlec::core::params::{HeadIndexMode, QRowsMode, QlecParams};
use qlec::core::QlecProtocol;
use qlec::net::trace::TraceRecorder;
use qlec::net::{FaultDriver, FaultEvent, FaultPlan, NetworkBuilder, SimConfig, Simulator};
use qlec::obs::{read_events, AsyncJsonLinesSink, Event, EventsMode, JsonLinesSink, ObserverSet};
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

/// Stream-shaping options for [`run_once_with`]: which events-mode
/// filter the sink applies, whether the sink sits behind the async
/// (block-backpressure) pipeline, an optional fault plan to replay, and
/// which accepted `q_rows` spelling the protocol's params carry.
#[derive(Clone)]
struct RunOpts {
    events_mode: EventsMode,
    async_sink: bool,
    faults: Option<FaultPlan>,
    q_rows: QRowsMode,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            events_mode: EventsMode::Full,
            async_sink: false,
            faults: None,
            q_rows: QRowsMode::default(),
        }
    }
}

/// One observed run: returns the deterministic JSON-lines event stream
/// and the serialized report. `fallback` wraps the protocol in a
/// [`TraceRecorder`], which deliberately hides the planner and keeps the
/// engine on the sequential `choose_target` path — the parallel engine
/// must be inert there at any thread count.
fn run_once(
    n: usize,
    k: usize,
    rounds: u32,
    lambda: f64,
    threads: usize,
    head_index: HeadIndexMode,
    fallback: bool,
) -> (String, String) {
    run_once_with(
        n,
        k,
        rounds,
        lambda,
        threads,
        head_index,
        fallback,
        RunOpts::default(),
    )
}

#[allow(clippy::too_many_arguments)]
fn run_once_with(
    n: usize,
    k: usize,
    rounds: u32,
    lambda: f64,
    threads: usize,
    head_index: HeadIndexMode,
    fallback: bool,
    opts: RunOpts,
) -> (String, String) {
    let mut rng = StdRng::seed_from_u64(17);
    let net = NetworkBuilder::new()
        .link(AnyLink::DistanceLoss(DistanceLossLink::for_cube(200.0)))
        .uniform_cube(&mut rng, n, 200.0, 5.0);
    let buf = SharedBuf::default();
    let sink = JsonLinesSink::new(buf.clone())
        .expect("in-memory sink")
        .deterministic()
        .with_mode(opts.events_mode);
    let mut obs = ObserverSet::new();
    if opts.async_sink {
        obs.attach(Arc::new(Mutex::new(AsyncJsonLinesSink::new(sink))));
    } else {
        obs.attach(Arc::new(Mutex::new(sink)));
    }
    let mut cfg = SimConfig::paper(lambda);
    cfg.rounds = rounds;
    cfg.threads = threads;
    let builder = QlecProtocol::builder()
        .params(QlecParams {
            q_rows: opts.q_rows,
            ..QlecParams::paper()
        })
        .k(k)
        .head_index(head_index)
        .observer(obs.clone());
    let mut sim = Simulator::builder(net).config(cfg).observers(obs.clone());
    if let Some(plan) = &opts.faults {
        sim = sim.faults(FaultDriver::new(plan.clone()).expect("plan validates"));
    }
    let sim = sim.build();
    let report = if fallback {
        let mut p = TraceRecorder::new(builder.build());
        sim.run(&mut p, &mut rng)
    } else {
        let mut p = builder.build();
        sim.run(&mut p, &mut rng)
    };
    obs.flush().expect("sink flush");
    let stream = String::from_utf8(buf.0.lock().unwrap().clone()).expect("utf8 stream");
    // `report.threads` records the *resolved* worker count — the one
    // field whose value legitimately tracks the knob under test — so the
    // equivalence diffs compare the report without it.
    assert!(report.threads >= 1, "resolved count is never 0");
    if threads >= 1 {
        assert_eq!(report.threads, threads, "resolved count recorded");
    }
    let mut value = serde_json::to_value(&report).expect("report serializes");
    if let serde::Value::Object(fields) = &mut value {
        fields.retain(|(k, _)| k != "threads");
    }
    let report_json = serde_json::to_string(&value).expect("report serializes");
    (stream, report_json)
}

/// Assert thread-count invariance for one configuration, byte for byte,
/// and sanity-check that the baseline stream actually exercised the
/// transmission phase (an empty stream would vacuously pass).
fn assert_thread_invariant(n: usize, k: usize, rounds: u32, lambda: f64, fallback: bool) {
    let mode = HeadIndexMode::default();
    let (base_stream, base_report) = run_once(n, k, rounds, lambda, 1, mode, fallback);
    let events = read_events(&base_stream).expect("baseline stream parses");
    let packets = events
        .iter()
        .filter(|e| matches!(e, Event::PacketOutcome { .. }))
        .count();
    assert!(packets > 100, "baseline must carry real traffic: {packets}");
    // 8 workers exceeds the container's core count, 0 = auto; both must
    // reproduce the single-thread bytes exactly.
    for threads in [2, 8, 0] {
        let (stream, report) = run_once(n, k, rounds, lambda, threads, mode, fallback);
        assert!(
            stream == base_stream,
            "event stream diverged at threads = {threads} (N = {n})"
        );
        assert_eq!(
            report, base_report,
            "report diverged at threads = {threads} (N = {n})"
        );
    }
}

/// Assert that the incremental head indexes reproduce the rebuild-mode
/// bytes exactly — same event stream, same report — at every thread
/// count. This is the tentpole's behavioral contract: the index
/// maintenance strategy is a pure throughput knob, like `threads`.
fn assert_index_mode_invariant(n: usize, k: usize, rounds: u32, lambda: f64) {
    for threads in [1, 2] {
        let (rebuild_stream, rebuild_report) =
            run_once(n, k, rounds, lambda, threads, HeadIndexMode::Rebuild, false);
        let events = read_events(&rebuild_stream).expect("rebuild stream parses");
        let packets = events
            .iter()
            .filter(|e| matches!(e, Event::PacketOutcome { .. }))
            .count();
        assert!(packets > 100, "baseline must carry real traffic: {packets}");
        let (inc_stream, inc_report) = run_once(
            n,
            k,
            rounds,
            lambda,
            threads,
            HeadIndexMode::Incremental,
            false,
        );
        assert!(
            inc_stream == rebuild_stream,
            "event stream diverged between index modes (N = {n}, threads = {threads})"
        );
        assert_eq!(
            inc_report, rebuild_report,
            "report diverged between index modes (N = {n}, threads = {threads})"
        );
    }
}

/// Assert that the accepted `q_rows` spellings select nothing: no Q-row
/// is materialized, so `dense` and `sparse` runs must produce
/// byte-identical event streams and reports, and threads 1 and 2 must
/// agree under either spelling.
fn assert_q_rows_invariant(n: usize, k: usize, rounds: u32, lambda: f64) {
    let run = |threads: usize, q_rows: QRowsMode| {
        run_once_with(
            n,
            k,
            rounds,
            lambda,
            threads,
            HeadIndexMode::default(),
            false,
            RunOpts {
                q_rows,
                ..RunOpts::default()
            },
        )
    };
    let (base_stream, base_report) = run(1, QRowsMode::Dense);
    let events = read_events(&base_stream).expect("baseline stream parses");
    let packets = events
        .iter()
        .filter(|e| matches!(e, Event::PacketOutcome { .. }))
        .count();
    assert!(packets > 100, "baseline must carry real traffic: {packets}");
    for threads in [1, 2] {
        for q_rows in [QRowsMode::Dense, QRowsMode::Sparse] {
            let (stream, report) = run(threads, q_rows);
            assert!(
                stream == base_stream,
                "event stream diverged at q_rows = {}, threads = {threads} (N = {n})",
                q_rows.label()
            );
            assert_eq!(
                report,
                base_report,
                "report diverged at q_rows = {}, threads = {threads} (N = {n})",
                q_rows.label()
            );
        }
    }
}

/// Paper scale, on the unpruned candidate path.
#[test]
fn q_rows_layouts_agree_at_n100() {
    assert_q_rows_invariant(100, 5, 8, 1.0);
}

/// Large-N configuration: k = 50 activates the Theorem-1 candidate
/// budget, so this covers the pruned candidate path.
#[test]
fn q_rows_layouts_agree_at_n1000() {
    assert_q_rows_invariant(1000, 50, 3, 5.0);
}

/// Paper scale, saturated traffic (λ = 1 exercises queue refusals and
/// the merge-time live retargeting), planner path.
#[test]
fn planner_path_is_thread_invariant_at_n100() {
    assert_thread_invariant(100, 5, 8, 1.0, false);
}

/// Large-N configuration: k = 50 puts the auto candidate policy in play
/// (budget 8 < head count), so the pruned k-d-tree path runs inside the
/// parallel planner fan-out.
#[test]
fn planner_path_is_thread_invariant_at_n1000() {
    assert_thread_invariant(1000, 50, 3, 5.0, false);
}

/// The `choose_target` fallback (planner hidden by `TraceRecorder`) is
/// sequential by construction — the threads knob must still be inert.
#[test]
fn fallback_path_is_thread_invariant() {
    assert_thread_invariant(100, 5, 5, 1.0, true);
}

/// Paper scale: k = 5 keeps candidate pruning inert, so this locks the
/// grid's tombstone path (dead nodes removed in place vs a fresh build
/// every round) to byte-identical behavior.
#[test]
fn index_modes_agree_at_n100() {
    assert_index_mode_invariant(100, 5, 8, 1.0);
}

/// Large-N configuration: k = 50 activates the Theorem-1 candidate
/// budget, so the incremental kd-index's tombstone + extras query path
/// must reproduce the fresh-rebuild candidate sets exactly.
#[test]
fn index_modes_agree_at_n1000() {
    assert_index_mode_invariant(1000, 50, 3, 5.0);
}

/// Aggregate-mode streams under an active fault plan are byte-identical
/// across threads {1, 2} and across the sync vs async (block) sink:
/// neither the events-mode filter, nor fault injection, nor the writer
/// pipeline may depend on where serialization happens or how the hot
/// phases are fanned out.
#[test]
fn aggregate_stream_under_faults_is_sink_and_thread_invariant() {
    let plan = FaultPlan::named(
        "equivalence",
        vec![
            FaultEvent::NodeCrash { round: 1, node: 3 },
            FaultEvent::BsOutage {
                from_round: 2,
                to_round: 2,
            },
        ],
    );
    let mut base: Option<(String, String)> = None;
    for threads in [1, 2] {
        for async_sink in [false, true] {
            let (stream, report) = run_once_with(
                100,
                5,
                4,
                1.0,
                threads,
                HeadIndexMode::default(),
                false,
                RunOpts {
                    events_mode: EventsMode::Aggregate,
                    async_sink,
                    faults: Some(plan.clone()),
                    ..RunOpts::default()
                },
            );
            match &base {
                None => {
                    let events = read_events(&stream).expect("baseline stream parses");
                    assert!(
                        events
                            .iter()
                            .any(|e| matches!(e, Event::RoundSummary { .. })),
                        "aggregate mode must digest rounds"
                    );
                    assert_eq!(
                        events
                            .iter()
                            .filter(|e| matches!(e, Event::FaultInjected { .. }))
                            .count(),
                        2,
                        "both plan entries must be visible in the stream"
                    );
                    assert!(
                        !events
                            .iter()
                            .any(|e| matches!(e, Event::PacketOutcome { .. })),
                        "aggregate mode suppresses per-packet events"
                    );
                    base = Some((stream, report));
                }
                Some((base_stream, base_report)) => {
                    assert!(
                        stream == *base_stream,
                        "stream diverged (threads = {threads}, async = {async_sink})"
                    );
                    assert_eq!(
                        report, *base_report,
                        "report diverged (threads = {threads}, async = {async_sink})"
                    );
                }
            }
        }
    }
}

/// A pooled run (`threads > 1`: parallel planning, then the one ordered
/// merge walk) reproduces the sequential run byte-for-byte under an
/// active fault plan — crashes and a BS outage force dead-head retargets
/// and refused-queue re-decisions, i.e. exactly the conflicted residue
/// whose master-RNG draws must stay in global `(time, node)` order.
fn assert_sharded_merge_invariant_under_faults(n: usize, k: usize, rounds: u32, lambda: f64) {
    let plan = FaultPlan::named(
        "sharded-merge",
        vec![
            FaultEvent::NodeCrash { round: 1, node: 3 },
            FaultEvent::NodeCrash {
                round: 1,
                node: (n as u32) / 2,
            },
            FaultEvent::BsOutage {
                from_round: 2,
                to_round: 2,
            },
        ],
    );
    let run = |threads: usize| {
        run_once_with(
            n,
            k,
            rounds,
            lambda,
            threads,
            HeadIndexMode::default(),
            false,
            RunOpts {
                faults: Some(plan.clone()),
                ..RunOpts::default()
            },
        )
    };
    let (seq_stream, seq_report) = run(1);
    let events = read_events(&seq_stream).expect("sequential stream parses");
    let packets = events
        .iter()
        .filter(|e| matches!(e, Event::PacketOutcome { .. }))
        .count();
    assert!(packets > 100, "baseline must carry real traffic: {packets}");
    for threads in [2, 4] {
        let (stream, report) = run(threads);
        assert!(
            stream == seq_stream,
            "pooled run diverged from sequential run (N = {n}, threads = {threads})"
        );
        assert_eq!(
            report, seq_report,
            "report diverged from sequential commit (N = {n}, threads = {threads})"
        );
    }
}

/// Paper scale, saturated traffic: queue refusals plus the fault plan
/// maximize the fixup pass's share of the merge.
#[test]
fn sharded_merge_matches_sequential_under_faults_at_n100() {
    assert_sharded_merge_invariant_under_faults(100, 5, 4, 1.0);
}

/// Large-N configuration: many shards per round (k = 50) with the
/// Theorem-1 candidate budget active in the retarget kernel.
#[test]
fn sharded_merge_matches_sequential_under_faults_at_n1000() {
    assert_sharded_merge_invariant_under_faults(1000, 50, 3, 5.0);
}

/// Full-mode streams through the async (block) pipeline reproduce the
/// synchronous sink's bytes at multiple thread counts: the pipeline is
/// pure plumbing, never a filter.
#[test]
fn async_pipeline_is_byte_identical_in_full_mode() {
    for threads in [1, 2] {
        let (sync_stream, sync_report) =
            run_once(100, 5, 4, 1.0, threads, HeadIndexMode::default(), false);
        let (async_stream, async_report) = run_once_with(
            100,
            5,
            4,
            1.0,
            threads,
            HeadIndexMode::default(),
            false,
            RunOpts {
                async_sink: true,
                ..RunOpts::default()
            },
        );
        assert!(
            async_stream == sync_stream,
            "async pipeline changed the stream (threads = {threads})"
        );
        assert_eq!(async_report, sync_report);
    }
}
