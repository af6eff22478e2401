//! Scaling benchmark: the perf-trajectory harness for large deployments.
//!
//! Runs the paper-shaped QLEC configuration at N ∈ {100, 1k, 10k} (by
//! default) with `Send-Data` candidate pruning enabled, and emits
//! `BENCH_scale.json`: per-phase wall time (from the `qlec-obs` phase
//! spans), peak RSS, and packet throughput for each (size, threads)
//! point. CI smoke-runs it at N = 100 and validates the artifact
//! against the schema, and the regression gate re-runs the committed
//! baseline's N = 100 point with `--compare`; the full sweep is the
//! cross-PR performance trajectory.
//!
//! Usage: `cargo run --release -p qlec-bench --bin scale -- \
//!     [--sizes 100,1000,10000] [--threads 1] [--rounds 20] \
//!     [--candidates auto|full|<n>] \
//!     [--head-index incremental,rebuild] \
//!     [--lambda 5] [--seed 42] \
//!     [--events-sink sync,async] [--out BENCH_scale.json] [--append] \
//!     [--validate] [--compare BASE.json] [--gate-thread-scaling 1.6]`
//!
//! `--events-sink` re-runs each point once per named pipeline with a
//! full-mode events stream (into the bit bucket) and records what that
//! stream costs the hot simulation thread, so the artifact can show the
//! async pipeline's hot-thread win over the synchronous sink.
//!
//! When the sweep includes a `threads = 1` point alongside multi-thread
//! points at the same (N, candidates, head-index, rounds, λ) coordinates,
//! the artifact gains `thread_scaling` summary rows: headline pkt/s
//! speedup plus per-phase wall speedups against the single-threaded
//! baseline. `--gate-thread-scaling FLOOR` turns those rows into a CI
//! gate — every multi-thread point at N ≥ 10 000 must reach FLOOR ×
//! the threads = 1 throughput (smaller points warn instead of failing:
//! tiny rounds oversubscribe the workers, see
//! [`SCALING_GATE_MIN_N`]), and a sweep with nothing to gate is an
//! error, not a silent pass.

use qlec_bench::{print_table, write_json, PhaseWall, ProtocolKind, RunSpec};
use qlec_core::params::{CandidatePolicy, HeadIndexMode, QRowsMode, QlecParams};
use qlec_net::Simulator;
use qlec_obs::{
    peak_rss_bytes, AsyncJsonLinesSink, JsonLinesSink, MeasuredSink, MemorySink, ObserverSet,
    Phase, PhaseProfiler, SinkStats,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Version tag of the `BENCH_scale.json` artifact. Bump on any field
/// addition, removal, or semantic change (the history of earlier
/// versions is in git and CHANGES.md).
///
/// A v7 artifact carries `schema`, the sweep's `lambda` and `seed`, a
/// `thread_scaling` array (empty when the sweep has no `threads = 1`
/// baseline) and one `runs` row per point. Each row records:
///
/// - its coordinates `n`, `k`, `rounds`, `threads`, `threads_resolved`
///   (never 0), `candidates`, `head_index`, `q_rows` and `lambda`;
///   `(n, threads, candidates, head_index, q_rows, lambda, rounds)` is
///   the `--compare` and `--append` key, and `thread_scaling` pairs rows
///   that differ only in `threads`. `q_rows` is always `"sparse"`: no
///   Q-row layout remains to choose, and the field stays so committed
///   artifacts and their keys still match;
/// - end-to-end `wall_s`, `packets`, `packets_per_sec`, `pdr`,
///   `alive_end` and, where the platform reports it, `peak_rss_bytes`
///   (omitted, never null, elsewhere);
/// - per-phase `phase_wall` and per-(phase, worker) `phase_threads`;
/// - the merge counters `merge_conflicts`, `merge_retargets`,
///   `merge_shards`, `merge_shard_max`, `merge_clean_commits`,
///   `merge_residue` and the derived `residue_fraction` (a number on
///   multi-thread runs, `null` on `threads = 1` runs, which report no
///   classification);
/// - `round_p50_ns` / `round_p90_ns` / `round_p99_ns`, and
///   `events_pipeline` rows when `--events-sink` was passed.
///
/// `--compare` gates `packets_per_sec` ([`REGRESSION_TOLERANCE`]),
/// `residue_fraction` ([`RESIDUE_TOLERANCE`]) and, at
/// `n ≥` [`RSS_GATE_MIN_N`], `peak_rss_bytes` ([`RSS_TOLERANCE`]);
/// `--gate-thread-scaling` applies its floor to rows with
/// `n ≥` [`SCALING_GATE_MIN_N`].
const SCALE_SCHEMA: &str = "qlec-bench-scale/v7";

/// The `q_rows` value every fresh row records (see [`SCALE_SCHEMA`]).
const Q_ROWS_LABEL: &str = "sparse";

/// `--compare` fails on a `packets_per_sec` drop of more than this
/// fraction below the baseline at any matching point.
const REGRESSION_TOLERANCE: f64 = 0.20;

/// `--compare` fails on a `peak_rss_bytes` *growth* of more than this
/// fraction past the baseline at any matching point at or above
/// [`RSS_GATE_MIN_N`] nodes — memory is the whole point of the sparse
/// layouts, so a silent quadratic reappearing must fail CI. Both sides
/// must carry the counter; a platform without it skips the gate, never
/// fails it.
const RSS_TOLERANCE: f64 = 0.25;

/// Smallest `n` the RSS gate applies to. Below this the process
/// high-water mark is dominated by allocator noise and (within one
/// sweep) by whatever larger size ran first, not by per-node state.
const RSS_GATE_MIN_N: usize = 100_000;

/// `--compare` fails when a matched point's `residue_fraction` grows
/// more than this (absolute) past the baseline's. The fraction is a
/// property of the workload (at saturated λ most refusals genuinely
/// need the sequential walk), so the gate is a regression bound — each
/// round's clean frontier closing earlier than it used to — not an
/// absolute target. Skipped when either side's fraction is null
/// (`threads = 1` runs report no classification).
const RESIDUE_TOLERANCE: f64 = 0.05;

/// Smallest `n` the `--gate-thread-scaling` floor applies to. Below
/// this the per-round fan-out is too small to amortize worker wakeups:
/// at N = 100 a round plans ~100 member packets, so four workers spend
/// more time parking and unparking than planning, and the v6 baseline
/// measured threads = 4 *slower* than threads = 2 (614k vs 766k
/// pkt/s). That inversion is expected oversubscription, not a
/// regression — small-N rows get a warning, never a gate failure.
const SCALING_GATE_MIN_N: u64 = 10_000;

/// One (size, threads, head-index mode) point of the sweep.
#[derive(Debug, Clone)]
struct ScaleRun {
    /// Node count N.
    n: usize,
    /// Cluster count k used (scales as N/20, the paper's N=100 → k=5).
    k: usize,
    /// Simulated rounds.
    rounds: u32,
    /// Engine worker threads (`SimConfig::threads`; 0 = all cores).
    threads: usize,
    /// The worker count the engine actually used (`SimReport::threads`)
    /// — never 0, so an `auto` sweep records the machine it ran on.
    threads_resolved: usize,
    /// `Send-Data` candidate pruning policy spelling (`auto`, `full`, or
    /// a fixed budget as an integer string).
    candidates: String,
    /// Spatial-index maintenance mode (`incremental` or `rebuild`).
    head_index: String,
    /// The v7 `q_rows` coordinate. Fresh rows always write
    /// [`Q_ROWS_LABEL`]; a baseline row may carry either accepted
    /// spelling.
    q_rows: String,
    /// Traffic congestion level λ this run was generated under. v7:
    /// per-row, so one artifact can carry rows at several congestion
    /// levels; part of the `--compare` and thread-scaling keys.
    lambda: f64,
    /// End-to-end wall time of the run, seconds.
    wall_s: f64,
    /// Packets generated over the whole run.
    packets: u64,
    /// Generated packets per wall second — the headline throughput.
    packets_per_sec: f64,
    /// Packet delivery rate, for sanity (pruning must not crater it).
    pdr: f64,
    /// Alive nodes at the end of the run.
    alive_end: usize,
    /// Process peak RSS in bytes after this run (Linux `VmHWM`).
    /// Monotone across the process, so within one sweep the largest N
    /// dominates. Omitted from the JSON on platforms without the
    /// counter.
    peak_rss_bytes: Option<u64>,
    /// Wall nanoseconds per simulation phase, from the obs spans.
    phase_wall: Vec<PhaseWall>,
    /// Busy nanoseconds per (phase path, worker slot), from the
    /// profiler — reveals fan-out imbalance the wall numbers hide.
    phase_threads: Vec<PhaseThreadBusy>,
    /// Merge-stage conflicts (packets rerouted or dropped because their
    /// planned head was gone by merge time).
    merge_conflicts: u64,
    /// Live-continuation retargets applied during the merge.
    merge_retargets: u64,
    /// Distinct heads member plans ended on, summed over rounds (0 at
    /// `threads = 1`, which reports no classification).
    merge_shards: u64,
    /// Most member plans ending on one head in any round — shard
    /// imbalance.
    merge_shard_max: u64,
    /// Member packets committed before each round's clean frontier (0
    /// at `threads = 1`).
    merge_clean_commits: u64,
    /// The frontier-closing packet and every member packet after it,
    /// summed over rounds (0 at `threads = 1`).
    merge_residue: u64,
    /// Round-latency quantiles (ns) over the run's rounds.
    round_p50_ns: f64,
    round_p90_ns: f64,
    round_p99_ns: f64,
    /// Hot-thread cost of the full-events sink pipelines; empty unless
    /// `--events-sink` requested the extra measured runs.
    events_pipeline: Vec<EventsPipelineRow>,
}

/// Busy time one worker slot spent in one profiler phase path.
#[derive(Debug, Clone, Serialize)]
struct PhaseThreadBusy {
    /// `/`-separated profiler path (`"transmission/plan"`).
    phase: String,
    /// Worker slot (0 = the simulation thread).
    thread: usize,
    busy_ns: u64,
}

/// One measured full-events run: how much the event sink costs the hot
/// simulation thread, and (async only) the writer-queue counters.
#[derive(Debug, Clone)]
struct EventsPipelineRow {
    /// `sync` or `async` (block backpressure).
    sink: String,
    /// Events that crossed the hot thread's `on_event`.
    events: u64,
    /// Nanoseconds the hot thread spent inside `on_event`.
    hot_ns: u64,
    /// Queue counters, async pipeline only.
    queue: Option<SinkStats>,
}

// Hand-rolled so the sync row simply has no `queue` field.
impl Serialize for EventsPipelineRow {
    fn to_value(&self) -> serde::Value {
        let per_event = self.hot_ns as f64 / self.events.max(1) as f64;
        let mut fields = vec![
            ("sink".to_string(), self.sink.to_value()),
            ("events".to_string(), self.events.to_value()),
            ("hot_ns".to_string(), self.hot_ns.to_value()),
            ("hot_ns_per_event".to_string(), per_event.to_value()),
        ];
        if let Some(q) = &self.queue {
            fields.push(("queue".to_string(), q.to_value()));
        }
        serde::Value::Object(fields)
    }
}

impl ScaleRun {
    /// Residue share of the classified packets, `None` when the run
    /// reported no classification (`threads = 1`).
    fn residue_fraction(&self) -> Option<f64> {
        let total = self.merge_clean_commits + self.merge_residue;
        (total > 0).then(|| self.merge_residue as f64 / total as f64)
    }
}

// Hand-rolled so `peak_rss_bytes: None` drops the field entirely
// instead of writing `null` (the derive cannot skip fields).
impl Serialize for ScaleRun {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("n".to_string(), self.n.to_value()),
            ("k".to_string(), self.k.to_value()),
            ("rounds".to_string(), self.rounds.to_value()),
            ("threads".to_string(), self.threads.to_value()),
            (
                "threads_resolved".to_string(),
                self.threads_resolved.to_value(),
            ),
            ("candidates".to_string(), self.candidates.to_value()),
            ("head_index".to_string(), self.head_index.to_value()),
            ("q_rows".to_string(), self.q_rows.to_value()),
            ("lambda".to_string(), self.lambda.to_value()),
            ("wall_s".to_string(), self.wall_s.to_value()),
            ("packets".to_string(), self.packets.to_value()),
            (
                "packets_per_sec".to_string(),
                self.packets_per_sec.to_value(),
            ),
            ("pdr".to_string(), self.pdr.to_value()),
            ("alive_end".to_string(), self.alive_end.to_value()),
        ];
        if let Some(rss) = self.peak_rss_bytes {
            fields.push(("peak_rss_bytes".to_string(), rss.to_value()));
        }
        fields.push(("phase_wall".to_string(), self.phase_wall.to_value()));
        fields.push(("phase_threads".to_string(), self.phase_threads.to_value()));
        fields.push((
            "merge_conflicts".to_string(),
            self.merge_conflicts.to_value(),
        ));
        fields.push((
            "merge_retargets".to_string(),
            self.merge_retargets.to_value(),
        ));
        fields.push(("merge_shards".to_string(), self.merge_shards.to_value()));
        fields.push((
            "merge_shard_max".to_string(),
            self.merge_shard_max.to_value(),
        ));
        fields.push((
            "merge_clean_commits".to_string(),
            self.merge_clean_commits.to_value(),
        ));
        fields.push(("merge_residue".to_string(), self.merge_residue.to_value()));
        // Sequential runs never classify: an explicit null, so every v7
        // row carries the key and `--compare` can tell "not measured"
        // from "measured zero".
        fields.push((
            "residue_fraction".to_string(),
            match self.residue_fraction() {
                Some(f) => f.to_value(),
                None => serde_json::Value::Null,
            },
        ));
        fields.push(("round_p50_ns".to_string(), self.round_p50_ns.to_value()));
        fields.push(("round_p90_ns".to_string(), self.round_p90_ns.to_value()));
        fields.push(("round_p99_ns".to_string(), self.round_p99_ns.to_value()));
        if !self.events_pipeline.is_empty() {
            fields.push((
                "events_pipeline".to_string(),
                self.events_pipeline.to_value(),
            ));
        }
        serde::Value::Object(fields)
    }
}

/// The whole artifact.
#[derive(Debug, Serialize)]
struct ScaleReport {
    /// Always [`SCALE_SCHEMA`].
    schema: String,
    /// Traffic congestion level λ (slots between packets per node).
    lambda: f64,
    /// Deployment/protocol base seed.
    seed: u64,
    /// Speedups of the multi-thread points over their `threads = 1`
    /// baselines; empty when the sweep has nothing to compare.
    thread_scaling: Vec<serde_json::Value>,
    /// One entry per requested size, in request order.
    runs: Vec<ScaleRun>,
}

/// [`ScaleReport`] with pre-rendered run values: the `--append` merge
/// path carries the baseline's existing rows through untouched.
#[derive(Serialize)]
struct ScaleReportValue {
    schema: String,
    lambda: f64,
    seed: u64,
    thread_scaling: Vec<serde_json::Value>,
    runs: Vec<serde_json::Value>,
}

/// Compute the `thread_scaling` summary rows from rendered run rows.
///
/// Every run with `threads != 1` is paired with the `threads = 1` run
/// at the same `(n, candidates, head_index, rounds)` coordinates (a
/// `threads = 0` auto run counts as a scaled point — its baseline is
/// still the explicit single-thread row). Unpaired points contribute
/// nothing: speedup against a missing baseline is unmeasurable, not
/// 1.0. Each row carries the headline pkt/s speedup plus per-phase
/// wall speedups for every phase both runs actually spent time in.
///
/// Operating on rendered [`serde_json::Value`] rows (not [`ScaleRun`])
/// means the `--append` path contributes its carried-through baseline
/// rows on equal footing with fresh ones.
fn thread_scaling_rows(runs: &[serde_json::Value]) -> Vec<serde_json::Value> {
    let coords = |r: &serde_json::Value| {
        (
            r["n"].as_u64(),
            r["candidates"].as_str().map(str::to_string),
            r["head_index"].as_str().map(str::to_string),
            r["q_rows"].as_str().map(str::to_string),
            // v7: λ is a per-row coordinate — a λ = 20 demo row must
            // never borrow a λ = 5 single-thread baseline. Bits, so the
            // key stays Eq.
            r["lambda"].as_f64().map(f64::to_bits),
            r["rounds"].as_u64(),
        )
    };
    let phase_wall = |r: &serde_json::Value, phase: &str| -> f64 {
        r["phase_wall"]
            .as_array()
            .into_iter()
            .flatten()
            .find(|w| w["phase"].as_str() == Some(phase))
            .and_then(|w| w["mean_wall_ns"].as_f64())
            .unwrap_or(0.0)
    };
    let mut rows = Vec::new();
    for run in runs {
        if run["threads"].as_u64() == Some(1) {
            continue;
        }
        let Some(base) = runs
            .iter()
            .find(|b| b["threads"].as_u64() == Some(1) && coords(b) == coords(run))
        else {
            continue;
        };
        let pps = run["packets_per_sec"].as_f64().unwrap_or(0.0);
        let base_pps = base["packets_per_sec"].as_f64().unwrap_or(0.0);
        if base_pps <= 0.0 {
            continue;
        }
        let phases: Vec<serde_json::Value> = Phase::ALL
            .iter()
            .filter_map(|&p| {
                let b = phase_wall(base, p.name());
                let s = phase_wall(run, p.name());
                (b > 0.0 && s > 0.0).then(|| {
                    serde_json::Value::Object(vec![
                        ("phase".to_string(), p.name().to_value()),
                        ("speedup".to_string(), (b / s).to_value()),
                    ])
                })
            })
            .collect();
        rows.push(serde_json::Value::Object(vec![
            ("n".to_string(), run["n"].clone()),
            ("threads".to_string(), run["threads"].clone()),
            (
                "threads_resolved".to_string(),
                run["threads_resolved"].clone(),
            ),
            ("candidates".to_string(), run["candidates"].clone()),
            ("head_index".to_string(), run["head_index"].clone()),
            ("lambda".to_string(), run["lambda"].clone()),
            ("packets_per_sec".to_string(), pps.to_value()),
            ("baseline_packets_per_sec".to_string(), base_pps.to_value()),
            ("speedup".to_string(), (pps / base_pps).to_value()),
            ("phases".to_string(), serde_json::Value::Array(phases)),
        ]));
    }
    rows
}

/// `--gate-thread-scaling`: every multi-thread point at `n ≥`
/// [`SCALING_GATE_MIN_N`] must reach `floor` × its single-threaded
/// pkt/s. Smaller points only *warn* when they miss the floor — below
/// ~10k nodes the per-round fan-out cannot amortize worker wakeups, so
/// oversubscription inversion (more threads, fewer pkt/s) is expected,
/// not a regression. `Ok` carries `(failures, warnings)` (empty
/// failures = gate passes); `Err` means the sweep produced no gateable
/// point at all, which would otherwise pass vacuously.
#[allow(clippy::type_complexity)]
fn gate_thread_scaling(
    rows: &[serde_json::Value],
    floor: f64,
) -> Result<(Vec<String>, Vec<String>), String> {
    if rows.is_empty() {
        return Err(
            "nothing to gate: the sweep needs a threads = 1 point and a multi-thread point \
             at the same coordinates (e.g. --threads 1,4)"
                .into(),
        );
    }
    if !rows
        .iter()
        .any(|row| row["n"].as_u64().unwrap_or(0) >= SCALING_GATE_MIN_N)
    {
        return Err(format!(
            "nothing to gate: the floor only applies at N >= {SCALING_GATE_MIN_N} (smaller \
             sweeps oversubscribe and only warn); add a size at or above it"
        ));
    }
    let describe = |row: &serde_json::Value, verdict: &str| {
        format!(
            "N={} threads={}: {:.2}x pkt/s vs threads=1 ({:.0} vs {:.0}), {verdict} the \
             {floor:.2}x floor",
            row["n"].as_u64().unwrap_or(0),
            row["threads"].as_u64().unwrap_or(0),
            row["speedup"].as_f64().unwrap_or(0.0),
            row["packets_per_sec"].as_f64().unwrap_or(0.0),
            row["baseline_packets_per_sec"].as_f64().unwrap_or(0.0),
        )
    };
    let mut failures = Vec::new();
    let mut warnings = Vec::new();
    for row in rows {
        if row["speedup"].as_f64().unwrap_or(0.0) >= floor {
            continue;
        }
        if row["n"].as_u64().unwrap_or(0) >= SCALING_GATE_MIN_N {
            failures.push(describe(row, "below"));
        } else {
            warnings.push(describe(
                row,
                "below (expected small-N oversubscription, not gated by)",
            ));
        }
    }
    Ok((failures, warnings))
}

/// The artifact spelling of a candidate policy (also the `--candidates`
/// flag syntax, so baselines and fresh runs compare apples to apples).
fn policy_label(policy: CandidatePolicy) -> String {
    match policy {
        CandidatePolicy::Auto => "auto".into(),
        CandidatePolicy::Full => "full".into(),
        CandidatePolicy::Fixed(c) => c.to_string(),
    }
}

fn run_size(
    n: usize,
    rounds: u32,
    candidates: CandidatePolicy,
    head_index: HeadIndexMode,
    threads: usize,
    lambda: f64,
    seed: u64,
) -> ScaleRun {
    let k = (n / 20).max(2);
    let mut spec = RunSpec::builder(lambda)
        .nodes(n)
        .k(k)
        .rounds(rounds)
        .seeds(vec![seed])
        .build();
    spec.sim.threads = threads;
    let net = spec.network(seed);
    let sink = Arc::new(Mutex::new(MemorySink::new()));
    let profiler = Arc::new(PhaseProfiler::new());
    let mut obs = ObserverSet::new().with_profiler(profiler.clone());
    obs.attach(sink.clone());
    let params = QlecParams {
        candidates,
        head_index,
        ..spec.qlec_params()
    };
    let mut protocol = ProtocolKind::Qlec.build_observed(&params, &obs);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let start = Instant::now();
    let report = Simulator::builder(net)
        .config(spec.sim)
        .observers(obs)
        .build()
        .run(protocol.as_mut(), &mut rng);
    let wall_s = start.elapsed().as_secs_f64();
    let sink = sink.lock().expect("metrics sink poisoned");
    let phase_wall = Phase::ALL
        .iter()
        .map(|&p| PhaseWall {
            phase: p.name().to_string(),
            mean_wall_ns: sink.phase_wall_ns(p) as f64,
        })
        .collect();
    let profile = profiler.report();
    let phase_threads = profile
        .phases
        .iter()
        .flat_map(|row| {
            row.busy.iter().map(|b| PhaseThreadBusy {
                phase: row.path.clone(),
                thread: b.thread,
                busy_ns: b.busy_ns,
            })
        })
        .collect();
    let counter = |name: &str| -> u64 {
        profile
            .counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    };
    ScaleRun {
        n,
        k,
        rounds,
        threads,
        threads_resolved: report.threads,
        candidates: policy_label(candidates),
        head_index: head_index.label().to_string(),
        q_rows: Q_ROWS_LABEL.to_string(),
        lambda,
        wall_s,
        packets: report.totals.generated,
        packets_per_sec: report.totals.generated as f64 / wall_s.max(1e-9),
        pdr: report.pdr(),
        alive_end: report.rounds.last().map_or(n, |r| r.alive_end),
        peak_rss_bytes: peak_rss_bytes(),
        phase_wall,
        phase_threads,
        merge_conflicts: counter("merge.conflicts"),
        merge_retargets: counter("merge.retargets"),
        merge_shards: counter("merge.shards"),
        merge_shard_max: counter("merge.shard_max"),
        merge_clean_commits: counter("merge.clean_commits"),
        merge_residue: counter("merge.residue"),
        round_p50_ns: profile.round_latency.p50_ns,
        round_p90_ns: profile.round_latency.p90_ns,
        round_p99_ns: profile.round_latency.p99_ns,
        events_pipeline: Vec::new(),
    }
}

/// Re-run one sweep point once per requested sink pipeline with a
/// full-mode JSON events stream into the bit bucket, measuring what the
/// sink costs the *hot* simulation thread. Block backpressure keeps the
/// async stream complete, so the two rows describe identical event
/// loads.
#[allow(clippy::too_many_arguments)]
fn run_events_pipeline(
    n: usize,
    rounds: u32,
    candidates: CandidatePolicy,
    head_index: HeadIndexMode,
    threads: usize,
    lambda: f64,
    seed: u64,
    kinds: &[String],
) -> Vec<EventsPipelineRow> {
    enum Handle {
        Sync(Arc<Mutex<MeasuredSink<JsonLinesSink<std::io::Sink>>>>),
        Async(Arc<Mutex<MeasuredSink<AsyncJsonLinesSink>>>),
    }
    kinds
        .iter()
        .map(|kind| {
            let k = (n / 20).max(2);
            let mut spec = RunSpec::builder(lambda)
                .nodes(n)
                .k(k)
                .rounds(rounds)
                .seeds(vec![seed])
                .build();
            spec.sim.threads = threads;
            let net = spec.network(seed);
            let inner = JsonLinesSink::new(std::io::sink()).expect("bit bucket accepts header");
            let mut obs = ObserverSet::new();
            let handle = match kind.as_str() {
                "sync" => {
                    let s = Arc::new(Mutex::new(MeasuredSink::new(inner)));
                    obs.attach(s.clone());
                    Handle::Sync(s)
                }
                "async" => {
                    let s = Arc::new(Mutex::new(MeasuredSink::new(AsyncJsonLinesSink::new(
                        inner,
                    ))));
                    obs.attach(s.clone());
                    Handle::Async(s)
                }
                other => die(&format!("--events-sink takes sync or async, got `{other}`")),
            };
            let params = QlecParams {
                candidates,
                head_index,
                ..spec.qlec_params()
            };
            let mut protocol = ProtocolKind::Qlec.build_observed(&params, &obs);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
            let _ = Simulator::builder(net)
                .config(spec.sim)
                .observers(obs.clone())
                .build()
                .run(protocol.as_mut(), &mut rng);
            obs.flush().expect("events pipeline flush");
            match handle {
                Handle::Sync(s) => {
                    let g = s.lock().expect("measured sink poisoned");
                    EventsPipelineRow {
                        sink: "sync".to_string(),
                        events: g.events(),
                        hot_ns: g.hot_ns(),
                        queue: None,
                    }
                }
                Handle::Async(s) => {
                    let g = s.lock().expect("measured sink poisoned");
                    let stats = g.get_ref().stats();
                    EventsPipelineRow {
                        sink: "async".to_string(),
                        events: g.events(),
                        hot_ns: g.hot_ns(),
                        queue: Some(stats),
                    }
                }
            }
        })
        .collect()
}

/// Check a `BENCH_scale.json` text against the v5 schema. Returns a
/// description of the first problem found.
fn validate_scale_json(text: &str) -> Result<(), String> {
    let v: serde_json::Value = serde_json::from_str(text).map_err(|e| format!("not JSON: {e}"))?;
    if v["schema"].as_str() != Some(SCALE_SCHEMA) {
        return Err(format!(
            "schema must be {SCALE_SCHEMA:?}, got {:?}",
            v["schema"]
        ));
    }
    for key in ["lambda", "seed"] {
        if v[key].as_f64().is_none() {
            return Err(format!("missing numeric field {key:?}"));
        }
    }
    let runs = v["runs"]
        .as_array()
        .ok_or_else(|| "runs must be an array".to_string())?;
    if runs.is_empty() {
        return Err("runs must be non-empty".into());
    }
    // v5: the thread-scaling summary is always present — an empty array
    // when the sweep had no threads = 1 baseline, never a missing key.
    let scaling = v["thread_scaling"].as_array().ok_or_else(|| {
        "thread_scaling must be an array (empty when the sweep has no baseline)".to_string()
    })?;
    for (i, row) in scaling.iter().enumerate() {
        for key in [
            "n",
            "threads",
            "threads_resolved",
            "lambda",
            "packets_per_sec",
            "baseline_packets_per_sec",
            "speedup",
        ] {
            if row[key].as_f64().is_none() {
                return Err(format!("thread_scaling[{i}] missing numeric field {key:?}"));
            }
        }
        let phases = row["phases"]
            .as_array()
            .ok_or_else(|| format!("thread_scaling[{i}].phases must be an array"))?;
        for p in phases {
            if p["phase"].as_str().is_none() || p["speedup"].as_f64().is_none() {
                return Err(format!(
                    "thread_scaling[{i}] phase entries need a phase name and a numeric speedup"
                ));
            }
        }
    }
    let phases: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
    for (i, run) in runs.iter().enumerate() {
        for key in [
            "n",
            "k",
            "rounds",
            "threads",
            "threads_resolved",
            "lambda",
            "wall_s",
            "packets",
            "packets_per_sec",
            "pdr",
            "alive_end",
            "merge_conflicts",
            "merge_retargets",
            "merge_shards",
            "merge_shard_max",
            "merge_clean_commits",
            "merge_residue",
            "round_p50_ns",
            "round_p90_ns",
            "round_p99_ns",
        ] {
            if run[key].as_f64().is_none() {
                return Err(format!("runs[{i}] missing numeric field {key:?}"));
            }
        }
        // v7: the key must be present — a number on sharded-merge runs,
        // an explicit null on sequential ones (which never classify).
        match run.get("residue_fraction") {
            Some(rf) if rf.is_null() || rf.as_f64().is_some() => {}
            _ => {
                return Err(format!(
                    "runs[{i}].residue_fraction must be a number or null"
                ))
            }
        }
        // "auto" resolves to a concrete worker count before the first
        // round, so a recorded 0 means the run never resolved it.
        if run["threads_resolved"].as_u64() == Some(0) {
            return Err(format!("runs[{i}].threads_resolved must be >= 1"));
        }
        match run["candidates"].as_str() {
            Some(c) if CandidatePolicy::parse(c).is_ok() => {}
            _ => {
                return Err(format!(
                    "runs[{i}].candidates must be auto, full or a positive integer"
                ))
            }
        }
        match run["head_index"].as_str() {
            Some(m) if HeadIndexMode::parse(m).is_ok() => {}
            _ => {
                return Err(format!(
                    "runs[{i}].head_index must be incremental or rebuild"
                ))
            }
        }
        match run["q_rows"].as_str() {
            Some(m) if QRowsMode::parse(m).is_ok() => {}
            _ => return Err(format!("runs[{i}].q_rows must be sparse or dense")),
        }
        // peak_rss_bytes is optional, but when present it must be a
        // number — v3 forbids the old explicit null.
        if let Some(rss) = run.get("peak_rss_bytes") {
            if rss.as_u64().is_none() {
                return Err(format!(
                    "runs[{i}].peak_rss_bytes must be a non-negative integer when present"
                ));
            }
        }
        let walls = run["phase_wall"]
            .as_array()
            .ok_or_else(|| format!("runs[{i}].phase_wall must be an array"))?;
        let mut seen: Vec<&str> = Vec::new();
        for w in walls {
            let name = w["phase"]
                .as_str()
                .ok_or_else(|| format!("runs[{i}] phase_wall entry without a phase name"))?;
            if w["mean_wall_ns"].as_f64().is_none() {
                return Err(format!("runs[{i}] phase {name:?} missing mean_wall_ns"));
            }
            seen.push(name);
        }
        for p in &phases {
            if !seen.contains(p) {
                return Err(format!("runs[{i}] missing phase {p:?}"));
            }
        }
        let spans = run["phase_threads"]
            .as_array()
            .ok_or_else(|| format!("runs[{i}].phase_threads must be an array"))?;
        for s in spans {
            if s["phase"].as_str().is_none() {
                return Err(format!(
                    "runs[{i}] phase_threads entry without a phase path"
                ));
            }
            for key in ["thread", "busy_ns"] {
                if s[key].as_u64().is_none() {
                    return Err(format!(
                        "runs[{i}] phase_threads entry missing numeric {key:?}"
                    ));
                }
            }
        }
        // events_pipeline is optional (only measured runs carry it);
        // when present the rows must be well-formed.
        if let Some(pipeline) = run.get("events_pipeline") {
            let rows = pipeline
                .as_array()
                .ok_or_else(|| format!("runs[{i}].events_pipeline must be an array"))?;
            for row in rows {
                match row["sink"].as_str() {
                    Some("sync") | Some("async") => {}
                    _ => {
                        return Err(format!(
                            "runs[{i}] events_pipeline sink must be sync or async"
                        ))
                    }
                }
                for key in ["events", "hot_ns", "hot_ns_per_event"] {
                    if row[key].as_f64().is_none() {
                        return Err(format!(
                            "runs[{i}] events_pipeline row missing numeric {key:?}"
                        ));
                    }
                }
                if row["sink"].as_str() == Some("async") {
                    for key in ["enqueued", "processed", "dropped", "blocked", "max_depth"] {
                        if row["queue"][key].as_u64().is_none() {
                            return Err(format!(
                                "runs[{i}] async events_pipeline row missing queue.{key}"
                            ));
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// The fields every appended-onto row must carry so the 7-tuple
/// compare/baseline key `(n, threads, candidates, head_index, q_rows,
/// lambda, rounds)` and the residue gate stay meaningful. A pre-v7 row
/// is missing some of these: its `lambda` (or residue counters) would
/// never match — or silently zero-fill — downstream comparisons.
const APPEND_KEY_FIELDS: [&str; 7] = [
    "n",
    "threads",
    "rounds",
    "lambda",
    "merge_clean_commits",
    "merge_residue",
    "packets_per_sec",
];

/// The 7-tuple append/compare coordinate: `(n, threads, candidates,
/// head_index, q_rows, lambda-bits, rounds)`.
type AppendKey = (u64, u64, String, String, String, u64, u64);

/// The dedup/compare key of one run row, or `Err` naming the first
/// v7 field the row is missing.
fn append_key(row: &serde_json::Value) -> Result<AppendKey, String> {
    for key in APPEND_KEY_FIELDS {
        if row[key].as_f64().is_none() {
            return Err(format!("missing numeric field {key:?}"));
        }
    }
    if !matches!(row.get("residue_fraction"), Some(rf) if rf.is_null() || rf.as_f64().is_some()) {
        return Err("missing field \"residue_fraction\"".into());
    }
    let text = |key: &str| -> Result<String, String> {
        row[key]
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("missing string field {key:?}"))
    };
    // Coordinate integers must be exact u64s: a fractional or negative
    // `n` passes the as_f64 gate above but would collapse to a shared
    // sentinel under unwrap_or(0), making distinct malformed rows
    // "duplicates" of each other instead of errors.
    let uint = |key: &str| -> Result<u64, String> {
        row[key]
            .as_u64()
            .ok_or_else(|| format!("non-integer field {key:?} (got {:?})", row[key]))
    };
    Ok((
        uint("n")?,
        uint("threads")?,
        text("candidates")?,
        text("head_index")?,
        text("q_rows")?,
        // Gated non-null by the APPEND_KEY_FIELDS loop above.
        row["lambda"].as_f64().map(f64::to_bits).unwrap_or(0),
        uint("rounds")?,
    ))
}

/// Fold fresh sweep rows into the rows of an existing artifact
/// (`--append`). Two failure modes are rejected up front instead of
/// corrupting the merged artifact silently:
///
/// - a prior row that predates [`SCALE_SCHEMA`] (missing `lambda`, the
///   merge residue counters, or `residue_fraction`) would slip past the
///   7-tuple compare key forever — matched by nothing, gated by
///   nothing — so it is a structured error naming the schema, not a
///   carry-through;
/// - a fresh row whose 7-tuple coordinate already exists in the prior
///   set would make every later baseline lookup pick one of the two at
///   random (`find` order), so duplicates are an error naming the
///   coordinate — re-run without `--append` to replace a point.
fn append_runs(
    prior: &[serde_json::Value],
    fresh: Vec<serde_json::Value>,
) -> Result<Vec<serde_json::Value>, String> {
    let mut seen = std::collections::BTreeSet::new();
    for (i, row) in prior.iter().enumerate() {
        let key = append_key(row).map_err(|e| {
            format!(
                "existing runs[{i}] predates {SCALE_SCHEMA}: {e}; \
                 re-run the full sweep instead of appending onto a stale artifact"
            )
        })?;
        // Prior rows are trusted pairwise-distinct (this function
        // rejected duplicates when they were appended); record them so
        // fresh rows cannot collide with any.
        seen.insert(key);
    }
    let mut merged = prior.to_vec();
    for (i, row) in fresh.into_iter().enumerate() {
        let key = append_key(&row)
            .map_err(|e| format!("fresh runs[{i}] is not a {SCALE_SCHEMA} row: {e}"))?;
        if !seen.insert(key.clone()) {
            return Err(format!(
                "--append would duplicate the point n={} threads={} candidates={} \
                 head-index={} q-rows={} lambda={} rounds={}: the artifact already \
                 records it; drop --append to replace the artifact",
                key.0,
                key.1,
                key.2,
                key.3,
                key.4,
                f64::from_bits(key.5),
                key.6,
            ));
        }
        merged.push(row);
    }
    Ok(merged)
}

/// Compare a fresh sweep against a committed baseline artifact.
///
/// Points are matched on `(n, threads, candidates, head_index, q_rows,
/// lambda, rounds)`; `Ok` carries one message per matched point whose
/// `packets_per_sec` fell more than [`REGRESSION_TOLERANCE`] below the
/// baseline, whose `residue_fraction` grew more than
/// [`RESIDUE_TOLERANCE`] (absolute) past it (both sides must carry a
/// measured fraction — sequential runs' `null` skips the gate), or —
/// at `n ≥` [`RSS_GATE_MIN_N`], when both sides carry the counter —
/// whose `peak_rss_bytes` grew more than [`RSS_TOLERANCE`] past it
/// (empty = gate passes). `Err` means the comparison itself is
/// impossible — unreadable or schema-stale baseline, or no point in
/// common.
fn compare_against_baseline(
    fresh: &[ScaleRun],
    baseline_text: &str,
) -> Result<Vec<String>, String> {
    validate_scale_json(baseline_text).map_err(|e| format!("baseline invalid: {e}"))?;
    let base: serde_json::Value =
        serde_json::from_str(baseline_text).expect("validated baseline parses");
    let base_runs = base["runs"]
        .as_array()
        .expect("validated baseline has runs");
    let mut regressions = Vec::new();
    let mut matched = 0usize;
    for run in fresh {
        let Some(b) = base_runs.iter().find(|b| {
            b["n"].as_u64() == Some(run.n as u64)
                && b["threads"].as_u64() == Some(run.threads as u64)
                && b["candidates"].as_str() == Some(run.candidates.as_str())
                && b["head_index"].as_str() == Some(run.head_index.as_str())
                && b["q_rows"].as_str() == Some(run.q_rows.as_str())
                && b["lambda"].as_f64().map(f64::to_bits) == Some(run.lambda.to_bits())
                && b["rounds"].as_u64() == Some(run.rounds as u64)
        }) else {
            continue;
        };
        matched += 1;
        let base_pps = b["packets_per_sec"].as_f64().expect("validated numeric");
        let floor = base_pps * (1.0 - REGRESSION_TOLERANCE);
        if run.packets_per_sec < floor {
            regressions.push(format!(
                "N={} threads={} candidates={} head-index={} q-rows={}: {:.0} packets/s vs \
                 baseline {:.0} (below the {:.0}% floor {:.0})",
                run.n,
                run.threads,
                run.candidates,
                run.head_index,
                run.q_rows,
                run.packets_per_sec,
                base_pps,
                (1.0 - REGRESSION_TOLERANCE) * 100.0,
                floor,
            ));
        }
        // The residue gate needs a measured fraction on BOTH sides.
        // `None`/`null` means the merge classified nothing
        // (`threads = 1`, or a round set that generated no
        // packets — e.g. a full-blackout cell), which is not the same
        // measurement as a fraction of 0.0: zero-filling it would flag
        // any later measured fraction > RESIDUE_TOLERANCE as a
        // regression against a run that never measured one. Null-vs-
        // number pairs skip the gate explicitly, mirroring the
        // `latency_mean_slots: null` treatment.
        match (run.residue_fraction(), b["residue_fraction"].as_f64()) {
            (None, _) | (_, None) => {}
            (Some(fresh_rf), Some(base_rf)) if fresh_rf > base_rf + RESIDUE_TOLERANCE => {
                regressions.push(format!(
                    "N={} threads={} candidates={} head-index={} q-rows={} lambda={}: residue \
                     fraction {:.3} vs baseline {:.3} (above the +{:.2} absolute ceiling — \
                     each round's clean frontier closes earlier)",
                    run.n,
                    run.threads,
                    run.candidates,
                    run.head_index,
                    run.q_rows,
                    run.lambda,
                    fresh_rf,
                    base_rf,
                    RESIDUE_TOLERANCE,
                ));
            }
            (Some(_), Some(_)) => {}
        }
        if run.n >= RSS_GATE_MIN_N {
            if let (Some(rss), Some(base_rss)) = (run.peak_rss_bytes, b["peak_rss_bytes"].as_u64())
            {
                let ceiling = base_rss as f64 * (1.0 + RSS_TOLERANCE);
                if rss as f64 > ceiling {
                    regressions.push(format!(
                        "N={} threads={} candidates={} head-index={} q-rows={}: peak RSS \
                         {:.1} MB vs baseline {:.1} MB (above the +{:.0}% ceiling {:.1} MB)",
                        run.n,
                        run.threads,
                        run.candidates,
                        run.head_index,
                        run.q_rows,
                        rss as f64 / 1e6,
                        base_rss as f64 / 1e6,
                        RSS_TOLERANCE * 100.0,
                        ceiling / 1e6,
                    ));
                }
            }
        }
    }
    if matched == 0 {
        return Err(
            "no (n, threads, candidates, head_index, q_rows, lambda, rounds) point in common \
             with the baseline"
                .into(),
        );
    }
    Ok(regressions)
}

/// Flags that take the next argument as their value.
const VALUE_FLAGS: [&str; 11] = [
    "--sizes",
    "--threads",
    "--rounds",
    "--candidates",
    "--head-index",
    "--lambda",
    "--seed",
    "--events-sink",
    "--out",
    "--compare",
    "--gate-thread-scaling",
];

/// Flags that stand alone.
const SWITCH_FLAGS: [&str; 2] = ["--append", "--validate"];

/// Reject anything that is not a known flag (with its value, for
/// [`VALUE_FLAGS`]): a misspelt or retired flag would otherwise be
/// ignored and the sweep would run with a default in its place.
fn check_flags(args: &[String]) -> Result<(), String> {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if VALUE_FLAGS.contains(&arg.as_str()) {
            if rest.next().is_none() {
                return Err(format!("{arg} needs a value"));
            }
        } else if !SWITCH_FLAGS.contains(&arg.as_str()) {
            let allowed: Vec<&str> = VALUE_FLAGS.iter().chain(&SWITCH_FLAGS).copied().collect();
            return Err(format!(
                "unknown option {arg} (allowed: {})",
                allowed.join(", ")
            ));
        }
    }
    Ok(())
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Bad invocation: structured message on stderr, exit 2, no panic.
fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Parse a comma-separated list of positive integers for `flag`.
fn positive_list(text: &str, flag: &str) -> Vec<usize> {
    let items: Vec<usize> = text
        .split(',')
        .map(|s| match s.trim().parse::<usize>() {
            Ok(v) if v > 0 => v,
            _ => die(&format!("{flag} takes positive integers, got `{s}`")),
        })
        .collect();
    if items.is_empty() {
        die(&format!("{flag} must name at least one value"));
    }
    items
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = check_flags(&args) {
        die(&e);
    }
    let sizes = positive_list(
        &flag_value(&args, "--sizes").unwrap_or_else(|| "100,1000,10000".into()),
        "--sizes",
    );
    let threads_list: Vec<usize> = flag_value(&args, "--threads")
        .unwrap_or_else(|| "1".into())
        .split(',')
        .map(|s| match s.trim() {
            // The engine spells "all cores" as 0; accept `auto` too.
            "auto" => 0,
            t => t
                .parse()
                .unwrap_or_else(|_| die(&format!("--threads takes integers or auto, got `{t}`"))),
        })
        .collect();
    let rounds: u32 = flag_value(&args, "--rounds").map_or(20, |s| match s.parse() {
        Ok(r) if r > 0 => r,
        _ => die(&format!("--rounds takes a positive integer, got `{s}`")),
    });
    let candidates = flag_value(&args, "--candidates").map_or(CandidatePolicy::Fixed(8), |s| {
        CandidatePolicy::parse(&s).unwrap_or_else(|e| die(&format!("--candidates: {e}")))
    });
    let head_modes: Vec<HeadIndexMode> = flag_value(&args, "--head-index")
        .unwrap_or_else(|| "incremental".into())
        .split(',')
        .map(|s| {
            HeadIndexMode::parse(s.trim()).unwrap_or_else(|e| die(&format!("--head-index: {e}")))
        })
        .collect();
    let lambda: f64 = flag_value(&args, "--lambda").map_or(5.0, |s| match s.parse() {
        Ok(l) if l > 0.0 => l,
        _ => die(&format!("--lambda takes a positive number, got `{s}`")),
    });
    let seed: u64 = flag_value(&args, "--seed").map_or(42, |s| {
        s.parse()
            .unwrap_or_else(|_| die(&format!("--seed takes an integer, got `{s}`")))
    });
    let out = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_scale.json".into());
    let events_sinks: Option<Vec<String>> = flag_value(&args, "--events-sink").map(|text| {
        text.split(',')
            .map(|s| match s.trim() {
                kind @ ("sync" | "async") => kind.to_string(),
                other => die(&format!("--events-sink takes sync or async, got `{other}`")),
            })
            .collect()
    });

    let gate_floor: Option<f64> =
        flag_value(&args, "--gate-thread-scaling").map(|s| match s.parse::<f64>() {
            Ok(f) if f > 0.0 => f,
            _ => die(&format!(
                "--gate-thread-scaling takes a positive number, got `{s}`"
            )),
        });

    let mut report = ScaleReport {
        schema: SCALE_SCHEMA.to_string(),
        lambda,
        seed,
        thread_scaling: Vec::new(),
        runs: Vec::new(),
    };
    let mut rows = Vec::new();
    for &n in &sizes {
        for &threads in &threads_list {
            for &mode in &head_modes {
                let mut run = run_size(n, rounds, candidates, mode, threads, lambda, seed);
                eprintln!(
                    "N = {n:>6} × {threads} thread(s), {}: {:.2}s wall, {:.0} packets/s",
                    run.head_index, run.wall_s, run.packets_per_sec
                );
                if let Some(kinds) = &events_sinks {
                    run.events_pipeline = run_events_pipeline(
                        n, rounds, candidates, mode, threads, lambda, seed, kinds,
                    );
                    for row in &run.events_pipeline {
                        eprintln!(
                            "    events via {:<5}: {:>9} events, {:.1} ms on the hot thread \
                             ({:.0} ns/event)",
                            row.sink,
                            row.events,
                            row.hot_ns as f64 / 1e6,
                            row.hot_ns as f64 / row.events.max(1) as f64,
                        );
                    }
                }
                rows.push(vec![
                    run.n.to_string(),
                    run.k.to_string(),
                    run.threads.to_string(),
                    run.head_index.clone(),
                    format!("{:.2}s", run.wall_s),
                    run.packets.to_string(),
                    format!("{:.0}", run.packets_per_sec),
                    format!("{:.4}", run.pdr),
                    run.peak_rss_bytes
                        .map_or("n/a".into(), |b| format!("{:.1}", b as f64 / 1e6)),
                ]);
                report.runs.push(run);
            }
        }
    }
    print_table(
        &format!(
            "scale sweep ({rounds} rounds, candidates = {}, λ = {lambda})",
            policy_label(candidates)
        ),
        &[
            "N",
            "k",
            "thr",
            "index",
            "wall",
            "packets",
            "pkt/s",
            "PDR",
            "peak RSS (MB)",
        ],
        &rows,
    );

    // --append folds the fresh runs into an existing same-schema
    // artifact instead of replacing it (used to add the expensive
    // N = 100k points without re-running the whole sweep). The
    // thread-scaling summary is recomputed over the merged run set, so
    // appended points pick up baselines from the prior rows too.
    let fresh: Vec<serde_json::Value> = report.runs.iter().map(|r| r.to_value()).collect();
    let all_runs = if args.iter().any(|a| a == "--append") {
        match std::fs::read_to_string(&out) {
            Ok(existing) => {
                if let Err(e) = validate_scale_json(&existing) {
                    die(&format!("--append: existing {out} is invalid: {e}"));
                }
                let prior: serde_json::Value =
                    serde_json::from_str(&existing).expect("validated artifact parses");
                match append_runs(prior["runs"].as_array().expect("validated"), fresh) {
                    Ok(merged) => merged,
                    Err(e) => die(&format!("--append: {e}")),
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => fresh,
            Err(e) => die(&format!("--append: cannot read {out}: {e}")),
        }
    } else {
        fresh
    };
    let scaling = thread_scaling_rows(&all_runs);
    for row in &scaling {
        eprintln!(
            "thread scaling: N = {:>6} × {} thread(s): {:.2}x pkt/s vs threads = 1",
            row["n"].as_u64().unwrap_or(0),
            row["threads"].as_u64().unwrap_or(0),
            row["speedup"].as_f64().unwrap_or(0.0),
        );
    }
    write_json(
        &out,
        &ScaleReportValue {
            schema: SCALE_SCHEMA.to_string(),
            lambda,
            seed,
            thread_scaling: scaling.clone(),
            runs: all_runs,
        },
    );

    if args.iter().any(|a| a == "--validate") {
        let text = std::fs::read_to_string(&out).expect("artifact just written");
        match validate_scale_json(&text) {
            Ok(()) => println!("[{out} validates against {SCALE_SCHEMA}]"),
            Err(e) => {
                eprintln!("error: {out} failed schema validation: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some(floor) = gate_floor {
        match gate_thread_scaling(&scaling, floor) {
            Ok((failures, warnings)) => {
                for w in &warnings {
                    eprintln!("warning: thread scaling: {w}");
                }
                if failures.is_empty() {
                    println!("[thread-scaling gate passes at {floor:.2}x]");
                } else {
                    for f in &failures {
                        eprintln!("error: thread scaling: {f}");
                    }
                    std::process::exit(1);
                }
            }
            Err(e) => die(&e),
        }
    }

    if let Some(baseline) = flag_value(&args, "--compare") {
        let text = std::fs::read_to_string(&baseline)
            .unwrap_or_else(|e| panic!("--compare {baseline}: {e}"));
        match compare_against_baseline(&report.runs, &text) {
            Ok(regressions) if regressions.is_empty() => {
                println!("[no packets/s regression vs {baseline}]");
            }
            Ok(regressions) => {
                for r in &regressions {
                    eprintln!("error: regression: {r}");
                }
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("error: cannot compare against {baseline}: {e}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_run(threads: usize, mode: HeadIndexMode) -> ScaleRun {
        run_size(30, 2, CandidatePolicy::Fixed(4), mode, threads, 8.0, 7)
    }

    #[test]
    fn a_tiny_run_produces_a_valid_artifact() {
        let run = tiny_run(1, HeadIndexMode::Incremental);
        let report = ScaleReport {
            schema: SCALE_SCHEMA.to_string(),
            lambda: 8.0,
            seed: 7,
            thread_scaling: Vec::new(),
            runs: vec![run],
        };
        let text = serde_json::to_string_pretty(&report).unwrap();
        validate_scale_json(&text).expect("fresh artifact must validate");
        let r = &report.runs[0];
        assert!(r.wall_s > 0.0);
        assert!(r.packets > 0);
        assert_eq!(r.threads, 1);
        assert_eq!(r.threads_resolved, 1);
        assert_eq!(r.candidates, "4");
        assert_eq!(r.head_index, "incremental");
        assert_eq!(r.q_rows, "sparse");
        assert_eq!(r.phase_wall.len(), Phase::ALL.len());
        assert!(
            r.phase_threads
                .iter()
                .any(|s| s.phase == "transmission/plan"),
            "profiler spans must reach the artifact: {:?}",
            r.phase_threads
        );
        assert!(r.round_p50_ns > 0.0);
        assert!(r.round_p99_ns >= r.round_p50_ns);
    }

    #[test]
    fn events_pipeline_rows_measure_both_sinks() {
        let kinds = ["sync".to_string(), "async".to_string()];
        let rows = run_events_pipeline(
            30,
            2,
            CandidatePolicy::Fixed(4),
            HeadIndexMode::Incremental,
            1,
            8.0,
            7,
            &kinds,
        );
        assert_eq!(rows.len(), 2);
        let sync = &rows[0];
        let asynk = &rows[1];
        assert_eq!(sync.sink, "sync");
        assert!(sync.events > 0);
        assert!(sync.queue.is_none());
        assert_eq!(asynk.sink, "async");
        // Identical simulation, identical event load.
        assert_eq!(asynk.events, sync.events);
        let queue = asynk.queue.as_ref().expect("async row carries counters");
        assert_eq!(queue.enqueued, asynk.events);
        assert_eq!(queue.processed, asynk.events);
        assert_eq!(queue.dropped, 0);
        // Serialized, only the async row has a queue object.
        assert!(sync.to_value().get("queue").is_none());
        assert!(asynk.to_value().get("queue").is_some());
        assert!(sync.to_value()["hot_ns_per_event"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn both_index_modes_produce_identical_reports() {
        let inc = tiny_run(1, HeadIndexMode::Incremental);
        let reb = tiny_run(1, HeadIndexMode::Rebuild);
        assert_eq!(inc.packets, reb.packets);
        assert_eq!(inc.pdr, reb.pdr);
        assert_eq!(inc.alive_end, reb.alive_end);
    }

    #[test]
    fn peak_rss_is_omitted_when_unavailable() {
        let mut run = tiny_run(1, HeadIndexMode::Incremental);
        run.peak_rss_bytes = None;
        let v = run.to_value();
        assert!(
            v.get("peak_rss_bytes").is_none(),
            "absent RSS must drop the field, not write null"
        );
        run.peak_rss_bytes = Some(123);
        assert_eq!(run.to_value()["peak_rss_bytes"].as_u64(), Some(123));
    }

    #[test]
    fn compare_flags_only_real_regressions() {
        let run = tiny_run(1, HeadIndexMode::Incremental);
        let pps = run.packets_per_sec;
        let baseline = |base_pps: f64| {
            let mut base_run = tiny_run(1, HeadIndexMode::Incremental);
            base_run.packets_per_sec = base_pps;
            serde_json::to_string(&ScaleReport {
                schema: SCALE_SCHEMA.to_string(),
                lambda: 8.0,
                seed: 7,
                thread_scaling: Vec::new(),
                runs: vec![base_run],
            })
            .unwrap()
        };
        let fresh = std::slice::from_ref(&run);
        // Fresh matches (or beats) the baseline: no regression.
        assert_eq!(
            compare_against_baseline(fresh, &baseline(pps)).unwrap(),
            Vec::<String>::new()
        );
        // Baseline 10× faster: well past the 20% floor.
        let msgs = compare_against_baseline(fresh, &baseline(pps * 10.0)).unwrap();
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].contains("N=30"), "{}", msgs[0]);
        // A drop within tolerance (fresh at ~83% of baseline) passes.
        assert!(compare_against_baseline(fresh, &baseline(pps * 1.2))
            .unwrap()
            .is_empty());
        // No matching point (threads, head-index mode, q-rows layout,
        // or — v7 — λ differ) → a hard error, not a silent pass.
        let other_lambda = {
            let mut r = tiny_run(1, HeadIndexMode::Incremental);
            r.lambda = 9.0;
            r
        };
        let other_q_rows = {
            let mut r = tiny_run(1, HeadIndexMode::Incremental);
            r.q_rows = "dense".into();
            r
        };
        for other_run in [
            tiny_run(2, HeadIndexMode::Incremental),
            tiny_run(1, HeadIndexMode::Rebuild),
            other_q_rows,
            other_lambda,
        ] {
            let other = serde_json::to_string(&ScaleReport {
                schema: SCALE_SCHEMA.to_string(),
                lambda: 8.0,
                seed: 7,
                thread_scaling: Vec::new(),
                runs: vec![other_run],
            })
            .unwrap();
            assert!(compare_against_baseline(fresh, &other).is_err());
        }
        // Stale-schema baselines are rejected outright.
        assert!(compare_against_baseline(fresh, "{\"schema\":\"qlec-bench-scale/v2\"}").is_err());
    }

    #[test]
    fn validator_rejects_broken_artifacts() {
        assert!(validate_scale_json("not json").is_err());
        assert!(validate_scale_json("{\"schema\":\"other/v0\"}").is_err());
        let no_runs =
            format!("{{\"schema\":\"{SCALE_SCHEMA}\",\"lambda\":5.0,\"seed\":1,\"runs\":[]}}");
        assert!(validate_scale_json(&no_runs).is_err());
        let bad_run = format!(
            "{{\"schema\":\"{SCALE_SCHEMA}\",\"lambda\":5.0,\"seed\":1,\
             \"thread_scaling\":[],\"runs\":[{{\"n\":10}}]}}"
        );
        let err = validate_scale_json(&bad_run).unwrap_err();
        assert!(err.contains("missing numeric field"), "{err}");
    }

    type Fields = Vec<(String, serde_json::Value)>;

    #[test]
    fn validator_enforces_v3_fields() {
        // A v3 row without head_index, and one with an explicit null
        // peak_rss_bytes, must both be rejected.
        let base = tiny_run(1, HeadIndexMode::Incremental);
        let render = |mutate: &dyn Fn(&mut Fields)| {
            let mut fields = match base.to_value() {
                serde_json::Value::Object(fields) => fields,
                _ => unreachable!("runs serialize to objects"),
            };
            mutate(&mut fields);
            let report = ScaleReportValue {
                schema: SCALE_SCHEMA.to_string(),
                lambda: 8.0,
                seed: 7,
                thread_scaling: Vec::new(),
                runs: vec![serde_json::Value::Object(fields)],
            };
            serde_json::to_string(&report).unwrap()
        };
        let no_mode = render(&|fields| fields.retain(|(k, _)| k != "head_index"));
        let err = validate_scale_json(&no_mode).unwrap_err();
        assert!(err.contains("head_index"), "{err}");
        let null_rss = render(&|fields| {
            fields.retain(|(k, _)| k != "peak_rss_bytes");
            fields.push(("peak_rss_bytes".into(), serde_json::Value::Null));
        });
        let err = validate_scale_json(&null_rss).unwrap_err();
        assert!(err.contains("peak_rss_bytes"), "{err}");
    }

    #[test]
    fn validator_enforces_v4_fields() {
        let base = tiny_run(1, HeadIndexMode::Incremental);
        let render = |mutate: &dyn Fn(&mut Fields)| {
            let mut fields = match base.to_value() {
                serde_json::Value::Object(fields) => fields,
                _ => unreachable!("runs serialize to objects"),
            };
            mutate(&mut fields);
            let report = ScaleReportValue {
                schema: SCALE_SCHEMA.to_string(),
                lambda: 8.0,
                seed: 7,
                thread_scaling: Vec::new(),
                runs: vec![serde_json::Value::Object(fields)],
            };
            serde_json::to_string(&report).unwrap()
        };
        for missing in [
            "phase_threads",
            "merge_conflicts",
            "merge_retargets",
            "round_p50_ns",
            "round_p99_ns",
        ] {
            let text = render(&|fields| fields.retain(|(k, _)| k != missing));
            let err = validate_scale_json(&text).unwrap_err();
            assert!(err.contains(missing), "{missing}: {err}");
        }
        // An events_pipeline row that claims async must carry counters.
        let bad_pipeline = render(&|fields| {
            fields.push((
                "events_pipeline".into(),
                serde_json::to_value(&vec![EventsPipelineRow {
                    sink: "async".into(),
                    events: 10,
                    hot_ns: 100,
                    queue: None,
                }])
                .unwrap(),
            ));
        });
        let err = validate_scale_json(&bad_pipeline).unwrap_err();
        assert!(err.contains("queue"), "{err}");
        // A well-formed pipeline pair passes.
        let good_pipeline = render(&|fields| {
            fields.push((
                "events_pipeline".into(),
                serde_json::to_value(&vec![
                    EventsPipelineRow {
                        sink: "sync".into(),
                        events: 10,
                        hot_ns: 100,
                        queue: None,
                    },
                    EventsPipelineRow {
                        sink: "async".into(),
                        events: 10,
                        hot_ns: 50,
                        queue: Some(SinkStats {
                            enqueued: 10,
                            processed: 10,
                            dropped: 0,
                            blocked: 0,
                            max_depth: 3,
                            written_lines: 10,
                        }),
                    },
                ])
                .unwrap(),
            ));
        });
        validate_scale_json(&good_pipeline).expect("well-formed pipeline rows validate");
    }

    #[test]
    fn validator_enforces_v5_fields() {
        let base = tiny_run(1, HeadIndexMode::Incremental);
        let render = |mutate: &dyn Fn(&mut Fields)| {
            let mut fields = match base.to_value() {
                serde_json::Value::Object(fields) => fields,
                _ => unreachable!("runs serialize to objects"),
            };
            mutate(&mut fields);
            let report = ScaleReportValue {
                schema: SCALE_SCHEMA.to_string(),
                lambda: 8.0,
                seed: 7,
                thread_scaling: Vec::new(),
                runs: vec![serde_json::Value::Object(fields)],
            };
            serde_json::to_string(&report).unwrap()
        };
        for missing in ["threads_resolved", "merge_shards", "merge_shard_max"] {
            let text = render(&|fields| fields.retain(|(k, _)| k != missing));
            let err = validate_scale_json(&text).unwrap_err();
            assert!(err.contains(missing), "{missing}: {err}");
        }
        // A recorded 0 means the run never resolved `auto` — rejected.
        let zero = render(&|fields| {
            fields.retain(|(k, _)| k != "threads_resolved");
            fields.push(("threads_resolved".into(), 0u64.to_value()));
        });
        let err = validate_scale_json(&zero).unwrap_err();
        assert!(err.contains("threads_resolved"), "{err}");
        // The thread_scaling key itself is mandatory, even when empty.
        let valid = render(&|_| {});
        let mut v: serde_json::Value = serde_json::from_str(&valid).unwrap();
        if let serde_json::Value::Object(top) = &mut v {
            top.retain(|(k, _)| k != "thread_scaling");
        }
        let err = validate_scale_json(&serde_json::to_string(&v).unwrap()).unwrap_err();
        assert!(err.contains("thread_scaling"), "{err}");
        // A malformed scaling row (no speedup) is rejected.
        let mut v: serde_json::Value = serde_json::from_str(&valid).unwrap();
        if let serde_json::Value::Object(top) = &mut v {
            top.retain(|(k, _)| k != "thread_scaling");
            top.push((
                "thread_scaling".into(),
                serde_json::Value::Array(vec![serde_json::Value::Object(vec![(
                    "n".into(),
                    30u64.to_value(),
                )])]),
            ));
        }
        let err = validate_scale_json(&serde_json::to_string(&v).unwrap()).unwrap_err();
        assert!(err.contains("thread_scaling[0]"), "{err}");
    }

    #[test]
    fn validator_enforces_v6_fields() {
        let base = tiny_run(1, HeadIndexMode::Incremental);
        let render = |mutate: &dyn Fn(&mut Fields)| {
            let mut fields = match base.to_value() {
                serde_json::Value::Object(fields) => fields,
                _ => unreachable!("runs serialize to objects"),
            };
            mutate(&mut fields);
            let report = ScaleReportValue {
                schema: SCALE_SCHEMA.to_string(),
                lambda: 8.0,
                seed: 7,
                thread_scaling: Vec::new(),
                runs: vec![serde_json::Value::Object(fields)],
            };
            serde_json::to_string(&report).unwrap()
        };
        // A v6 row must name its Q-row layout …
        let no_q_rows = render(&|fields| fields.retain(|(k, _)| k != "q_rows"));
        let err = validate_scale_json(&no_q_rows).unwrap_err();
        assert!(err.contains("q_rows"), "{err}");
        // … with a recognized spelling.
        let bad_q_rows = render(&|fields| {
            fields.retain(|(k, _)| k != "q_rows");
            fields.push(("q_rows".into(), "huge".to_value()));
        });
        let err = validate_scale_json(&bad_q_rows).unwrap_err();
        assert!(err.contains("sparse or dense"), "{err}");
        validate_scale_json(&render(&|_| {})).expect("untouched row validates");
    }

    #[test]
    fn validator_enforces_v7_fields() {
        let base = tiny_run(1, HeadIndexMode::Incremental);
        let render = |mutate: &dyn Fn(&mut Fields)| {
            let mut fields = match base.to_value() {
                serde_json::Value::Object(fields) => fields,
                _ => unreachable!("runs serialize to objects"),
            };
            mutate(&mut fields);
            let report = ScaleReportValue {
                schema: SCALE_SCHEMA.to_string(),
                lambda: 8.0,
                seed: 7,
                thread_scaling: Vec::new(),
                runs: vec![serde_json::Value::Object(fields)],
            };
            serde_json::to_string(&report).unwrap()
        };
        // Every v7 row carries its own λ and the reservation counters.
        for missing in ["lambda", "merge_clean_commits", "merge_residue"] {
            let text = render(&|fields| fields.retain(|(k, _)| k != missing));
            let err = validate_scale_json(&text).unwrap_err();
            assert!(err.contains(missing), "{missing}: {err}");
        }
        // residue_fraction must be present — number or explicit null,
        // never a missing key or a string.
        let absent = render(&|fields| fields.retain(|(k, _)| k != "residue_fraction"));
        let err = validate_scale_json(&absent).unwrap_err();
        assert!(err.contains("residue_fraction"), "{err}");
        let stringy = render(&|fields| {
            fields.retain(|(k, _)| k != "residue_fraction");
            fields.push(("residue_fraction".into(), "0.7".to_value()));
        });
        let err = validate_scale_json(&stringy).unwrap_err();
        assert!(err.contains("residue_fraction"), "{err}");
        // A sequential run's null fraction validates.
        validate_scale_json(&render(&|_| {})).expect("null residue_fraction validates");
    }

    /// The v7 residue gate: a matched point whose residue fraction
    /// grows more than the absolute tolerance past the baseline fails;
    /// growth within it passes, and a null on either side (sequential
    /// runs never classify) skips the gate.
    #[test]
    fn compare_gates_residue_fraction_growth() {
        let mut run = tiny_run(1, HeadIndexMode::Incremental);
        run.merge_clean_commits = 25;
        run.merge_residue = 75;
        assert_eq!(run.residue_fraction(), Some(0.75));
        // Each baseline row is the fresh row with only the residue
        // counters changed, so the pkt/s gate cannot fire on the
        // wall-clock noise between two separately timed runs.
        let baseline = |fresh: &ScaleRun, clean: u64, residue: u64| {
            let mut base_run = fresh.clone();
            base_run.merge_clean_commits = clean;
            base_run.merge_residue = residue;
            serde_json::to_string(&ScaleReport {
                schema: SCALE_SCHEMA.to_string(),
                lambda: 8.0,
                seed: 7,
                thread_scaling: Vec::new(),
                runs: vec![base_run],
            })
            .unwrap()
        };
        let fresh = std::slice::from_ref(&run);
        // Identical fraction: passes.
        assert!(compare_against_baseline(fresh, &baseline(&run, 25, 75))
            .unwrap()
            .is_empty());
        // +3 points of residue (0.72 -> 0.75): inside the 0.05 ceiling.
        assert!(compare_against_baseline(fresh, &baseline(&run, 28, 72))
            .unwrap()
            .is_empty());
        // Baseline 0.60: fresh 0.75 is 15 points worse — gate fires.
        let msgs = compare_against_baseline(fresh, &baseline(&run, 40, 60)).unwrap();
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("residue fraction"), "{}", msgs[0]);
        // A sequential baseline (null fraction) cannot gate — skip.
        assert!(compare_against_baseline(fresh, &baseline(&run, 0, 0))
            .unwrap()
            .is_empty());
        // And a sequential fresh run is never gated either.
        let seq = tiny_run(1, HeadIndexMode::Incremental);
        assert_eq!(seq.residue_fraction(), None);
        assert!(
            compare_against_baseline(std::slice::from_ref(&seq), &baseline(&seq, 40, 60))
                .unwrap()
                .is_empty()
        );
    }

    /// The v6 peak-RSS gate: at `n ≥ 100 000` a matched point whose
    /// fresh RSS grew more than 25 % past the baseline fails; growth
    /// within tolerance, a small-`n` point, or a baseline without the
    /// counter all pass.
    #[test]
    fn compare_gates_peak_rss_growth_at_scale() {
        let mut run = tiny_run(1, HeadIndexMode::Incremental);
        run.n = RSS_GATE_MIN_N;
        run.peak_rss_bytes = Some(1_000_000_000);
        let baseline = |mutate: &dyn Fn(&mut Fields)| {
            let mut fields = match run.to_value() {
                serde_json::Value::Object(fields) => fields,
                _ => unreachable!("runs serialize to objects"),
            };
            mutate(&mut fields);
            serde_json::to_string(&ScaleReportValue {
                schema: SCALE_SCHEMA.to_string(),
                lambda: 8.0,
                seed: 7,
                thread_scaling: Vec::new(),
                runs: vec![serde_json::Value::Object(fields)],
            })
            .unwrap()
        };
        let with_rss = |rss: Option<u64>| {
            baseline(&move |fields| {
                fields.retain(|(k, _)| k != "peak_rss_bytes");
                if let Some(b) = rss {
                    fields.push(("peak_rss_bytes".into(), b.to_value()));
                }
            })
        };
        let fresh = std::slice::from_ref(&run);
        // Identical RSS: passes.
        assert!(
            compare_against_baseline(fresh, &with_rss(Some(1_000_000_000)))
                .unwrap()
                .is_empty()
        );
        // +11 % growth (baseline 0.9 GB): inside the 25 % ceiling.
        assert!(
            compare_against_baseline(fresh, &with_rss(Some(900_000_000)))
                .unwrap()
                .is_empty()
        );
        // +43 % growth (baseline 0.7 GB): gate fires with the point named.
        let msgs = compare_against_baseline(fresh, &with_rss(Some(700_000_000))).unwrap();
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("peak RSS"), "{}", msgs[0]);
        assert!(msgs[0].contains("q-rows=sparse"), "{}", msgs[0]);
        // A baseline without the counter cannot gate — skip, not fail.
        assert!(compare_against_baseline(fresh, &with_rss(None))
            .unwrap()
            .is_empty());
        // Below the gate's n floor the same growth is allocator noise.
        let mut small = tiny_run(1, HeadIndexMode::Incremental);
        small.peak_rss_bytes = Some(1_000_000_000);
        let small_base = {
            let mut fields = match small.to_value() {
                serde_json::Value::Object(fields) => fields,
                _ => unreachable!(),
            };
            fields.retain(|(k, _)| k != "peak_rss_bytes");
            fields.push(("peak_rss_bytes".into(), 700_000_000u64.to_value()));
            serde_json::to_string(&ScaleReportValue {
                schema: SCALE_SCHEMA.to_string(),
                lambda: 8.0,
                seed: 7,
                thread_scaling: Vec::new(),
                runs: vec![serde_json::Value::Object(fields)],
            })
            .unwrap()
        };
        assert!(
            compare_against_baseline(std::slice::from_ref(&small), &small_base)
                .unwrap()
                .is_empty()
        );
    }

    #[test]
    fn thread_scaling_rows_pair_points_with_their_baselines() {
        let base = tiny_run(1, HeadIndexMode::Incremental);
        let mut fast = tiny_run(2, HeadIndexMode::Incremental);
        // Pin the headline numbers so the speedup is exact.
        fast.packets_per_sec = base.packets_per_sec * 2.0;
        let rows = thread_scaling_rows(&[base.to_value(), fast.to_value()]);
        assert_eq!(rows.len(), 1, "one scaled point, one row");
        let row = &rows[0];
        assert_eq!(row["n"].as_u64(), Some(30));
        assert_eq!(row["threads"].as_u64(), Some(2));
        assert_eq!(row["threads_resolved"].as_u64(), Some(2));
        let speedup = row["speedup"].as_f64().unwrap();
        assert!((speedup - 2.0).abs() < 1e-9, "{speedup}");
        let phases = row["phases"].as_array().unwrap();
        assert!(!phases.is_empty(), "both runs spent time in some phase");
        for p in phases {
            assert!(p["speedup"].as_f64().unwrap() > 0.0);
        }
        // A scaled point with no threads = 1 partner contributes
        // nothing (a rebuild-mode run has different coordinates).
        let orphan = tiny_run(2, HeadIndexMode::Rebuild);
        assert!(thread_scaling_rows(&[base.to_value(), orphan.to_value()]).is_empty());
        // v7: λ is part of the pairing key — a baseline at a different
        // congestion level is no baseline at all.
        let other_lambda = run_size(
            30,
            2,
            CandidatePolicy::Fixed(4),
            HeadIndexMode::Incremental,
            2,
            9.0,
            7,
        );
        assert!(thread_scaling_rows(&[base.to_value(), other_lambda.to_value()]).is_empty());
        // The gate refuses to pass vacuously on an empty summary, and —
        // v7 — on a summary with no row at the N >= 10k gate floor.
        assert!(gate_thread_scaling(&[], 1.3).is_err());
        let err = gate_thread_scaling(&rows, 1.5).unwrap_err();
        assert!(err.contains("10000"), "{err}");
        // At gateable N the floor fails points below it and passes
        // points above; a small-N point missing the floor only warns.
        let resize = |row: &serde_json::Value, n: u64| {
            let mut fields = match row.clone() {
                serde_json::Value::Object(fields) => fields,
                _ => unreachable!("scaling rows serialize to objects"),
            };
            fields.retain(|(k, _)| k != "n");
            fields.push(("n".into(), n.to_value()));
            serde_json::Value::Object(fields)
        };
        let gated: Vec<serde_json::Value> = rows.iter().map(|r| resize(r, 10_000)).collect();
        let (failures, warnings) = gate_thread_scaling(&gated, 1.5).unwrap();
        assert_eq!(failures, Vec::<String>::new());
        assert_eq!(warnings, Vec::<String>::new());
        let (failures, warnings) = gate_thread_scaling(&gated, 2.5).unwrap();
        assert_eq!(failures.len(), 1);
        assert!(
            failures[0].contains("below the 2.50x floor"),
            "{}",
            failures[0]
        );
        assert!(warnings.is_empty());
        // Mixed sweep: the small point warns, the large one gates.
        let mixed: Vec<serde_json::Value> = vec![resize(&rows[0], 100), resize(&rows[0], 10_000)];
        let (failures, warnings) = gate_thread_scaling(&mixed, 2.5).unwrap();
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("oversubscription"), "{}", warnings[0]);
    }

    /// The `--append` merge on a mixed-schema artifact: rows that
    /// predate v7 (no `lambda`, no residue counters) must be a
    /// structured error naming the schema, not a silent carry-through
    /// that no later 7-tuple lookup would ever match.
    #[test]
    fn append_rejects_pre_v7_rows_with_the_schema_named() {
        let fresh = vec![tiny_run(1, HeadIndexMode::Incremental).to_value()];
        let strip = |key: &str| {
            let mut fields = match tiny_run(1, HeadIndexMode::Rebuild).to_value() {
                serde_json::Value::Object(fields) => fields,
                _ => unreachable!("runs serialize to objects"),
            };
            fields.retain(|(k, _)| k != key);
            serde_json::Value::Object(fields)
        };
        for key in [
            "lambda",
            "merge_residue",
            "merge_clean_commits",
            "residue_fraction",
        ] {
            let err = append_runs(&[strip(key)], fresh.clone()).unwrap_err();
            assert!(err.contains(SCALE_SCHEMA), "{key}: {err}");
            assert!(err.contains(key), "{key}: {err}");
            assert!(err.contains("runs[0]"), "{key}: {err}");
        }
        // The same stripped row arriving as a *fresh* run is equally
        // rejected (a hand-edited artifact fed back through --append).
        let err = append_runs(&[], vec![strip("lambda")]).unwrap_err();
        assert!(err.contains("fresh runs[0]"), "{err}");
    }

    /// A coordinate field that is numeric but not an exact u64 — a
    /// fractional or negative `n` — passes the as_f64 schema gate, and
    /// used to collapse to 0 in the dedup key, so two distinct
    /// malformed rows were reported as duplicates of each other. They
    /// must instead be rejected individually, naming the bad field.
    #[test]
    fn append_rejects_non_integer_coordinates() {
        let with_n = |n: serde_json::Value| {
            let mut fields = match tiny_run(1, HeadIndexMode::Rebuild).to_value() {
                serde_json::Value::Object(fields) => fields,
                _ => unreachable!("runs serialize to objects"),
            };
            fields.retain(|(k, _)| k != "n");
            fields.push(("n".into(), n));
            serde_json::Value::Object(fields)
        };
        for bad in [serde_json::Value::Float(24.5), serde_json::Value::Int(-24)] {
            let err = append_runs(&[with_n(bad.clone())], vec![]).unwrap_err();
            assert!(err.contains("non-integer field \"n\""), "{bad:?}: {err}");
            assert!(err.contains(SCALE_SCHEMA), "{bad:?}: {err}");
        }
        // Two differently-malformed rows are two schema errors, not a
        // "duplicate coordinate" report at the collapsed (n=0) point.
        let err = append_runs(
            &[],
            vec![
                with_n(serde_json::Value::Float(24.5)),
                with_n(serde_json::Value::Float(99.5)),
            ],
        )
        .unwrap_err();
        assert!(err.contains("non-integer field \"n\""), "{err}");
        assert!(!err.contains("duplicate"), "{err}");
    }

    #[test]
    fn append_merges_distinct_points_and_rejects_duplicates() {
        let prior = tiny_run(1, HeadIndexMode::Incremental).to_value();
        let other = tiny_run(2, HeadIndexMode::Incremental).to_value();
        // Distinct coordinates merge, prior rows first.
        let merged = append_runs(std::slice::from_ref(&prior), vec![other.clone()])
            .expect("distinct points append");
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0]["threads"].as_u64(), Some(1));
        assert_eq!(merged[1]["threads"].as_u64(), Some(2));
        // Appending the same 7-tuple coordinate again is an error that
        // names the point instead of silently double-counting it.
        let err = append_runs(&merged, vec![prior.clone()]).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
        assert!(err.contains("n=30 threads=1"), "{err}");
        assert!(err.contains("lambda=8"), "{err}");
        // A duplicate inside the fresh batch itself is caught too.
        let err = append_runs(&[], vec![prior.clone(), prior]).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn flag_parsing_finds_values() {
        let args: Vec<String> = ["--sizes", "100,200", "--validate", "--rounds", "3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flag_value(&args, "--sizes").as_deref(), Some("100,200"));
        assert_eq!(flag_value(&args, "--rounds").as_deref(), Some("3"));
        assert_eq!(flag_value(&args, "--out"), None);
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_flags_are_rejected_by_name() {
        assert_eq!(check_flags(&[]), Ok(()));
        assert_eq!(
            check_flags(&strings(&["--sizes", "100", "--append", "--validate"])),
            Ok(())
        );
        // The retired `--q-rows` axis names itself and the allowed set.
        let err = check_flags(&strings(&["--sizes", "100", "--q-rows", "dense"])).unwrap_err();
        assert!(err.starts_with("unknown option --q-rows"), "{err}");
        for flag in VALUE_FLAGS.iter().chain(&SWITCH_FLAGS) {
            assert!(err.contains(flag), "{err} does not list {flag}");
        }
        // A value is not mistaken for a flag, a stray word is not a value.
        assert_eq!(check_flags(&strings(&["--out", "--validate"])), Ok(()));
        let err = check_flags(&strings(&["--validate", "extra"])).unwrap_err();
        assert!(err.starts_with("unknown option extra"), "{err}");
        assert_eq!(
            check_flags(&strings(&["--rounds"])),
            Err("--rounds needs a value".into())
        );
    }

    /// Every `scale` invocation in the CI workflow (a folded `run: >`
    /// block: the `--bin scale --` line, then lines of flags) parses.
    #[test]
    fn ci_scale_invocations_parse() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../.github/workflows/ci.yml"
        );
        let ci = std::fs::read_to_string(path).expect("CI workflow readable");
        let mut lines = ci.lines().peekable();
        let mut seen = 0;
        while let Some(line) = lines.next() {
            if !line.trim_end().ends_with("--bin scale --") {
                continue;
            }
            let mut args = Vec::new();
            while let Some(next) = lines.peek() {
                if !next.trim_start().starts_with("--") {
                    break;
                }
                args.extend(next.split_whitespace().map(str::to_string));
                lines.next();
            }
            assert_eq!(check_flags(&args), Ok(()), "CI invocation {args:?}");
            seen += 1;
        }
        assert!(seen >= 4, "found only {seen} scale invocations in {path}");
    }
}
