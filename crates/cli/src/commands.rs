//! Subcommand implementations. Each takes [`ParsedArgs`] and returns the
//! text to print (testable without spawning the binary).

use crate::args::ParsedArgs;
use crate::spec::{SimSpec, SPEC_FIELDS};
use qlec_clustering::deec::DeecProtocol;
use qlec_clustering::heed::HeedProtocol;
use qlec_clustering::leach::LeachProtocol;
use qlec_clustering::{FcmProtocol, KMeansProtocol};
use qlec_core::params::{CandidatePolicy, HeadIndexMode, QlecParams};
use qlec_core::{kopt, QlecProtocol};
use qlec_dataset::{generate_china, records, GeneratorConfig};
use qlec_geom::sample::MEAN_DIST_TO_CENTER_UNIT_CUBE;
use qlec_net::trace::TraceSink;
use qlec_net::{
    FaultDriver, FaultPlan, MergeOutcome, NetworkBuilder, Protocol, SimConfig, SimReport, Simulator,
};
use qlec_obs::{
    AsyncJsonLinesSink, Backpressure, EventsMode, JsonLinesSink, MemorySink, ObserverSet,
    PhaseProfiler, DEFAULT_QUEUE_CAPACITY,
};
use qlec_radio::link::{AnyLink, DistanceLossLink};
use qlec_radio::RadioModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Top-level usage text.
pub const USAGE: &str = "\
qlec-sim — QLEC (ICPP 2019) reproduction CLI

USAGE:
  qlec-sim run      [--spec FILE.json]
                    [--protocol qlec|fcm|kmeans|leach|deec|heed] [--n 100]
                    [--m 200] [--energy 5] [--k 5] [--lambda 5] [--rounds 20]
                    [--seed 42] [--death-line 0] [--threads 1]
                    [--candidates auto|full|C]
                    [--head-index incremental|rebuild] [--q-rows sparse|dense]
                    [--json]
                    [--trace FILE] [--svg FILE] [--chart FILE]
                    [--events FILE|-] [--events-mode full|sample:R|aggregate]
                    [--sink sync|async|async:drop] [--profile FILE]
                    [--metrics FILE] [--faults FILE]
  qlec-sim compare  [--n 100] [--m 200] [--k 5] [--lambda 5] [--rounds 20]
                    [--seeds 3]
  qlec-sim dataset  [--count 2896] [--seed 42] [--out FILE]
  qlec-sim kopt     [--n 100] [--m 200] [--d-to-bs <auto>]
  qlec-sim help

NOTES:
  --spec loads the whole run description (protocol, deployment, traffic,
  engine knobs) from one typed JSON file — the same shape `SimSpec`
  serializes, every field optional with the flag defaults, unknown
  fields rejected. It replaces the per-run flags: combining --spec with
  any of them is an error. Artifact flags (--events, --trace, --json,
  ...) still apply, so one spec file reproduces one experiment under
  any output set.
  --faults loads a JSON fault plan (see crates/fault/README.md and
  examples/faults.json) and replays it during the run. A spec file may
  instead embed the plan inline under its `faults` key (what the soak
  harness writes for its reproducers); combining an inline plan with
  --faults is an error.
  --events - streams the event log to stdout with wall-clock timings
  suppressed, so identical seeds and plans give byte-identical streams.
  --events-mode sample:R keeps roughly the fraction R of the per-packet
  events (counter-based, still deterministic); aggregate replaces them
  with one RoundSummary digest per round.
  --sink async moves event serialization and file I/O off the hot
  simulation thread onto a dedicated writer behind a bounded queue.
  The default block backpressure keeps the stream byte-identical to
  --sink sync; async:drop sheds events when the queue fills (counted
  in the profile's sink.dropped, never valid for determinism diffs).
  --profile FILE writes a qlec-profile/v1 JSON report (per-phase
  per-thread busy/wall, merge conflict/retarget counters, p50/p90/p99
  round latency, thread utilization; with T > 1 threads also the merge
  walk's clean-commit/residue split) and appends the rendered table —
  including the derived merge.residue_fraction — to the text output.
  Profiling never changes the event stream.
  --threads T fans the round engine's hot phases over T workers
  (auto = every core; 0 is rejected). Pure throughput knob: any T
  produces byte-identical events and reports.
  --candidates sets QLEC's Send-Data pruning: auto derives the
  Theorem-1 budget k if k <= 8 else min(k, ceil(8 + sqrt(16 ln k)))
  (default), full is the paper-exact full scan, an integer C pins
  the budget.
  --head-index picks how QLEC maintains its spatial indexes:
  incremental (default) applies per-round deltas with a churn-triggered
  rebuild fallback, rebuild reconstructs them every round. Both modes
  produce byte-identical events and reports.
  --q-rows sparse|dense is accepted for existing specs and scripts but
  selects nothing: the router computes each Q-value per packet and never
  stores Q-rows, so both spellings produce byte-identical events and
  reports.
";

/// Dispatch a parsed command line.
pub fn dispatch(args: &ParsedArgs) -> Result<String, String> {
    match args.command.as_str() {
        "run" => cmd_run(args),
        "compare" => cmd_compare(args),
        "dataset" => cmd_dataset(args),
        "kopt" => cmd_kopt(args),
        "" | "help" | "--help" => Ok(USAGE.to_string()),
        other => Err(format!("unknown subcommand {other:?}\n\n{USAGE}")),
    }
}

/// Build the spec's protocol instance against the given observer set.
/// Public for the corpus/soak harness (`crates/corpus`), which drives
/// the exact CLI construction path in-process so its byte-diffs cover
/// what `qlec-sim run` actually executes.
pub fn build_spec_protocol(spec: &SimSpec, obs: &ObserverSet) -> Result<Box<dyn Protocol>, String> {
    build_protocol(
        &spec.protocol,
        spec.k,
        spec.rounds,
        spec.candidates,
        spec.head_index,
        obs,
    )
}

/// Run a spec end to end with the given observers — the spec's inline
/// fault plan (if any) is bound — and return the report together with
/// the whole-run stage-2 [`MergeOutcome`] totals. This is the typed
/// equivalent of `qlec-sim run`; the corpus runner and soak harness
/// call it so every cell exercises the CLI's own execution path.
pub fn run_spec(spec: &SimSpec, obs: ObserverSet) -> Result<(SimReport, MergeOutcome), String> {
    spec.validate()?;
    let mut protocol = build_spec_protocol(spec, &obs)?;
    Ok(execute_observed_outcome(
        spec,
        protocol.as_mut(),
        obs,
        spec.faults.clone(),
    ))
}

fn build_protocol(
    name: &str,
    k: usize,
    rounds: u32,
    candidates: CandidatePolicy,
    head_index: HeadIndexMode,
    obs: &ObserverSet,
) -> Result<Box<dyn Protocol>, String> {
    Ok(match name {
        "qlec" => Box::new(
            QlecProtocol::builder()
                .params(QlecParams {
                    total_rounds: rounds,
                    candidates,
                    head_index,
                    ..QlecParams::paper_with_k(k)
                })
                .observer(obs.clone())
                .build(),
        ),
        "fcm" => Box::new(FcmProtocol::new(k)),
        "kmeans" | "k-means" => Box::new(KMeansProtocol::new(k)),
        "leach" => Box::new(LeachProtocol::new(k)),
        "deec" => Box::new(DeecProtocol::new(k, rounds)),
        "heed" => Box::new(HeedProtocol::with_target_k(200.0, k)),
        other => return Err(format!("unknown protocol {other:?}")),
    })
}

/// Resolve the run description: `--spec FILE.json` loads the whole
/// [`SimSpec`]; otherwise the individual flags assemble one. Mixing the
/// two is rejected per offending flag, so a spec file stays the single
/// source of truth for the experiment it names.
fn load_spec(args: &ParsedArgs) -> Result<SimSpec, String> {
    let Some(path) = args.get("spec") else {
        return SimSpec::from_args(args);
    };
    if path.is_empty() {
        return Err("--spec needs a file path".into());
    }
    for field in SPEC_FIELDS {
        // `--faults FILE` composes with a spec (it names a side-car
        // file, not a run-shape value); a spec that *also* carries an
        // inline plan is rejected in `cmd_run`.
        if *field == "faults" {
            continue;
        }
        let flag = field.replace('_', "-");
        if args.has(&flag) {
            return Err(format!(
                "--spec conflicts with --{flag}: put the value in the spec file"
            ));
        }
    }
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read spec {path}: {e}"))?;
    SimSpec::from_json(&text).map_err(|e| format!("{path}: not a run spec: {e}"))
}

/// Run the spec'd simulation with no observers (the `compare` path).
fn execute(spec: &SimSpec, protocol: &mut dyn Protocol) -> SimReport {
    execute_observed(spec, protocol, ObserverSet::new(), None)
}

/// Run the spec'd simulation: deployment from the seed, paper-shaped
/// config with the spec's overrides, faults bound if a plan was loaded.
fn execute_observed(
    spec: &SimSpec,
    protocol: &mut dyn Protocol,
    obs: ObserverSet,
    faults: Option<FaultPlan>,
) -> SimReport {
    execute_observed_outcome(spec, protocol, obs, faults).0
}

/// [`execute_observed`] plus the whole-run merge totals.
fn execute_observed_outcome(
    spec: &SimSpec,
    protocol: &mut dyn Protocol,
    obs: ObserverSet,
    faults: Option<FaultPlan>,
) -> (SimReport, MergeOutcome) {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let net = NetworkBuilder::new()
        .link(AnyLink::DistanceLoss(DistanceLossLink::for_cube(spec.m)))
        .uniform_cube(&mut rng, spec.n, spec.m, spec.energy);
    let mut cfg = SimConfig::paper(spec.lambda);
    cfg.rounds = spec.rounds;
    cfg.death_line = spec.death_line;
    cfg.stop_when_dead = spec.death_line > 0.0;
    cfg.threads = spec.threads;
    let mut sim = Simulator::builder(net).config(cfg).observers(obs);
    if let Some(plan) = faults {
        sim = sim.faults(FaultDriver::new(plan).expect("plan validated on load"));
    }
    sim.build().run_with_outcome(protocol, &mut rng)
}

/// Load and validate the `--faults` plan, if requested.
fn load_faults(args: &ParsedArgs) -> Result<Option<FaultPlan>, String> {
    match args.get("faults") {
        None => Ok(None),
        Some("") => Err("--faults needs a file path".into()),
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read fault plan {path}: {e}"))?;
            let plan: FaultPlan = serde_json::from_str(&text)
                .map_err(|e| format!("{path}: not a fault plan: {e}"))?;
            plan.validate()
                .map_err(|e| format!("{path}: invalid fault plan: {e}"))?;
            Ok(Some(plan))
        }
    }
}

/// How `--events` output reaches its writer: inline on the simulation
/// thread, or through the off-hot-thread pipeline.
#[derive(Debug, Clone, Copy)]
enum SinkKind {
    Sync,
    Async(Backpressure),
}

fn parse_sink_kind(text: &str) -> Result<SinkKind, String> {
    match text {
        "sync" => Ok(SinkKind::Sync),
        "async" | "async:block" => Ok(SinkKind::Async(Backpressure::Block)),
        "async:drop" => Ok(SinkKind::Async(Backpressure::Drop)),
        other => Err(format!(
            "--sink: unknown pipeline {other:?} (expected sync, async, or async:drop)"
        )),
    }
}

/// Attach the events sink either directly or behind the async pipeline;
/// returns a handle to the pipeline so its counters survive the run.
fn attach_events_sink<W: std::io::Write + Send + 'static>(
    obs: &mut ObserverSet,
    sink: JsonLinesSink<W>,
    kind: SinkKind,
) -> Option<Arc<Mutex<AsyncJsonLinesSink>>> {
    match kind {
        SinkKind::Sync => {
            obs.attach(Arc::new(Mutex::new(sink)));
            None
        }
        SinkKind::Async(policy) => {
            let pipeline = Arc::new(Mutex::new(AsyncJsonLinesSink::with_capacity(
                sink,
                DEFAULT_QUEUE_CAPACITY,
                policy,
            )));
            obs.attach(pipeline.clone());
            Some(pipeline)
        }
    }
}

fn cmd_run(args: &ParsedArgs) -> Result<String, String> {
    args.ensure_known(&[
        "protocol",
        "n",
        "m",
        "energy",
        "k",
        "lambda",
        "rounds",
        "seed",
        "death-line",
        "threads",
        "candidates",
        "head-index",
        "q-rows",
        "json",
        "trace",
        "svg",
        "chart",
        "events",
        "events-mode",
        "sink",
        "profile",
        "metrics",
        "faults",
        "spec",
    ])?;
    let setup = load_spec(args)?;
    setup.validate()?;
    // A plan can arrive inline in the spec or via `--faults FILE`, but
    // not both — two plans have no defined merge order.
    let faults = match (setup.faults.clone(), load_faults(args)?) {
        (Some(_), Some(_)) => {
            return Err(
                "--faults conflicts with the spec's inline `faults` plan: keep the plan in \
                 one place"
                    .into(),
            )
        }
        (inline, from_flag) => inline.or(from_flag),
    };
    let name = setup.protocol.clone();

    // Flags that need a file path must have one before the run starts.
    let file_arg = |key: &str| -> Result<Option<&str>, String> {
        match args.get(key) {
            Some("") => Err(format!("--{key} needs a file path")),
            other => Ok(other),
        }
    };

    // Assemble the observer set: every requested artifact is one sink on
    // the same event stream.
    let mut obs = ObserverSet::new();
    // The profiler collects out-of-band, so it attaches before the
    // protocol captures its clone of the observer set.
    let profile_path = file_arg("profile")?.map(str::to_string);
    let profiler = profile_path
        .as_ref()
        .map(|_| Arc::new(PhaseProfiler::new()));
    if let Some(p) = &profiler {
        obs = obs.with_profiler(p.clone());
    }
    let needs_trace = args.has("trace") || args.has("chart");
    let trace_sink = if needs_trace {
        file_arg("trace")?;
        let sink = Arc::new(Mutex::new(TraceSink::new(&name)));
        obs.attach(sink.clone());
        Some(sink)
    } else {
        None
    };
    let events_mode = match args.get("events-mode") {
        None => EventsMode::Full,
        Some(text) => EventsMode::parse(text).map_err(|e| format!("--events-mode: {e}"))?,
    };
    if args.has("events-mode") && !args.has("events") {
        return Err("--events-mode needs --events".into());
    }
    let sink_kind = match args.get("sink") {
        None => SinkKind::Sync,
        Some(text) => parse_sink_kind(text)?,
    };
    if args.has("sink") && !args.has("events") {
        return Err("--sink needs --events".into());
    }
    let mut events_pipeline = None;
    if let Some(path) = file_arg("events")? {
        if path == "-" {
            // Stdout stream: suppress the wall-clock-bearing events so the
            // same seed (and fault plan) yields a byte-identical stream.
            let sink = JsonLinesSink::new(std::io::stdout())
                .map_err(|e| format!("cannot write events to stdout: {e}"))?
                .deterministic()
                .with_mode(events_mode);
            events_pipeline = attach_events_sink(&mut obs, sink, sink_kind);
        } else {
            let file =
                std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            let sink = JsonLinesSink::new(std::io::BufWriter::new(file))
                .map_err(|e| format!("cannot write {path}: {e}"))?
                .with_mode(events_mode);
            events_pipeline = attach_events_sink(&mut obs, sink, sink_kind);
        }
    }
    let metrics_sink = match file_arg("metrics")? {
        Some(_) => {
            let sink = Arc::new(Mutex::new(MemorySink::new()));
            obs.attach(sink.clone());
            Some(sink)
        }
        None => None,
    };

    let mut protocol = build_protocol(
        &name,
        setup.k,
        setup.rounds,
        setup.candidates,
        setup.head_index,
        &obs,
    )?;
    let report = execute_observed(&setup, protocol.as_mut(), obs.clone(), faults);
    obs.flush()
        .map_err(|e| format!("observer flush failed: {e}"))?;

    // Everything is on disk now: snapshot the pipeline counters and
    // write the profile report.
    let sink_stats = events_pipeline
        .as_ref()
        .map(|p| p.lock().expect("events pipeline poisoned").stats());
    let profile_report = profiler.as_ref().map(|p| p.report());
    if let (Some(path), Some(profile)) = (&profile_path, &profile_report) {
        let mut value = serde_json::to_value(profile).map_err(|e| e.to_string())?;
        if let (Some(stats), serde_json::Value::Object(fields)) = (&sink_stats, &mut value) {
            // The async pipeline's counters belong in the profile: they
            // are observability about the run, not about the network.
            fields.push((
                "sink".to_string(),
                serde_json::to_value(stats).map_err(|e| e.to_string())?,
            ));
        }
        let json = serde_json::to_string_pretty(&value).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
    }

    let write_artifact = |key: &str, content: &str| -> Result<(), String> {
        match args.get(key) {
            None => Ok(()),
            Some("") => Err(format!("--{key} needs a file path")),
            Some(path) => {
                std::fs::write(path, content).map_err(|e| format!("cannot write {path}: {e}"))
            }
        }
    };
    if let Some(path) = args.get("metrics") {
        let sink = metrics_sink.as_ref().expect("attached above");
        let summary = sink.lock().expect("metrics sink poisoned").summary();
        std::fs::write(path, summary).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if let Some(sink) = &trace_sink {
        let t = sink.lock().expect("trace sink poisoned").trace().clone();
        if args.has("trace") {
            write_artifact("trace", &t.to_json().map_err(|e| e.to_string())?)?;
        }
        if args.has("chart") {
            let style = qlec_viz::trace_view::ChartStyle {
                death_line: (setup.death_line > 0.0).then_some(setup.death_line),
                ..Default::default()
            };
            write_artifact("chart", &qlec_viz::render_energy_chart(&t, &style))?;
        }
    }
    if args.has("svg") {
        // Re-derive the deployment (same seed) for node positions.
        let mut rng = StdRng::seed_from_u64(setup.seed);
        let net = NetworkBuilder::new()
            .link(AnyLink::DistanceLoss(DistanceLossLink::for_cube(setup.m)))
            .uniform_cube(&mut rng, setup.n, setup.m, setup.energy);
        let style = qlec_viz::network_view::MapStyle {
            title: format!(
                "{} — consumption rate after {} rounds",
                report.protocol,
                report.rounds.len()
            ),
            ..Default::default()
        };
        write_artifact(
            "svg",
            &qlec_viz::render_consumption_map(&net, &report.consumption_rates, &style),
        )?;
    }

    if args.has("json") {
        serde_json::to_string_pretty(&report).map_err(|e| e.to_string())
    } else {
        let mut out = String::new();
        let b = report.energy_breakdown();
        let _ = writeln!(out, "protocol        : {}", report.protocol);
        let _ = writeln!(out, "rounds          : {}", report.rounds.len());
        let _ = writeln!(
            out,
            "packets         : {} generated",
            report.totals.generated
        );
        let _ = writeln!(out, "delivery rate   : {:.4}", report.pdr());
        let _ = writeln!(out, "total energy    : {:.3} J", report.total_energy());
        let _ = writeln!(
            out,
            "  member tx {:.3} | head rx {:.3} | fusion {:.3} | aggregates {:.3} | control {:.3}",
            b.member_tx, b.head_rx, b.aggregation, b.aggregate_tx, b.other
        );
        // A run that delivered nothing (e.g. a full-blackout fault plan)
        // has no latency to report — say so instead of printing a fake 0.
        match report.mean_latency() {
            Some(latency) => {
                let _ = writeln!(out, "mean latency    : {latency:.2} slots");
            }
            None => {
                let _ = writeln!(out, "mean latency    : n/a (nothing delivered)");
            }
        }
        let _ = writeln!(out, "mean heads/round: {:.1}", report.mean_head_count());
        if setup.death_line > 0.0 {
            let _ = writeln!(out, "lifespan        : {} rounds", report.lifespan_rounds());
        }
        if let Some(profile) = &profile_report {
            let _ = writeln!(out);
            out.push_str(&profile.render());
        }
        Ok(out)
    }
}

fn cmd_compare(args: &ParsedArgs) -> Result<String, String> {
    args.ensure_known(&["n", "m", "energy", "k", "lambda", "rounds", "seeds"])?;
    let setup = SimSpec::from_args(args)?;
    setup.validate()?;
    let seeds = args.get_parsed("seeds", 3u64)?;
    if seeds == 0 {
        return Err("--seeds must be positive".into());
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8}  {:>8}  {:>11}  {:>13}  {:>17}",
        "protocol", "PDR", "energy (J)", "latency (sl)", "min residual (J)"
    );
    for name in ["qlec", "fcm", "kmeans", "leach", "deec", "heed"] {
        let mut pdr = 0.0;
        let mut energy = 0.0;
        // Latency averages only over seeds that delivered anything; a
        // protocol with zero deliveries across every seed shows n/a.
        let mut latency = 0.0;
        let mut latency_seeds = 0usize;
        let mut min_res = 0.0;
        for s in 0..seeds {
            let mut setup_s = SimSpec {
                seed: setup.seed + s,
                ..setup.clone()
            };
            setup_s.death_line = 0.0;
            let mut protocol = build_protocol(
                name,
                setup.k,
                setup.rounds,
                CandidatePolicy::Auto,
                HeadIndexMode::default(),
                &ObserverSet::new(),
            )?;
            let report = execute(&setup_s, protocol.as_mut());
            pdr += report.pdr();
            energy += report.total_energy();
            if let Some(l) = report.mean_latency() {
                latency += l;
                latency_seeds += 1;
            }
            min_res += report.rounds.last().map(|r| r.min_residual).unwrap_or(0.0);
        }
        let n = seeds as f64;
        let latency_cell = if latency_seeds > 0 {
            format!("{:.2}", latency / latency_seeds as f64)
        } else {
            "n/a".to_string()
        };
        let _ = writeln!(
            out,
            "{:<8}  {:>8.4}  {:>11.3}  {:>13}  {:>17.3}",
            name,
            pdr / n,
            energy / n,
            latency_cell,
            min_res / n
        );
    }
    Ok(out)
}

fn cmd_dataset(args: &ParsedArgs) -> Result<String, String> {
    args.ensure_known(&["count", "seed", "out"])?;
    let count = args.get_parsed("count", qlec_dataset::CHINA_PLANT_COUNT)?;
    if count == 0 {
        return Err("--count must be positive".into());
    }
    let seed = args.get_parsed("seed", 42u64)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let plants = generate_china(
        &mut rng,
        &GeneratorConfig {
            count,
            ..Default::default()
        },
    );
    let csv = records::to_csv(&plants);
    match args.get("out") {
        Some(path) if !path.is_empty() => {
            std::fs::write(path, &csv).map_err(|e| format!("cannot write {path}: {e}"))?;
            Ok(format!("wrote {count} plants to {path}\n"))
        }
        _ => Ok(csv),
    }
}

fn cmd_kopt(args: &ParsedArgs) -> Result<String, String> {
    args.ensure_known(&["n", "m", "d-to-bs"])?;
    let n = args.get_parsed("n", 100usize)?;
    let m = args.get_parsed("m", 200.0f64)?;
    if n == 0 || m <= 0.0 || m.is_nan() {
        return Err("--n and --m must be positive".into());
    }
    let d_default = MEAN_DIST_TO_CENTER_UNIT_CUBE * m;
    let d = args.get_parsed("d-to-bs", d_default)?;
    if d <= 0.0 || d.is_nan() {
        return Err("--d-to-bs must be positive".into());
    }
    let radio = RadioModel::paper();
    let real = kopt::kopt_real(n, m, d, &radio);
    let rounded = kopt::kopt(n, m, d, &radio);
    let dc = kopt::coverage_radius(m, rounded);
    Ok(format!(
        "Theorem 1: N = {n}, M = {m} m, d_toBS = {d:.1} m\n\
         k_opt = {real:.2} (use k = {rounded}); coverage radius d_c = {dc:.1} m\n"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(line: &[&str]) -> Result<String, String> {
        dispatch(&ParsedArgs::parse(line.iter().copied()).unwrap())
    }

    #[test]
    fn help_and_unknown() {
        assert!(run(&["help"]).unwrap().contains("USAGE"));
        assert!(run(&[]).is_err() || !run(&[]).unwrap().is_empty());
        assert!(run(&["bogus"]).is_err());
    }

    #[test]
    fn run_small_simulation_text() {
        let out = run(&[
            "run",
            "--protocol",
            "qlec",
            "--n",
            "20",
            "--rounds",
            "2",
            "--lambda",
            "8",
        ])
        .unwrap();
        assert!(out.contains("protocol        : qlec"), "{out}");
        assert!(out.contains("delivery rate"));
    }

    #[test]
    fn run_json_output_parses() {
        let out = run(&[
            "run",
            "--protocol",
            "kmeans",
            "--n",
            "15",
            "--rounds",
            "2",
            "--json",
        ])
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).expect("valid JSON");
        assert_eq!(v["protocol"], "k-means");
    }

    #[test]
    fn run_rejects_bad_arguments() {
        assert!(run(&["run", "--protocol", "nope"]).is_err());
        assert!(run(&["run", "--n", "0"]).is_err());
        assert!(run(&["run", "--k", "50", "--n", "10"]).is_err());
        assert!(run(&["run", "--frobnicate", "1"]).is_err());
        assert!(run(&["run", "--lambda", "-3"]).is_err());
    }

    #[test]
    fn degenerate_inputs_fail_with_structured_errors() {
        // Every rejected spelling must name the offending flag so the
        // shell error is actionable, and none may panic.
        let err = run(&["run", "--n", "20", "--rounds", "1", "--candidates", "0"]).unwrap_err();
        assert!(err.contains("--candidates"), "{err}");
        let err = run(&["run", "--n", "20", "--rounds", "1", "--threads", "0"]).unwrap_err();
        assert!(err.contains("--threads"), "{err}");
        let err = run(&["run", "--n", "20", "--rounds", "1", "--k", "0"]).unwrap_err();
        assert!(err.contains("--k"), "{err}");
        let err = run(&["run", "--n", "20", "--rounds", "0"]).unwrap_err();
        assert!(err.contains("--rounds"), "{err}");
        // The same guards hold on the compare path.
        let err = run(&["compare", "--n", "20", "--rounds", "1", "--k", "0"]).unwrap_err();
        assert!(err.contains("--k"), "{err}");
    }

    #[test]
    fn head_index_flag_is_validated_and_inert() {
        let err = run(&["run", "--n", "20", "--rounds", "1", "--head-index", "magic"]).unwrap_err();
        assert!(err.contains("--head-index"), "{err}");
        let base = run(&[
            "run", "--n", "20", "--rounds", "2", "--lambda", "8", "--json",
        ])
        .unwrap();
        for mode in ["incremental", "rebuild"] {
            let out = run(&[
                "run",
                "--n",
                "20",
                "--rounds",
                "2",
                "--lambda",
                "8",
                "--head-index",
                mode,
                "--json",
            ])
            .unwrap();
            assert_eq!(base, out, "--head-index {mode} must not change the report");
        }
    }

    #[test]
    fn q_rows_flag_is_validated_and_inert() {
        let err = run(&["run", "--n", "20", "--rounds", "1", "--q-rows", "huge"]).unwrap_err();
        assert!(err.contains("--q-rows"), "{err}");
        let base = run(&[
            "run", "--n", "20", "--rounds", "2", "--lambda", "8", "--json",
        ])
        .unwrap();
        for mode in ["sparse", "dense"] {
            let out = run(&[
                "run", "--n", "20", "--rounds", "2", "--lambda", "8", "--q-rows", mode, "--json",
            ])
            .unwrap();
            assert_eq!(base, out, "--q-rows {mode} must not change the report");
        }
    }

    #[test]
    fn candidates_flag_is_validated_and_inert_when_large() {
        assert!(run(&["run", "--n", "20", "--rounds", "1", "--candidates", "0"]).is_err());
        assert!(run(&["run", "--n", "20", "--rounds", "1", "--candidates", "maybe"]).is_err());
        // The removed `legacy-auto` spelling (the flat min(k, 8), which
        // `--candidates 8` reproduces) is rejected by the parse error.
        let err = run(&[
            "run",
            "--n",
            "20",
            "--rounds",
            "1",
            "--candidates",
            "legacy-auto",
        ])
        .unwrap_err();
        assert!(
            err.contains("expected auto, full or a positive integer"),
            "{err}"
        );
        let base = run(&[
            "run", "--n", "20", "--rounds", "2", "--lambda", "8", "--json",
        ])
        .unwrap();
        // Default (auto), an over-large fixed budget, and the explicit
        // full scan all resolve to the same scan at k = 5.
        for spelling in ["auto", "full", "50"] {
            let pruned = run(&[
                "run",
                "--n",
                "20",
                "--rounds",
                "2",
                "--lambda",
                "8",
                "--candidates",
                spelling,
                "--json",
            ])
            .unwrap();
            assert_eq!(base, pruned, "--candidates {spelling} must be inert at k=5");
        }
    }

    #[test]
    fn threads_flag_does_not_change_results() {
        // The report's `threads` field *records the resolved worker
        // count*, so it legitimately differs between runs; everything
        // else must be identical at any setting.
        let timeless = |json: &str| -> String {
            json.lines()
                .filter(|l| !l.contains("\"threads\""))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let resolved = |json: &str| -> u64 {
            let v: serde_json::Value = serde_json::from_str(json).unwrap();
            v["threads"].as_u64().unwrap()
        };
        let base = run(&[
            "run", "--n", "20", "--rounds", "2", "--lambda", "8", "--json",
        ])
        .unwrap();
        assert_eq!(resolved(&base), 1, "default is one worker");
        for t in ["4", "auto"] {
            let parallel = run(&[
                "run",
                "--n",
                "20",
                "--rounds",
                "2",
                "--lambda",
                "8",
                "--threads",
                t,
                "--json",
            ])
            .unwrap();
            assert_eq!(
                timeless(&base),
                timeless(&parallel),
                "--threads {t} must not change the results"
            );
            // `auto` must report what it resolved to, never 0.
            let r = resolved(&parallel);
            match t {
                "4" => assert_eq!(r, 4),
                _ => assert!(r >= 1, "auto resolved to {r}"),
            }
        }
        assert!(run(&["run", "--n", "10", "--rounds", "1", "--threads", "x"]).is_err());
    }

    #[test]
    fn compare_lists_all_protocols() {
        let out = run(&[
            "compare", "--n", "20", "--rounds", "2", "--seeds", "1", "--lambda", "8",
        ])
        .unwrap();
        for name in ["qlec", "fcm", "kmeans", "leach", "deec", "heed"] {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
    }

    #[test]
    fn dataset_to_stdout_and_roundtrip() {
        let out = run(&["dataset", "--count", "25", "--seed", "7"]).unwrap();
        let plants = records::from_csv(&out).unwrap();
        assert_eq!(plants.len(), 25);
    }

    #[test]
    fn kopt_defaults_match_theorem() {
        let out = run(&["kopt"]).unwrap();
        assert!(out.contains("k_opt = 11.15"), "{out}");
        let out = run(&["kopt", "--d-to-bs", "133"]).unwrap();
        assert!(out.contains("use k = 5"), "{out}");
    }

    #[test]
    fn spec_file_reproduces_the_flag_run() {
        let path = std::env::temp_dir().join("qlec_test_spec_equiv.json");
        let flags = [
            "run", "--n", "20", "--k", "4", "--lambda", "8", "--rounds", "2", "--seed", "7",
        ];
        let spec = SimSpec::from_args(&ParsedArgs::parse(flags.iter().copied()).unwrap()).unwrap();
        std::fs::write(&path, spec.to_json()).unwrap();
        let mut by_flags: Vec<&str> = flags.to_vec();
        by_flags.push("--json");
        let by_spec = ["run", "--spec", path.to_str().unwrap(), "--json"];
        assert_eq!(
            run(&by_flags).unwrap(),
            run(&by_spec).unwrap(),
            "--spec must reproduce the flag run byte-for-byte"
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn spec_conflicts_with_run_flags() {
        let path = std::env::temp_dir().join("qlec_test_spec_conflict.json");
        std::fs::write(&path, SimSpec::default().to_json()).unwrap();
        let path_s = path.to_str().unwrap();
        for (flag, value) in [("--n", "20"), ("--protocol", "fcm"), ("--death-line", "1")] {
            let err = run(&["run", "--spec", path_s, flag, value]).unwrap_err();
            assert!(err.contains("--spec conflicts"), "({flag}) {err}");
            assert!(err.contains(flag), "names the offending flag: {err}");
        }
        // Artifact and fault flags still compose with --spec.
        assert!(run(&["run", "--spec", path_s, "--json"]).is_ok());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn spec_inline_faults_run_and_conflict_with_the_flag() {
        use qlec_net::{FaultEvent, FaultPlan};
        let dir = std::env::temp_dir();
        let spec_path = dir.join("qlec_test_spec_inline_faults.json");
        let plan_path = dir.join("qlec_test_spec_inline_faults_plan.json");
        let plan = FaultPlan::named("inline", vec![FaultEvent::NodeCrash { round: 1, node: 3 }]);
        std::fs::write(&plan_path, serde_json::to_string(&plan).unwrap()).unwrap();
        let spec = SimSpec {
            n: 15,
            rounds: 3,
            lambda: 8.0,
            faults: Some(plan.clone()),
            ..SimSpec::default()
        };
        std::fs::write(&spec_path, spec.to_json()).unwrap();
        let spec_s = spec_path.to_str().unwrap();
        // The inline plan is bound: its crash shows up in the report as
        // a run identical to the equivalent side-car `--faults` run.
        let by_inline = run(&["run", "--spec", spec_s, "--json"]).unwrap();
        let by_flag = run(&[
            "run",
            "--n",
            "15",
            "--rounds",
            "3",
            "--lambda",
            "8",
            "--faults",
            plan_path.to_str().unwrap(),
            "--json",
        ])
        .unwrap();
        assert_eq!(by_inline, by_flag, "inline plan ≡ --faults file");
        // Two plans at once have no defined merge order.
        let err = run(&[
            "run",
            "--spec",
            spec_s,
            "--faults",
            plan_path.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(err.contains("inline"), "{err}");
        // A fault-free spec still composes with --faults.
        let plain_path = dir.join("qlec_test_spec_no_faults.json");
        std::fs::write(
            &plain_path,
            SimSpec {
                n: 15,
                rounds: 3,
                lambda: 8.0,
                ..SimSpec::default()
            }
            .to_json(),
        )
        .unwrap();
        let composed = run(&[
            "run",
            "--spec",
            plain_path.to_str().unwrap(),
            "--faults",
            plan_path.to_str().unwrap(),
            "--json",
        ])
        .unwrap();
        assert_eq!(composed, by_flag, "--faults composes with a plain spec");
        for p in [spec_path, plan_path, plain_path] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn spec_errors_are_structured() {
        let err = run(&["run", "--spec"]).unwrap_err();
        assert!(err.contains("file path"), "{err}");
        let err = run(&["run", "--spec", "/no/such/spec.json"]).unwrap_err();
        assert!(err.contains("cannot read spec"), "{err}");
        let bad = std::env::temp_dir().join("qlec_test_spec_bad.json");
        std::fs::write(&bad, r#"{"lamda": 3.0}"#).unwrap();
        let err = run(&["run", "--spec", bad.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("not a run spec"), "{err}");
        assert!(err.contains("unknown spec field"), "{err}");
        // Spec-borne values hit the same cross-field validation as flags.
        std::fs::write(&bad, r#"{"k": 50, "n": 10}"#).unwrap();
        let err = run(&["run", "--spec", bad.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("--k"), "{err}");
        let _ = std::fs::remove_file(bad);
    }

    #[test]
    fn trace_requires_path() {
        let err = run(&["run", "--n", "10", "--rounds", "1", "--trace"]).unwrap_err();
        assert!(err.contains("file path"));
    }
}

#[cfg(test)]
mod artifact_tests {
    use super::*;

    fn run(line: &[&str]) -> Result<String, String> {
        dispatch(&ParsedArgs::parse(line.iter().copied()).unwrap())
    }

    #[test]
    fn svg_and_chart_artifacts_are_written() {
        let dir = std::env::temp_dir();
        let svg_path = dir.join("qlec_test_map.svg");
        let chart_path = dir.join("qlec_test_chart.svg");
        let svg_s = svg_path.to_str().unwrap();
        let chart_s = chart_path.to_str().unwrap();
        let out = run(&[
            "run", "--n", "15", "--rounds", "2", "--lambda", "8", "--svg", svg_s, "--chart",
            chart_s,
        ])
        .unwrap();
        assert!(out.contains("delivery rate"));
        let svg = std::fs::read_to_string(&svg_path).unwrap();
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("consumption rate"));
        let chart = std::fs::read_to_string(&chart_path).unwrap();
        assert!(chart.contains("<polyline"));
        let _ = std::fs::remove_file(svg_path);
        let _ = std::fs::remove_file(chart_path);
    }

    #[test]
    fn svg_requires_path() {
        let err = run(&["run", "--n", "10", "--rounds", "1", "--svg"]).unwrap_err();
        assert!(err.contains("file path"), "{err}");
    }

    #[test]
    fn events_artifact_is_valid_json_lines() {
        let path = std::env::temp_dir().join("qlec_test_events.jsonl");
        let path_s = path.to_str().unwrap();
        run(&[
            "run", "--n", "15", "--rounds", "3", "--lambda", "8", "--events", path_s,
        ])
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let events = qlec_obs::read_events(&text).expect("stream parses against schema");
        let rounds_ended = events
            .iter()
            .filter(|e| matches!(e, qlec_obs::Event::RoundEnded { .. }))
            .count();
        assert_eq!(rounds_ended, 3, "one RoundEnded per simulated round");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn events_mode_flag_shapes_the_stream() {
        let dir = std::env::temp_dir();
        let agg_path = dir.join("qlec_test_events_agg.jsonl");
        run(&[
            "run",
            "--n",
            "15",
            "--rounds",
            "3",
            "--lambda",
            "8",
            "--events",
            agg_path.to_str().unwrap(),
            "--events-mode",
            "aggregate",
        ])
        .unwrap();
        let text = std::fs::read_to_string(&agg_path).unwrap();
        let events = qlec_obs::read_events(&text).expect("stream parses");
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, qlec_obs::Event::PacketOutcome { .. })),
            "aggregate mode suppresses per-packet events"
        );
        let summaries = events
            .iter()
            .filter(|e| matches!(e, qlec_obs::Event::RoundSummary { .. }))
            .count();
        assert_eq!(summaries, 3, "one RoundSummary per round");
        let _ = std::fs::remove_file(agg_path);

        // Bad mode spellings and --events-mode without --events fail.
        let err = run(&["run", "--n", "10", "--rounds", "1", "--events-mode", "half"]).unwrap_err();
        assert!(err.contains("events-mode"), "{err}");
        let err = run(&[
            "run",
            "--n",
            "10",
            "--rounds",
            "1",
            "--events-mode",
            "aggregate",
        ])
        .unwrap_err();
        assert!(err.contains("--events"), "{err}");
    }

    #[test]
    fn metrics_artifact_matches_report() {
        let dir = std::env::temp_dir();
        let metrics_path = dir.join("qlec_test_metrics.txt");
        let metrics_s = metrics_path.to_str().unwrap();
        let out = run(&[
            "run",
            "--n",
            "15",
            "--rounds",
            "3",
            "--lambda",
            "8",
            "--json",
            "--metrics",
            metrics_s,
        ])
        .unwrap();
        let report: serde_json::Value = serde_json::from_str(&out).unwrap();
        let generated = report["totals"]["generated"].as_u64().unwrap();
        let summary = std::fs::read_to_string(&metrics_path).unwrap();
        let counter = |name: &str| -> Option<String> {
            summary.lines().find_map(|l| {
                let mut parts = l.split_whitespace();
                (parts.next() == Some(name)).then(|| parts.next().unwrap_or("").to_string())
            })
        };
        assert_eq!(
            counter("packets.generated").as_deref(),
            Some(generated.to_string().as_str()),
            "summary should report the same generated count:\n{summary}"
        );
        assert_eq!(counter("rounds.ended").as_deref(), Some("3"), "{summary}");
        let _ = std::fs::remove_file(metrics_path);
    }

    #[test]
    fn faulted_run_emits_fault_events() {
        let dir = std::env::temp_dir();
        let plan_path = dir.join("qlec_test_plan.json");
        let events_path = dir.join("qlec_test_fault_events.jsonl");
        let plan = qlec_net::FaultPlan::named(
            "cli-test",
            vec![
                qlec_net::FaultEvent::NodeCrash { round: 1, node: 2 },
                qlec_net::FaultEvent::BsOutage {
                    from_round: 2,
                    to_round: 2,
                },
            ],
        );
        std::fs::write(&plan_path, serde_json::to_string(&plan).unwrap()).unwrap();
        run(&[
            "run",
            "--n",
            "15",
            "--rounds",
            "3",
            "--lambda",
            "8",
            "--faults",
            plan_path.to_str().unwrap(),
            "--events",
            events_path.to_str().unwrap(),
        ])
        .unwrap();
        let text = std::fs::read_to_string(&events_path).unwrap();
        let events = qlec_obs::read_events(&text).expect("stream parses");
        let kinds: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                qlec_obs::Event::FaultInjected { kind, .. } => Some(kind.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(kinds, vec!["node-crash", "bs-outage"], "{text}");
        let _ = std::fs::remove_file(plan_path);
        let _ = std::fs::remove_file(events_path);
    }

    #[test]
    fn faults_rejects_garbage_and_missing_paths() {
        let err = run(&["run", "--n", "10", "--rounds", "1", "--faults"]).unwrap_err();
        assert!(err.contains("file path"), "{err}");
        let err = run(&[
            "run",
            "--n",
            "10",
            "--rounds",
            "1",
            "--faults",
            "/no/such/plan.json",
        ])
        .unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
        let bad = std::env::temp_dir().join("qlec_test_bad_plan.json");
        std::fs::write(&bad, "{\"not\": \"a plan\"}").unwrap();
        let err = run(&[
            "run",
            "--n",
            "10",
            "--rounds",
            "1",
            "--faults",
            bad.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(err.contains("not a fault plan"), "{err}");
        let _ = std::fs::remove_file(bad);
    }

    #[test]
    fn repo_example_plan_loads() {
        // The worked example shipped in examples/ must stay loadable.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/faults.json");
        let text = std::fs::read_to_string(path).expect("examples/faults.json exists");
        let plan: qlec_net::FaultPlan = serde_json::from_str(&text).expect("parses");
        plan.validate().expect("validates");
        assert_eq!(plan.events.len(), 5, "one event of each kind");
    }

    #[test]
    fn events_and_metrics_require_paths() {
        let err = run(&["run", "--n", "10", "--rounds", "1", "--events"]).unwrap_err();
        assert!(err.contains("file path"), "{err}");
        let err = run(&["run", "--n", "10", "--rounds", "1", "--metrics"]).unwrap_err();
        assert!(err.contains("file path"), "{err}");
        let err = run(&["run", "--n", "10", "--rounds", "1", "--profile"]).unwrap_err();
        assert!(err.contains("file path"), "{err}");
    }

    #[test]
    fn sink_flag_is_validated() {
        let path = std::env::temp_dir().join("qlec_test_sink_validate.jsonl");
        let err = run(&[
            "run",
            "--n",
            "10",
            "--rounds",
            "1",
            "--events",
            path.to_str().unwrap(),
            "--sink",
            "turbo",
        ])
        .unwrap_err();
        assert!(err.contains("--sink"), "{err}");
        let err = run(&["run", "--n", "10", "--rounds", "1", "--sink", "async"]).unwrap_err();
        assert!(err.contains("--events"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn async_sink_stream_matches_sync_stream() {
        // File streams carry real wall-clock PhaseTimed events, so two
        // runs are compared modulo timings here; *byte* identity of the
        // deterministic `--events -` stream is asserted where the same
        // sink objects can be driven in-process
        // (tests/parallel_equivalence.rs) and against the real binary in
        // CI's sink-equivalence job.
        let dir = std::env::temp_dir();
        let sync_path = dir.join("qlec_test_sink_sync.jsonl");
        let async_path = dir.join("qlec_test_sink_async.jsonl");
        let drop_path = dir.join("qlec_test_sink_drop.jsonl");
        let base = [
            "run",
            "--n",
            "15",
            "--rounds",
            "3",
            "--lambda",
            "8",
            "--threads",
            "2",
        ];
        let with = |path: &std::path::Path, sink: &str| {
            let path_s = path.to_str().unwrap();
            let mut line: Vec<&str> = base.to_vec();
            line.extend_from_slice(&["--events", path_s, "--sink", sink]);
            run(&line).unwrap();
            let text = std::fs::read_to_string(path).unwrap();
            qlec_obs::read_events(&text).expect("stream parses")
        };
        let timeless = |events: Vec<qlec_obs::Event>| -> Vec<qlec_obs::Event> {
            events
                .into_iter()
                .filter(|e| !matches!(e, qlec_obs::Event::PhaseTimed { .. }))
                .collect()
        };
        let sync_events = with(&sync_path, "sync");
        let async_events = with(&async_path, "async");
        assert_eq!(sync_events.len(), async_events.len());
        assert_eq!(
            timeless(sync_events),
            timeless(async_events),
            "block-mode pipeline must not change the stream"
        );
        // Drop mode with the default (large) queue sheds nothing at this
        // size, but only a parse check is part of its contract.
        let drop_events = with(&drop_path, "async:drop");
        assert!(!drop_events.is_empty());
        for p in [sync_path, async_path, drop_path] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn profile_artifact_reports_phases_and_quantiles() {
        let dir = std::env::temp_dir();
        let profile_path = dir.join("qlec_test_profile.json");
        let out = run(&[
            "run",
            "--n",
            "20",
            "--rounds",
            "3",
            "--lambda",
            "8",
            "--threads",
            "2",
            "--profile",
            profile_path.to_str().unwrap(),
        ])
        .unwrap();
        // The text report carries the rendered profile.
        assert!(out.contains("phase profile"), "{out}");
        assert!(out.contains("round latency"), "{out}");
        assert!(out.contains("thread utilization"), "{out}");
        let text = std::fs::read_to_string(&profile_path).unwrap();
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(v["schema"].as_str(), Some(qlec_obs::PROFILE_SCHEMA));
        assert_eq!(v["threads"].as_u64(), Some(2));
        assert_eq!(v["round_latency"]["rounds"].as_u64(), Some(3));
        assert!(v["round_latency"]["p50_ns"].as_f64().unwrap() > 0.0);
        assert!(v["round_latency"]["p99_ns"].as_f64().unwrap() > 0.0);
        let phases = v["phases"].as_array().unwrap();
        let paths: Vec<&str> = phases.iter().map(|p| p["path"].as_str().unwrap()).collect();
        for expect in ["election", "transmission/plan", "transmission/merge"] {
            assert!(paths.contains(&expect), "missing {expect} in {paths:?}");
        }
        assert!(
            v["counters"]
                .as_array()
                .unwrap()
                .iter()
                .any(|c| c["name"].as_str() == Some("merge.retargets")),
            "{text}"
        );
        // threads=2 runs with a worker pool, so the merge's
        // classification counters must be present alongside the
        // conflict counters.
        for name in ["merge.clean_commits", "merge.residue"] {
            assert!(
                v["counters"]
                    .as_array()
                    .unwrap()
                    .iter()
                    .any(|c| c["name"].as_str() == Some(name)),
                "missing {name} in {text}"
            );
        }
        assert_eq!(v["utilization"].as_array().unwrap().len(), 2);
        let _ = std::fs::remove_file(profile_path);
    }

    #[test]
    fn profile_with_async_sink_embeds_pipeline_stats() {
        let dir = std::env::temp_dir();
        let profile_path = dir.join("qlec_test_profile_sink.json");
        let events_path = dir.join("qlec_test_profile_sink_events.jsonl");
        let out = run(&[
            "run",
            "--n",
            "15",
            "--rounds",
            "2",
            "--lambda",
            "8",
            "--json",
            "--events",
            events_path.to_str().unwrap(),
            "--sink",
            "async",
            "--profile",
            profile_path.to_str().unwrap(),
        ])
        .unwrap();
        // --json output stays the pure SimReport even when profiling.
        let report: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(report["protocol"].as_str(), Some("qlec"));
        let text = std::fs::read_to_string(&profile_path).unwrap();
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        let enqueued = v["sink"]["enqueued"].as_u64().unwrap();
        assert!(enqueued > 0, "{text}");
        assert_eq!(v["sink"]["processed"].as_u64(), Some(enqueued));
        assert_eq!(v["sink"]["dropped"].as_u64(), Some(0));
        let _ = std::fs::remove_file(profile_path);
        let _ = std::fs::remove_file(events_path);
    }

    #[test]
    fn sink_flush_errors_surface_with_nonzero_exit() {
        // /dev/full accepts opens and fails writes with ENOSPC, which is
        // exactly the latched-error path: the failure must surface from
        // the end-of-run flush as a CLI error (exit code 1 in main).
        if !std::path::Path::new("/dev/full").exists() {
            return; // platform without /dev/full
        }
        for sink in ["sync", "async"] {
            let err = run(&[
                "run",
                "--n",
                "15",
                "--rounds",
                "2",
                "--lambda",
                "8",
                "--events",
                "/dev/full",
                "--sink",
                sink,
            ])
            .unwrap_err();
            assert!(err.contains("observer flush failed"), "({sink}) {err}");
        }
    }
}
