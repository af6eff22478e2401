//! Experiment harness shared by the figure/table binaries.

use qlec_clustering::deec::DeecProtocol;
use qlec_clustering::leach::LeachProtocol;
use qlec_clustering::{FcmProtocol, KMeansProtocol};
use qlec_core::ablation::Ablation;
use qlec_core::params::QlecParams;
use qlec_fault::{FaultDriver, FaultPlan};
use qlec_geom::stats::Welford;
use qlec_net::{Network, NetworkBuilder, Protocol, SimConfig, SimReport, Simulator};
use qlec_obs::{MemorySink, ObserverSet, Phase};
use qlec_radio::link::{AnyLink, DistanceLossLink};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::Serialize;
use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, Mutex};

/// The protocols the paper's figures compare (plus the extra baselines
/// this reproduction adds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// QLEC (the paper's algorithm; Fig. 3 uses the §5.1 `k = 5`).
    Qlec,
    /// The FCM-based scheme of \[14\].
    Fcm,
    /// Classic k-means clustering.
    KMeans,
    /// Classic LEACH (extra baseline).
    Leach,
    /// Plain DEEC (extra baseline).
    Deec,
    /// A QLEC ablation variant.
    QlecAblation(Ablation),
}

impl ProtocolKind {
    /// The Fig. 3 comparison set, in the paper's order.
    pub const FIG3: [ProtocolKind; 3] =
        [ProtocolKind::Qlec, ProtocolKind::Fcm, ProtocolKind::KMeans];

    /// All five base protocols.
    pub const ALL: [ProtocolKind; 5] = [
        ProtocolKind::Qlec,
        ProtocolKind::Fcm,
        ProtocolKind::KMeans,
        ProtocolKind::Leach,
        ProtocolKind::Deec,
    ];

    /// Instantiate a fresh protocol for one run. The cluster count comes
    /// from `params.k_override` (the paper's §5.1 `k = 5` when unset) and
    /// the horizon from `params.total_rounds`; the remaining fields only
    /// affect the QLEC variants.
    pub fn build(&self, params: &QlecParams) -> Box<dyn Protocol + Send> {
        self.build_observed(params, &ObserverSet::new())
    }

    /// Like [`ProtocolKind::build`], but QLEC variants also emit their
    /// protocol-layer events (Broadcast/QRouting spans, Q-updates) into
    /// `obs`. Baselines have no protocol-layer phases to report.
    pub fn build_observed(
        &self,
        params: &QlecParams,
        obs: &ObserverSet,
    ) -> Box<dyn Protocol + Send> {
        let k = params.k_override.unwrap_or(5);
        match self {
            ProtocolKind::Qlec => Box::new(
                qlec_core::QlecProtocol::builder()
                    .params(*params)
                    .k(k)
                    .observer(obs.clone())
                    .build(),
            ),
            ProtocolKind::Fcm => Box::new(FcmProtocol::new(k)),
            ProtocolKind::KMeans => Box::new(KMeansProtocol::new(k)),
            ProtocolKind::Leach => Box::new(LeachProtocol::new(k)),
            ProtocolKind::Deec => Box::new(DeecProtocol::new(k, params.total_rounds)),
            ProtocolKind::QlecAblation(a) => Box::new(
                a.builder(QlecParams {
                    k_override: Some(k),
                    ..*params
                })
                .observer(obs.clone())
                .build(),
            ),
        }
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProtocolKind::Qlec => "qlec",
            ProtocolKind::Fcm => "fcm",
            ProtocolKind::KMeans => "k-means",
            ProtocolKind::Leach => "leach",
            ProtocolKind::Deec => "deec",
            ProtocolKind::QlecAblation(a) => a.label(),
        };
        f.write_str(s)
    }
}

impl FromStr for ProtocolKind {
    type Err = String;

    /// Parse a display label back into a kind (`"kmeans"` is accepted as
    /// an alias for `"k-means"`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "qlec" => Ok(ProtocolKind::Qlec),
            "fcm" => Ok(ProtocolKind::Fcm),
            "k-means" | "kmeans" => Ok(ProtocolKind::KMeans),
            "leach" => Ok(ProtocolKind::Leach),
            "deec" => Ok(ProtocolKind::Deec),
            other => Ablation::ALL_VARIANTS
                .iter()
                .find(|a| a.label() == other)
                .map(|&a| ProtocolKind::QlecAblation(a))
                .ok_or_else(|| format!("unknown protocol '{other}'")),
        }
    }
}

/// One experiment cell: a protocol on a deployment/traffic configuration,
/// averaged over seeds.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Node count `N` (paper: 100).
    pub n: usize,
    /// Cube side `M` (paper: 200).
    pub m: f64,
    /// Initial energy per node, J (paper: 5).
    pub initial_energy: f64,
    /// Cluster count `k` (paper §5.1: ≈ 5).
    pub k: usize,
    /// Simulator configuration (λ, rounds, queues, death line, …).
    pub sim: SimConfig,
    /// Deployment + protocol seeds; each entry is one independent run.
    pub seeds: Vec<u64>,
    /// Radio link model.
    pub link: AnyLink,
    /// Optional fault schedule, applied identically to every seed (and
    /// every protocol — the comparison stays fair).
    pub faults: Option<FaultPlan>,
}

impl RunSpec {
    /// The §5.1 configuration at congestion level λ.
    pub fn paper(lambda: f64) -> Self {
        RunSpec {
            n: 100,
            m: 200.0,
            initial_energy: 5.0,
            k: 5,
            sim: SimConfig::paper(lambda),
            seeds: (0..5).map(|i| 0xC0FFEE + i).collect(),
            link: AnyLink::DistanceLoss(DistanceLossLink::for_cube(200.0)),
            faults: None,
        }
    }

    /// Start a fluent [`ScenarioBuilder`] from the §5.1 configuration.
    pub fn builder(lambda: f64) -> ScenarioBuilder {
        ScenarioBuilder::paper(lambda)
    }

    /// The QLEC parameter set this spec implies (`k` and the horizon are
    /// taken from the spec; everything else is Table 2).
    pub fn qlec_params(&self) -> QlecParams {
        QlecParams {
            total_rounds: self.sim.rounds,
            ..QlecParams::paper_with_k(self.k)
        }
    }

    /// Build the deployment for one seed.
    pub fn network(&self, seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        NetworkBuilder::new().link(self.link).uniform_cube(
            &mut rng,
            self.n,
            self.m,
            self.initial_energy,
        )
    }
}

/// Fluent construction of a [`RunSpec`] — mirrors
/// [`qlec_core::QlecBuilder`] on the experiment side, so a whole scenario
/// (deployment, traffic, seeds, faults) reads as one chain:
///
/// ```
/// use qlec_bench::RunSpec;
/// let spec = RunSpec::builder(5.0).nodes(60).rounds(10).seeds(vec![1, 2]).build();
/// assert_eq!(spec.n, 60);
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    spec: RunSpec,
}

impl ScenarioBuilder {
    /// Start from [`RunSpec::paper`] at congestion level λ.
    pub fn paper(lambda: f64) -> Self {
        ScenarioBuilder {
            spec: RunSpec::paper(lambda),
        }
    }

    /// Node count `N`.
    pub fn nodes(mut self, n: usize) -> Self {
        self.spec.n = n;
        self
    }

    /// Cube side `M` (metres). Also rescales the default link model's
    /// reference range when the spec still carries it.
    pub fn side(mut self, m: f64) -> Self {
        self.spec.m = m;
        self
    }

    /// Initial battery energy per node (J).
    pub fn initial_energy(mut self, joules: f64) -> Self {
        self.spec.initial_energy = joules;
        self
    }

    /// Cluster count `k`.
    pub fn k(mut self, k: usize) -> Self {
        self.spec.k = k;
        self
    }

    /// Simulated rounds (the horizon `R`).
    pub fn rounds(mut self, rounds: u32) -> Self {
        self.spec.sim.rounds = rounds;
        self
    }

    /// Replace the whole simulator configuration.
    pub fn sim(mut self, sim: SimConfig) -> Self {
        self.spec.sim = sim;
        self
    }

    /// Replace the seed list (one independent run per seed).
    pub fn seeds(mut self, seeds: Vec<u64>) -> Self {
        self.spec.seeds = seeds;
        self
    }

    /// Radio link model.
    pub fn link(mut self, link: AnyLink) -> Self {
        self.spec.link = link;
        self
    }

    /// Attach a fault schedule (validated here; applied to every seed).
    ///
    /// # Panics
    ///
    /// If the plan fails [`FaultPlan::validate`].
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        plan.validate().expect("invalid fault plan");
        self.spec.faults = Some(plan);
        self
    }

    /// Finish, yielding the configured [`RunSpec`].
    pub fn build(self) -> RunSpec {
        self.spec
    }
}

/// Mean wall time one simulation phase cost per run (from the
/// [`qlec_obs`] phase spans, averaged over seeds).
#[derive(Debug, Clone, Serialize)]
pub struct PhaseWall {
    /// Phase name (`election`, `broadcast`, `qrouting`, …).
    pub phase: String,
    /// Mean total wall nanoseconds per run.
    pub mean_wall_ns: f64,
}

/// Seed-aggregated metrics for one experiment cell.
#[derive(Debug, Clone, Serialize)]
pub struct CellResult {
    pub protocol: String,
    pub lambda: f64,
    pub runs: usize,
    pub pdr_mean: f64,
    pub pdr_std: f64,
    pub energy_mean_j: f64,
    pub energy_std_j: f64,
    /// `None` when no seed delivered a single packet (e.g. a
    /// full-blackout fault plan) — serialized as JSON `null`, never a
    /// fake `0.0`.
    pub latency_mean_slots: Option<f64>,
    pub lifespan_mean_rounds: f64,
    pub head_count_mean: f64,
    /// Mean retransmission attempts per run (member + aggregate hops) —
    /// the fault benches report it per protocol.
    pub retries_mean: f64,
    /// Wall-time cost of each simulation phase (empty if run unobserved).
    pub phase_wall: Vec<PhaseWall>,
}

/// Run one protocol over every seed of a spec (in parallel) and
/// aggregate. Each run carries a [`MemorySink`] so the JSON artifacts
/// record where the wall time went, phase by phase.
pub fn run_cell(kind: ProtocolKind, spec: &RunSpec) -> CellResult {
    let results: Vec<(SimReport, Vec<u64>)> = spec
        .seeds
        .par_iter()
        .map(|&seed| {
            let net = spec.network(seed);
            let sink = Arc::new(Mutex::new(MemorySink::new()));
            let mut obs = ObserverSet::new();
            obs.attach(sink.clone());
            let mut protocol = kind.build_observed(&spec.qlec_params(), &obs);
            // Offset the protocol RNG from the deployment RNG.
            let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
            let mut sim = Simulator::builder(net).config(spec.sim).observers(obs);
            if let Some(plan) = &spec.faults {
                let driver = FaultDriver::new(plan.clone()).expect("invalid fault plan");
                sim = sim.faults(driver);
            }
            let report = sim.build().run(protocol.as_mut(), &mut rng);
            let sink = sink.lock().expect("metrics sink poisoned");
            let walls = Phase::ALL.iter().map(|&p| sink.phase_wall_ns(p)).collect();
            (report, walls)
        })
        .collect();
    let reports: Vec<SimReport> = results.iter().map(|(r, _)| r.clone()).collect();
    let mut cell = aggregate(kind.to_string(), spec.sim.mean_interarrival, &reports);
    let runs = results.len().max(1) as f64;
    cell.phase_wall = Phase::ALL
        .iter()
        .enumerate()
        .map(|(i, p)| PhaseWall {
            phase: p.name().to_string(),
            mean_wall_ns: results.iter().map(|(_, w)| w[i] as f64).sum::<f64>() / runs,
        })
        .collect();
    cell
}

/// Aggregate a set of per-seed reports into one cell.
pub fn aggregate(protocol: String, lambda: f64, reports: &[SimReport]) -> CellResult {
    let mut pdr = Welford::new();
    let mut energy = Welford::new();
    let mut latency = Welford::new();
    let mut lifespan = Welford::new();
    let mut heads = Welford::new();
    let mut retries = Welford::new();
    for r in reports {
        pdr.push(r.pdr());
        energy.push(r.total_energy());
        if let Some(l) = r.mean_latency() {
            latency.push(l);
        }
        lifespan.push(r.lifespan_rounds() as f64);
        heads.push(r.mean_head_count());
        retries.push(r.totals.retried as f64);
    }
    CellResult {
        protocol,
        lambda,
        runs: reports.len(),
        pdr_mean: pdr.mean().unwrap_or(0.0),
        pdr_std: pdr.std_dev().unwrap_or(0.0),
        energy_mean_j: energy.mean().unwrap_or(0.0),
        energy_std_j: energy.std_dev().unwrap_or(0.0),
        latency_mean_slots: latency.mean(),
        lifespan_mean_rounds: lifespan.mean().unwrap_or(0.0),
        head_count_mean: heads.mean().unwrap_or(0.0),
        retries_mean: retries.mean().unwrap_or(0.0),
        phase_wall: Vec::new(),
    }
}

/// Print a fixed-width table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map_or(0, |c| c.len()))
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for r in rows {
        line(r.clone());
    }
}

/// Write a JSON artifact next to the human-readable output.
pub fn write_json<T: Serialize>(path: &str, value: &T) {
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("warning: could not write {path}: {e}");
            } else {
                println!("\n[json written to {path}]");
            }
        }
        Err(e) => eprintln!("warning: could not serialize {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(lambda: f64) -> RunSpec {
        let mut spec = RunSpec::paper(lambda);
        spec.n = 30;
        spec.sim.rounds = 3;
        spec.seeds = vec![1, 2];
        spec
    }

    #[test]
    fn run_cell_produces_sane_aggregates() {
        let spec = tiny_spec(5.0);
        for kind in [ProtocolKind::Qlec, ProtocolKind::KMeans, ProtocolKind::Fcm] {
            let cell = run_cell(kind, &spec);
            assert_eq!(cell.runs, 2);
            assert!(
                (0.0..=1.0).contains(&cell.pdr_mean),
                "{kind:?} pdr {}",
                cell.pdr_mean
            );
            assert!(cell.energy_mean_j > 0.0, "{kind:?}");
            assert!(cell.head_count_mean > 0.0, "{kind:?}");
            assert_eq!(cell.protocol, kind.to_string());
        }
    }

    #[test]
    fn run_cell_records_phase_wall_times() {
        let cell = run_cell(ProtocolKind::Qlec, &tiny_spec(5.0));
        assert_eq!(cell.phase_wall.len(), Phase::ALL.len());
        for pw in &cell.phase_wall {
            assert!(pw.mean_wall_ns >= 0.0, "{}: {}", pw.phase, pw.mean_wall_ns);
        }
        // The simulator-side phases always run; their spans must be > 0.
        for phase in ["election", "transmission"] {
            let pw = cell.phase_wall.iter().find(|p| p.phase == phase).unwrap();
            assert!(pw.mean_wall_ns > 0.0, "phase {phase} should cost wall time");
        }
    }

    #[test]
    fn all_protocol_kinds_build() {
        let params = QlecParams {
            total_rounds: 10,
            ..QlecParams::paper_with_k(3)
        };
        for kind in ProtocolKind::ALL {
            let p = kind.build(&params);
            assert!(!p.name().is_empty());
        }
        for ab in Ablation::ALL_VARIANTS {
            let p = ProtocolKind::QlecAblation(ab).build(&params);
            assert_eq!(p.name(), ab.label());
        }
    }

    #[test]
    fn display_round_trips_through_from_str() {
        let mut kinds: Vec<ProtocolKind> = ProtocolKind::ALL.to_vec();
        kinds.extend(Ablation::ALL_VARIANTS.map(ProtocolKind::QlecAblation));
        for kind in kinds {
            // Label-level round trip: `QlecAblation(Ablation::None)` and
            // `Qlec` intentionally share the label "qlec" (same protocol),
            // so compare displays, not enum variants.
            let parsed: ProtocolKind = kind.to_string().parse().unwrap();
            assert_eq!(parsed.to_string(), kind.to_string());
        }
        assert_eq!("kmeans".parse::<ProtocolKind>(), Ok(ProtocolKind::KMeans));
        assert!("warp-drive".parse::<ProtocolKind>().is_err());
    }

    #[test]
    fn scenario_builder_composes_a_spec() {
        let plan = FaultPlan::named(
            "one-crash",
            vec![qlec_fault::FaultEvent::NodeCrash { round: 1, node: 0 }],
        );
        let spec = RunSpec::builder(4.0)
            .nodes(25)
            .side(150.0)
            .initial_energy(2.0)
            .k(3)
            .rounds(4)
            .seeds(vec![9])
            .faults(plan.clone())
            .build();
        assert_eq!(spec.n, 25);
        assert_eq!(spec.m, 150.0);
        assert_eq!(spec.initial_energy, 2.0);
        assert_eq!(spec.k, 3);
        assert_eq!(spec.sim.rounds, 4);
        assert_eq!(spec.seeds, vec![9]);
        assert_eq!(spec.faults, Some(plan));
        assert_eq!(spec.qlec_params().k_override, Some(3));
        assert_eq!(spec.qlec_params().total_rounds, 4);
    }

    #[test]
    fn faulted_cell_counts_retries() {
        // Degrade every node→BS pair hard: direct-to-BS-like traffic has
        // to retry. QLEC routes via heads, so degrade node pairs too.
        let mut events: Vec<qlec_fault::FaultEvent> = (0..30u32)
            .map(|n| qlec_fault::FaultEvent::LinkDegrade {
                from_round: 0,
                to_round: 2,
                a: qlec_fault::LinkEnd::Node(n),
                b: qlec_fault::LinkEnd::Bs,
                loss_multiplier: 30.0,
            })
            .collect();
        events.push(qlec_fault::FaultEvent::NodeCrash { round: 1, node: 3 });
        let spec = RunSpec::builder(5.0)
            .nodes(30)
            .rounds(3)
            .seeds(vec![1, 2])
            .faults(FaultPlan::named("degrade-bs", events))
            .build();
        let clean = {
            let mut s = spec.clone();
            s.faults = None;
            run_cell(ProtocolKind::KMeans, &s)
        };
        let faulted = run_cell(ProtocolKind::KMeans, &spec);
        assert!(
            faulted.retries_mean > clean.retries_mean,
            "degraded BS links must force more retries: {} vs {}",
            faulted.retries_mean,
            clean.retries_mean
        );
        assert!(faulted.pdr_mean < clean.pdr_mean);
    }

    #[test]
    fn deployments_are_seed_deterministic() {
        let spec = tiny_spec(5.0);
        let a = spec.network(7);
        let b = spec.network(7);
        let c = spec.network(8);
        assert_eq!(a.positions(), b.positions());
        assert_ne!(a.positions(), c.positions());
    }

    #[test]
    fn table_printer_does_not_panic_on_ragged_rows() {
        print_table(
            "test",
            &["a", "b"],
            &[vec!["1".into()], vec!["22".into(), "333".into()]],
        );
    }
}
