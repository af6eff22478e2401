//! Time-boxed randomized soak: sample specs + fault plans from the full
//! CLI vocabulary, run the corpus invariants and the threads-1-vs-T
//! byte diff (T drawn from 2–4) against each, and on any failure
//! greedily shrink the spec and write a minimized reproducer as a single
//! `--spec`-loadable JSON file (the fault plan rides inline, so replay
//! is one command).

use crate::{check_run, report_fingerprint, run_cell};
use qlec_cli::spec::SimSpec;
use qlec_core::params::{CandidatePolicy, HeadIndexMode};
use qlec_geom::{Aabb, Vec3};
use qlec_net::{FaultEvent, FaultPlan, LinkEnd};
use qlec_obs::EventsMode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::time::Instant;

/// Test-only invariant breaks the soak can inject to prove its own
/// failure path works end to end (CI runs one injected trial and
/// asserts a minimized reproducer comes out).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedBreak {
    /// Add a phantom generated packet to the report totals, breaking
    /// packet conservation.
    Conservation,
}

impl InjectedBreak {
    /// Parse the CLI spelling.
    pub fn parse(text: &str) -> Result<InjectedBreak, String> {
        match text {
            "conservation" => Ok(InjectedBreak::Conservation),
            _ => Err(format!(
                "unknown injected break `{text}` (try: conservation)"
            )),
        }
    }
}

/// Soak run parameters.
pub struct SoakConfig {
    /// Wall-clock budget; sampling stops once it is spent.
    pub seconds: f64,
    /// Seed of the sampling stream (trial `t` uses `seed + t`, so a
    /// failing trial replays without re-running its predecessors).
    pub seed: u64,
    /// Where minimized reproducers are written.
    pub out_dir: PathBuf,
    /// Test hook: corrupt every trial's report this way.
    pub inject: Option<InjectedBreak>,
    /// Hard cap on trials regardless of the time budget (test hook).
    pub max_trials: Option<u64>,
}

/// A soak failure, after shrinking.
pub struct SoakFailure {
    /// Which trial failed (its sampling seed is `config.seed + trial`).
    pub trial: u64,
    /// The violations the *minimized* spec still triggers.
    pub violations: Vec<String>,
    /// The minimized spec.
    pub minimized: SimSpec,
    /// Where the reproducer JSON was written.
    pub repro_path: PathBuf,
}

/// What a soak run did.
pub struct SoakSummary {
    /// Trials completed (failing trial included).
    pub trials: u64,
    /// The first failure, if any; the soak stops at the first one so
    /// the reproducer corresponds to a single root cause.
    pub failure: Option<SoakFailure>,
}

/// Sample a spec from the full vocabulary the CLI round-trips. Every
/// knob here must survive `SimSpec::to_json` → `from_json`, which
/// `failure_of` asserts on every trial. `threads` is the comparison
/// run's worker count, drawn from 2–4; the base run always uses one.
/// The N = 400 arm reaches k ≥ 16, where `--candidates auto` starts
/// pruning (the Theorem-1 budget drops below k), so the pruned
/// `Send-Data` path that runs at scale is sampled too.
pub fn sample_spec(rng: &mut StdRng) -> SimSpec {
    let n = *pick(rng, &[16usize, 24, 32, 48, 64, 96, 400]);
    let k = rng.gen_range(2..=2.max(n / 6));
    let protocol = if rng.gen_bool(0.7) {
        "qlec"
    } else {
        *pick(rng, &["leach", "deec", "heed", "fcm", "kmeans"])
    };
    let rounds = rng.gen_range(2..=5u32);
    let m = 200.0;
    // Mostly healthy batteries; sometimes near-dead ones so the
    // death/dropout paths get sampled too.
    let energy = if rng.gen_bool(0.2) { 0.5 } else { 5.0 };
    let death_line = if rng.gen_bool(0.25) { 0.05 } else { 0.0 };
    let candidates = match rng.gen_range(0..3u32) {
        0 => CandidatePolicy::Auto,
        1 => CandidatePolicy::Full,
        _ => CandidatePolicy::Fixed(rng.gen_range(1..=8)),
    };
    let faults = if rng.gen_bool(0.6) {
        Some(sample_plan(rng, n as u32, rounds, m))
    } else {
        None
    };
    SimSpec {
        protocol: protocol.to_string(),
        n,
        m,
        energy,
        k,
        lambda: *pick(rng, &[1.0, 2.0, 5.0, 8.0]),
        rounds,
        seed: rng.gen(),
        death_line,
        candidates,
        head_index: if rng.gen_bool(0.5) {
            HeadIndexMode::Incremental
        } else {
            HeadIndexMode::Rebuild
        },
        threads: rng.gen_range(2..=4),
        faults,
        ..SimSpec::default()
    }
}

/// Sample a fault plan: 1–4 events drawn from all five directive kinds,
/// windows clipped to the run horizon.
pub fn sample_plan(rng: &mut StdRng, n: u32, rounds: u32, m: f64) -> FaultPlan {
    let count = rng.gen_range(1..=4usize);
    let mut events = Vec::with_capacity(count);
    for _ in 0..count {
        let from = rng.gen_range(0..rounds);
        let to = rng.gen_range(from..rounds);
        events.push(match rng.gen_range(0..5u32) {
            0 => FaultEvent::NodeCrash {
                round: from,
                node: rng.gen_range(0..n),
            },
            1 => FaultEvent::BatteryDrain {
                round: from,
                node: rng.gen_range(0..n),
                joules: rng.gen_range(0.1..6.0),
            },
            2 => {
                let x = rng.gen_range(0..n);
                let a = LinkEnd::Node(x);
                // A distinct second endpoint: the BS, or the next node.
                let b = if rng.gen_bool(0.3) {
                    LinkEnd::Bs
                } else {
                    LinkEnd::Node((x + 1) % n)
                };
                FaultEvent::LinkDegrade {
                    from_round: from,
                    to_round: to,
                    a,
                    b,
                    loss_multiplier: rng.gen_range(1.0..10.0),
                }
            }
            3 => {
                let lo = Vec3::new(
                    rng.gen_range(0.0..m / 2.0),
                    rng.gen_range(0.0..m / 2.0),
                    rng.gen_range(0.0..m / 2.0),
                );
                let hi = Vec3::new(
                    lo.x + rng.gen_range(1.0..m / 2.0),
                    lo.y + rng.gen_range(1.0..m / 2.0),
                    lo.z + rng.gen_range(1.0..m / 2.0),
                );
                FaultEvent::RegionBlackout {
                    from_round: from,
                    to_round: to,
                    region: Aabb::from_corners(lo, hi),
                }
            }
            _ => FaultEvent::BsOutage {
                from_round: from,
                to_round: to,
            },
        });
    }
    FaultPlan::named("soak", events)
}

fn pick<'a, T>(rng: &mut StdRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

/// Run one spec through every soak check; `None` means it passed.
///
/// Checks, in order: the spec survives its own JSON round trip (what
/// the reproducer file relies on); the threads-1 run satisfies every
/// report/merge invariant; a run at `spec.threads` workers (at least 2)
/// is byte-identical to it.
pub fn failure_of(spec: &SimSpec, inject: Option<InjectedBreak>) -> Option<Vec<String>> {
    match SimSpec::from_json(&spec.to_json()) {
        Err(e) => return Some(vec![format!("spec JSON round trip: {e}")]),
        Ok(back) if &back != spec => {
            return Some(vec!["spec JSON round trip changed the spec".to_string()])
        }
        Ok(_) => {}
    }
    let base_spec = SimSpec {
        threads: 1,
        ..spec.clone()
    };
    let mut base = match run_cell(&base_spec, EventsMode::Full, false) {
        Ok(run) => run,
        Err(e) => return Some(vec![format!("run failed: {e}")]),
    };
    if let Some(InjectedBreak::Conservation) = inject {
        base.report.totals.generated += 1;
    }
    let violations = check_run(&base_spec, &base);
    if !violations.is_empty() {
        return Some(violations);
    }
    let threads = spec.threads.max(2);
    let parallel_spec = SimSpec {
        threads,
        ..spec.clone()
    };
    let parallel = match run_cell(&parallel_spec, EventsMode::Full, false) {
        Ok(run) => run,
        Err(e) => return Some(vec![format!("threads-{threads} run failed: {e}")]),
    };
    if base.stream != parallel.stream {
        let line = base
            .stream
            .lines()
            .zip(parallel.stream.lines())
            .position(|(a, b)| a != b)
            .map(|i| format!("line {}", i + 1))
            .unwrap_or_else(|| "stream lengths".to_string());
        return Some(vec![format!(
            "event stream diverged between threads 1 and {threads} at {line}"
        )]);
    }
    if report_fingerprint(&base.report) != report_fingerprint(&parallel.report) {
        return Some(vec![format!(
            "report diverged between threads 1 and {threads}"
        )]);
    }
    None
}

/// Greedily shrink a failing spec: keep applying the first reduction
/// that still fails until a fixed point (or the evaluation budget runs
/// out). No randomness — shrinking is deterministic given the spec.
pub fn shrink(spec: &SimSpec, inject: Option<InjectedBreak>, mut budget: u32) -> SimSpec {
    let mut current = spec.clone();
    loop {
        let mut reduced = false;
        for candidate in reductions(&current) {
            if budget == 0 {
                return current;
            }
            budget -= 1;
            if failure_of(&candidate, inject).is_some() {
                current = candidate;
                reduced = true;
                break;
            }
        }
        if !reduced {
            return current;
        }
    }
}

/// Candidate reductions, most aggressive first: drop the fault plan,
/// drop single events, then shrink the numeric knobs.
fn reductions(spec: &SimSpec) -> Vec<SimSpec> {
    let mut out = Vec::new();
    if let Some(plan) = &spec.faults {
        out.push(SimSpec {
            faults: None,
            ..spec.clone()
        });
        if plan.events.len() > 1 {
            for i in 0..plan.events.len() {
                let mut events = plan.events.clone();
                events.remove(i);
                out.push(SimSpec {
                    faults: Some(FaultPlan::named(&plan.name, events)),
                    ..spec.clone()
                });
            }
        }
    }
    if spec.rounds > 2 {
        out.push(SimSpec {
            rounds: (spec.rounds / 2).max(2),
            ..spec.clone()
        });
    }
    if spec.n > 16 {
        let n = (spec.n / 2).max(16);
        out.push(SimSpec {
            n,
            k: spec.k.min(2.max(n / 6)),
            ..spec.clone()
        });
    }
    if spec.k > 2 {
        out.push(SimSpec {
            k: (spec.k / 2).max(2),
            ..spec.clone()
        });
    }
    if spec.death_line > 0.0 {
        out.push(SimSpec {
            death_line: 0.0,
            ..spec.clone()
        });
    }
    if spec.candidates != CandidatePolicy::Auto {
        out.push(SimSpec {
            candidates: CandidatePolicy::Auto,
            ..spec.clone()
        });
    }
    out
}

/// Run the soak: sample until the time budget (or trial cap) is spent,
/// or the first failure is shrunk and written out.
pub fn run_soak(config: &SoakConfig) -> Result<SoakSummary, String> {
    let started = Instant::now();
    let mut trials = 0u64;
    loop {
        if let Some(cap) = config.max_trials {
            if trials >= cap {
                break;
            }
        }
        if trials > 0 && started.elapsed().as_secs_f64() >= config.seconds {
            break;
        }
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(trials));
        let spec = sample_spec(&mut rng);
        trials += 1;
        if failure_of(&spec, config.inject).is_some() {
            let minimized = shrink(&spec, config.inject, 200);
            // Re-run the minimized spec for the violations we report:
            // shrinking may have changed which check fires first.
            let violations = failure_of(&minimized, config.inject)
                .unwrap_or_else(|| vec!["shrink lost the failure (harness bug)".to_string()]);
            std::fs::create_dir_all(&config.out_dir)
                .map_err(|e| format!("cannot create {}: {e}", config.out_dir.display()))?;
            let repro_path = config.out_dir.join(format!(
                "soak-repro-seed{}-trial{}.json",
                config.seed,
                trials - 1
            ));
            std::fs::write(&repro_path, minimized.to_json())
                .map_err(|e| format!("cannot write {}: {e}", repro_path.display()))?;
            return Ok(SoakSummary {
                trials,
                failure: Some(SoakFailure {
                    trial: trials - 1,
                    violations,
                    minimized,
                    repro_path,
                }),
            });
        }
    }
    Ok(SoakSummary {
        trials,
        failure: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_round_trips() {
        for trial in 0..12u64 {
            let mut a = StdRng::seed_from_u64(1000 + trial);
            let mut b = StdRng::seed_from_u64(1000 + trial);
            let spec = sample_spec(&mut a);
            assert_eq!(spec, sample_spec(&mut b), "trial {trial} not deterministic");
            spec.validate()
                .unwrap_or_else(|e| panic!("trial {trial}: {e}"));
            let back = SimSpec::from_json(&spec.to_json())
                .unwrap_or_else(|e| panic!("trial {trial}: {e}"));
            assert_eq!(back, spec, "trial {trial} lost a knob in JSON");
        }
    }

    #[test]
    fn sampling_reaches_the_pruned_auto_budget() {
        // The soak's own per-trial streams (seed 42, trial t → 42 + t).
        // Without the N = 400 arm only k = 16 at N = 96 prunes (11 of
        // these trials); with it, 78 do. Require the routine rate.
        let pruned = (0..2000u64)
            .filter(|&trial| {
                let spec = sample_spec(&mut StdRng::seed_from_u64(42 + trial));
                spec.protocol == "qlec"
                    && spec.candidates == CandidatePolicy::Auto
                    && spec.candidates.budget(spec.k).is_some_and(|c| c < spec.k)
            })
            .count();
        assert!(
            pruned >= 20,
            "{pruned} of 2000 sampled specs prune under --candidates auto"
        );
    }

    #[test]
    fn injected_break_is_caught_and_minimized() {
        let dir = std::env::temp_dir().join(format!("qlec-soak-inject-{}", std::process::id()));
        let summary = run_soak(&SoakConfig {
            seconds: 60.0,
            seed: 42,
            out_dir: dir.clone(),
            inject: Some(InjectedBreak::Conservation),
            max_trials: Some(1),
        })
        .expect("soak harness runs");
        let failure = summary.failure.expect("injected break must be caught");
        assert!(
            failure.violations.iter().any(|v| v.contains("conserv")),
            "violations: {:?}",
            failure.violations
        );
        // The minimized spec must shed everything irrelevant to a
        // report-totals corruption: the fault plan and the big knobs.
        assert!(failure.minimized.faults.is_none(), "faults not shrunk away");
        assert!(
            failure.minimized.n <= 16,
            "n not shrunk: {}",
            failure.minimized.n
        );
        assert!(failure.minimized.rounds <= 2, "rounds not shrunk");
        // The written reproducer is a loadable spec that still fails.
        let text = std::fs::read_to_string(&failure.repro_path).expect("reproducer written");
        let replay = SimSpec::from_json(&text).expect("reproducer is a loadable --spec file");
        assert_eq!(replay, failure.minimized);
        assert!(
            failure_of(&replay, Some(InjectedBreak::Conservation)).is_some(),
            "reproducer must still fail under the same injection"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn clean_soak_slice_is_green() {
        // A pinned seed + small trial cap keeps this fast; CI runs the
        // long time-boxed version.
        let summary = run_soak(&SoakConfig {
            seconds: 60.0,
            seed: 42,
            out_dir: std::env::temp_dir(),
            inject: None,
            max_trials: Some(4),
        })
        .expect("soak harness runs");
        assert!(
            summary.failure.is_none(),
            "trial {} failed: {:?}",
            summary.failure.as_ref().unwrap().trial,
            summary.failure.as_ref().unwrap().violations
        );
        assert_eq!(summary.trials, 4);
    }
}
