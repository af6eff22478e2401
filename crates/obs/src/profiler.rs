//! The per-thread phase profiler.
//!
//! A [`PhaseProfiler`] is attached to an [`crate::ObserverSet`] with
//! [`crate::ObserverSet::with_profiler`] and collects, out-of-band from
//! the event stream:
//!
//! * **wall** time per hierarchical phase path (`"transmission/merge"`),
//!   fed automatically from every [`crate::Event::PhaseTimed`] emission
//!   and from explicit [`PhaseProfiler::record_wall`] calls,
//! * **busy** time per `(phase path, worker slot)` pair — the simulator
//!   measures each parallel plan job on its worker and attributes it to
//!   the worker slot, so `busy` reveals fan-out imbalance that a single
//!   wall number hides,
//! * named **counters** (`merge.conflicts`, `merge.retargets`), and
//! * a per-round latency [`Histogram`], from which the report derives
//!   p50/p90/p99.
//!
//! Everything is aggregated in place (one mutex-guarded accumulator
//! state, a handful of updates per round), so profiling a 100k-node run
//! costs clock reads, not memory proportional to rounds × nodes. The
//! profiler deliberately does **not** write events: the event stream
//! stays a pure function of the simulation, so `--events -` bytes are
//! identical with and without `--profile`.

use crate::clock::{Clock, WallClock};
use crate::registry::Histogram;
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Version tag of the serialized [`ProfileReport`].
pub const PROFILE_SCHEMA: &str = "qlec-profile/v1";

/// Accumulator state behind the profiler's mutex.
#[derive(Debug, Default)]
struct ProfilerState {
    /// Worker slots the run fanned out over (1 = sequential).
    threads: usize,
    /// Phase path → total wall ns.
    wall: BTreeMap<String, u64>,
    /// (phase path, worker slot) → total busy ns.
    busy: BTreeMap<(String, usize), u64>,
    /// Named counters (`merge.conflicts`, `merge.retargets`, …).
    counters: BTreeMap<String, u64>,
    /// One sample per round: the round's wall ns.
    round_wall: Histogram,
    /// Total wall across recorded rounds (exact, not bucketized).
    total_wall_ns: u64,
}

/// Collects per-phase-per-thread busy/wall times, counters, and round
/// latency quantiles for one run. Shared via `Arc`; all methods take
/// `&self`.
pub struct PhaseProfiler {
    clock: Arc<dyn Clock>,
    state: Mutex<ProfilerState>,
}

impl Default for PhaseProfiler {
    fn default() -> Self {
        PhaseProfiler::new()
    }
}

impl PhaseProfiler {
    /// A profiler on the process [`WallClock`].
    pub fn new() -> Self {
        PhaseProfiler::with_clock(Arc::new(WallClock::new()))
    }

    /// A profiler on a supplied clock (deterministic tests).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        PhaseProfiler {
            clock,
            state: Mutex::new(ProfilerState {
                threads: 1,
                ..ProfilerState::default()
            }),
        }
    }

    /// Current time on the profiler's clock. Safe to call from worker
    /// threads (no lock taken).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Record how many worker slots the run fans out over.
    pub fn set_threads(&self, threads: usize) {
        self.lock().threads = threads.max(1);
    }

    /// Add wall time to a phase path.
    pub fn record_wall(&self, path: &str, wall_ns: u64) {
        let mut s = self.lock();
        *s.wall.entry(path.to_string()).or_insert(0) += wall_ns;
    }

    /// Add busy time to a `(phase path, worker slot)` pair.
    pub fn record_busy(&self, path: &str, thread: usize, busy_ns: u64) {
        let mut s = self.lock();
        *s.busy.entry((path.to_string(), thread)).or_insert(0) += busy_ns;
    }

    /// Add to a named counter.
    pub fn inc(&self, counter: &str, by: u64) {
        let mut s = self.lock();
        *s.counters.entry(counter.to_string()).or_insert(0) += by;
    }

    /// Record one completed round's wall time (drives the report's
    /// latency quantiles).
    pub fn record_round(&self, wall_ns: u64) {
        let mut s = self.lock();
        s.round_wall.observe(wall_ns as f64);
        s.total_wall_ns += wall_ns;
    }

    /// Snapshot the accumulated data as a serializable report.
    pub fn report(&self) -> ProfileReport {
        let s = self.lock();
        let h = &s.round_wall;
        let round_latency = RoundLatency {
            rounds: h.count(),
            mean_ns: h.mean().unwrap_or(0.0),
            p50_ns: h.p50().unwrap_or(0.0),
            p90_ns: h.p90().unwrap_or(0.0),
            p99_ns: h.p99().unwrap_or(0.0),
            max_ns: h.max().unwrap_or(0.0),
        };
        // Merge wall and busy keys so a phase with only one kind of
        // measurement still gets a row.
        let mut paths: Vec<&String> = s.wall.keys().collect();
        for (path, _) in s.busy.keys() {
            if !s.wall.contains_key(path) {
                paths.push(path);
            }
        }
        paths.sort();
        paths.dedup();
        let phases: Vec<PhaseRow> = paths
            .iter()
            .map(|&path| PhaseRow {
                path: path.clone(),
                wall_ns: s.wall.get(path).copied().unwrap_or(0),
                busy: s
                    .busy
                    .range((path.clone(), 0)..=(path.clone(), usize::MAX))
                    .map(|(&(_, thread), &busy_ns)| ThreadBusy { thread, busy_ns })
                    .collect(),
            })
            .collect();
        let counters = s
            .counters
            .iter()
            .map(|(name, &value)| CounterRow {
                name: name.clone(),
                value,
            })
            .collect();
        // Thread utilization: each slot's total busy over the total
        // round wall. Busy is only ever recorded for mutually exclusive
        // spans (wall-only phases like `transmission` or
        // `transmission/qrouting` overlap their children and contribute
        // nothing here), so a plain sum does not double-count.
        let mut busy_by_thread: BTreeMap<usize, u64> = BTreeMap::new();
        for ((_, thread), busy_ns) in s.busy.iter() {
            *busy_by_thread.entry(*thread).or_insert(0) += busy_ns;
        }
        let utilization = (0..s.threads)
            .map(|thread| {
                let busy_ns = busy_by_thread.get(&thread).copied().unwrap_or(0);
                ThreadUtil {
                    thread,
                    busy_ns,
                    share: if s.total_wall_ns > 0 {
                        busy_ns as f64 / s.total_wall_ns as f64
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        ProfileReport {
            schema: PROFILE_SCHEMA.to_string(),
            threads: s.threads,
            total_wall_ns: s.total_wall_ns,
            round_latency,
            phases,
            counters,
            utilization,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ProfilerState> {
        self.state.lock().expect("profiler state poisoned")
    }
}

impl std::fmt::Debug for PhaseProfiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.lock();
        f.debug_struct("PhaseProfiler")
            .field("threads", &s.threads)
            .field("phases", &s.wall.len())
            .field("rounds", &s.round_wall.count())
            .finish()
    }
}

/// Busy time one worker slot spent in one phase.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ThreadBusy {
    /// Worker slot (chunk index of the parallel fan-out; 0 = the
    /// simulation thread for sequential phases).
    pub thread: usize,
    /// Total busy ns this slot spent in the phase.
    pub busy_ns: u64,
}

/// One phase of the hierarchical profile tree.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PhaseRow {
    /// `/`-separated phase path (`"transmission/merge"`).
    pub path: String,
    /// Total wall ns across rounds (0 when only busy was recorded).
    pub wall_ns: u64,
    /// Per-worker-slot busy breakdown, ascending by slot.
    pub busy: Vec<ThreadBusy>,
}

/// A named profiler counter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CounterRow {
    pub name: String,
    pub value: u64,
}

/// Round-latency quantiles (bucket-resolution estimates from the round
/// wall histogram; mean and max are exact).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RoundLatency {
    pub rounds: u64,
    pub mean_ns: f64,
    pub p50_ns: f64,
    pub p90_ns: f64,
    pub p99_ns: f64,
    pub max_ns: f64,
}

/// One worker slot's share of the run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ThreadUtil {
    pub thread: usize,
    /// Total busy ns over all phases. Busy is recorded only for
    /// mutually exclusive spans, so the sum does not double-count.
    pub busy_ns: u64,
    /// `busy_ns / total_wall_ns`.
    pub share: f64,
}

/// A serializable snapshot of one run's profile (see [`PROFILE_SCHEMA`]).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ProfileReport {
    pub schema: String,
    pub threads: usize,
    pub total_wall_ns: u64,
    pub round_latency: RoundLatency,
    pub phases: Vec<PhaseRow>,
    pub counters: Vec<CounterRow>,
    pub utilization: Vec<ThreadUtil>,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl ProfileReport {
    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Fraction of the merge walk's classified member packets at or
    /// past the round's clean frontier:
    /// `merge.residue / (merge.clean_commits + merge.residue)`.
    /// `None` when the run reported no classification (`threads = 1`)
    /// or classified nothing.
    pub fn residue_fraction(&self) -> Option<f64> {
        let clean = self.counter("merge.clean_commits").unwrap_or(0);
        let residue = self.counter("merge.residue").unwrap_or(0);
        let classified = clean + residue;
        (classified > 0).then(|| residue as f64 / classified as f64)
    }

    /// Render the hierarchical phase tree, counters, and the
    /// thread-utilization table as fixed-width text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== phase profile: {} thread slot(s), {} round(s), {:.3} s wall ==",
            self.threads,
            self.round_latency.rounds,
            self.total_wall_ns as f64 / 1e9,
        );
        let r = &self.round_latency;
        let _ = writeln!(
            out,
            "round latency: p50={:.3} ms  p90={:.3} ms  p99={:.3} ms  mean={:.3} ms  max={:.3} ms",
            r.p50_ns / 1e6,
            r.p90_ns / 1e6,
            r.p99_ns / 1e6,
            r.mean_ns / 1e6,
            r.max_ns / 1e6,
        );
        let _ = writeln!(out, "{:<32} {:>12} {:>12}", "phase", "wall ms", "busy ms");
        for row in &self.phases {
            let depth = row.path.matches('/').count();
            let name = row.path.rsplit('/').next().unwrap_or(&row.path);
            let label = format!("{}{}", "  ".repeat(depth), name);
            let busy_total: u64 = row.busy.iter().map(|b| b.busy_ns).sum();
            let _ = writeln!(
                out,
                "{label:<32} {:>12.3} {:>12.3}",
                ms(row.wall_ns),
                ms(busy_total),
            );
            if row.busy.len() > 1 {
                for b in &row.busy {
                    let sub = format!("{}  [t{}]", "  ".repeat(depth), b.thread);
                    let _ = writeln!(out, "{sub:<32} {:>12} {:>12.3}", "", ms(b.busy_ns));
                }
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for c in &self.counters {
                let _ = writeln!(out, "  {:<30} {}", c.name, c.value);
            }
            // Derived from merge.residue / (merge.clean_commits +
            // merge.residue) — rendered beside the raw merge counters
            // rather than stored, so the counter map stays integral.
            // When the merge counters exist but classified nothing
            // (e.g. a full-blackout run generated zero packets), the
            // fraction is undefined: say so explicitly instead of
            // silently omitting the line or faking a 0.000.
            let merge_counters_present = self.counter("merge.clean_commits").is_some()
                || self.counter("merge.residue").is_some();
            match self.residue_fraction() {
                Some(f) => {
                    let _ = writeln!(out, "  {:<30} {f:.3}", "merge.residue_fraction");
                }
                None if merge_counters_present => {
                    let _ = writeln!(
                        out,
                        "  {:<30} n/a (nothing classified)",
                        "merge.residue_fraction"
                    );
                }
                None => {}
            }
        }
        let _ = writeln!(out, "thread utilization (busy / total wall):");
        for u in &self.utilization {
            let _ = writeln!(
                out,
                "  t{:<3} {:>6.1}%  ({:.3} s)",
                u.thread,
                u.share * 100.0,
                u.busy_ns as f64 / 1e9,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    fn manual() -> (Arc<ManualClock>, PhaseProfiler) {
        let clock = Arc::new(ManualClock::new());
        let prof = PhaseProfiler::with_clock(clock.clone());
        (clock, prof)
    }

    #[test]
    fn aggregates_wall_busy_counters_and_rounds() {
        let (_, prof) = manual();
        prof.set_threads(2);
        prof.record_wall("transmission", 100);
        prof.record_wall("transmission", 50);
        prof.record_wall("transmission/merge", 90);
        prof.record_busy("transmission/plan", 0, 30);
        prof.record_busy("transmission/plan", 1, 40);
        prof.record_busy("transmission", 0, 150);
        prof.inc("merge.conflicts", 3);
        prof.inc("merge.conflicts", 1);
        prof.record_round(200);
        prof.record_round(400);
        let report = prof.report();
        assert_eq!(report.schema, PROFILE_SCHEMA);
        assert_eq!(report.threads, 2);
        assert_eq!(report.total_wall_ns, 600);
        assert_eq!(report.round_latency.rounds, 2);
        assert_eq!(report.round_latency.mean_ns, 300.0);
        assert_eq!(report.round_latency.max_ns, 400.0);
        let tx = report
            .phases
            .iter()
            .find(|p| p.path == "transmission")
            .unwrap();
        assert_eq!(tx.wall_ns, 150);
        let plan = report
            .phases
            .iter()
            .find(|p| p.path == "transmission/plan")
            .unwrap();
        assert_eq!(plan.wall_ns, 0, "busy-only phase still gets a row");
        assert_eq!(
            plan.busy,
            vec![
                ThreadBusy {
                    thread: 0,
                    busy_ns: 30
                },
                ThreadBusy {
                    thread: 1,
                    busy_ns: 40
                }
            ]
        );
        assert_eq!(
            report.counters,
            vec![CounterRow {
                name: "merge.conflicts".to_string(),
                value: 4
            }]
        );
    }

    #[test]
    fn utilization_sums_busy_across_phases_per_slot() {
        let (_, prof) = manual();
        prof.set_threads(2);
        prof.record_busy("transmission/merge", 0, 70);
        prof.record_busy("transmission/plan", 0, 10);
        prof.record_busy("transmission/plan", 1, 20);
        prof.record_wall("transmission", 95); // wall-only: no effect
        prof.record_round(100);
        let report = prof.report();
        assert_eq!(report.utilization.len(), 2);
        assert_eq!(report.utilization[0].busy_ns, 80);
        assert_eq!(report.utilization[0].share, 0.8);
        assert_eq!(report.utilization[1].busy_ns, 20);
        assert_eq!(report.utilization[1].share, 0.2);
    }

    #[test]
    fn render_shows_tree_counters_and_utilization() {
        let (_, prof) = manual();
        prof.set_threads(2);
        prof.record_wall("transmission", 2_000_000);
        prof.record_wall("transmission/merge", 1_500_000);
        prof.record_busy("transmission/plan", 0, 200_000);
        prof.record_busy("transmission/plan", 1, 300_000);
        prof.inc("merge.retargets", 7);
        prof.record_round(2_500_000);
        let text = prof.report().render();
        assert!(text.contains("phase profile"), "{text}");
        assert!(text.contains("round latency"), "{text}");
        assert!(text.contains("transmission"), "{text}");
        assert!(text.contains("  merge"), "children are indented: {text}");
        assert!(text.contains("[t0]"), "{text}");
        assert!(text.contains("[t1]"), "{text}");
        assert!(text.contains("merge.retargets"), "{text}");
        assert!(text.contains("thread utilization"), "{text}");
        assert!(text.contains("t1"), "{text}");
    }

    #[test]
    fn residue_fraction_derives_from_merge_counters() {
        let (_, prof) = manual();
        prof.inc("merge.clean_commits", 30);
        prof.inc("merge.residue", 70);
        let report = prof.report();
        assert_eq!(report.counter("merge.residue"), Some(70));
        assert_eq!(report.counter("nope"), None);
        assert_eq!(report.residue_fraction(), Some(0.7));
        let text = report.render();
        assert!(text.contains("merge.residue_fraction"), "{text}");
        assert!(text.contains("0.700"), "{text}");

        // Sequential merges never classify: no derived line.
        let (_, seq) = manual();
        seq.inc("merge.conflicts", 5);
        let report = seq.report();
        assert_eq!(report.residue_fraction(), None);
        assert!(!report.render().contains("residue_fraction"));
    }

    /// A pooled run whose merge classified nothing (no member packet
    /// was ever generated — e.g. a full-blackout fault plan) has the
    /// classification counters at zero. The fraction is undefined, not 0.000;
    /// the renderer must say so instead of dropping the line.
    #[test]
    fn render_marks_undefined_residue_fraction_explicitly() {
        let (_, prof) = manual();
        prof.inc("merge.clean_commits", 0);
        prof.inc("merge.residue", 0);
        let report = prof.report();
        assert_eq!(report.counter("merge.clean_commits"), Some(0));
        assert_eq!(report.residue_fraction(), None);
        let text = report.render();
        assert!(
            text.contains("merge.residue_fraction"),
            "zero-classified runs must still name the metric: {text}"
        );
        let line = text
            .lines()
            .find(|l| l.contains("merge.residue_fraction"))
            .expect("metric line present");
        assert!(
            line.ends_with("n/a (nothing classified)"),
            "must not fake a zero: {line:?}"
        );
    }

    #[test]
    fn empty_profiler_reports_zeros() {
        let (_, prof) = manual();
        let report = prof.report();
        assert_eq!(report.threads, 1);
        assert_eq!(report.round_latency.rounds, 0);
        assert_eq!(report.round_latency.p50_ns, 0.0);
        assert!(report.phases.is_empty());
        assert!(report.counters.is_empty());
        assert_eq!(report.utilization.len(), 1);
        assert_eq!(report.utilization[0].share, 0.0);
        // Still renders without panicking.
        assert!(report.render().contains("0 round(s)"));
    }

    #[test]
    fn report_serializes_with_ordered_fields() {
        let (_, prof) = manual();
        prof.record_wall("election", 10);
        prof.record_round(10);
        let json = serde_json::to_string(&prof.report()).unwrap();
        assert!(json.contains("\"schema\":\"qlec-profile/v1\""), "{json}");
        assert!(json.contains("\"round_latency\""), "{json}");
        assert!(json.contains("\"phases\""), "{json}");
        assert!(json.contains("\"utilization\""), "{json}");
    }

    #[test]
    fn now_ns_tracks_the_supplied_clock() {
        let (clock, prof) = manual();
        assert_eq!(prof.now_ns(), 0);
        clock.advance(42);
        assert_eq!(prof.now_ns(), 42);
    }
}
