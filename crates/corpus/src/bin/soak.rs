//! `qlec-soak` — time-boxed randomized soak over the spec vocabulary.
//!
//! ```text
//! qlec-soak [--seconds N] [--seed S] [--out DIR]
//!           [--trials N] [--inject-break KIND]
//! ```
//!
//! Samples random specs (with inline fault plans), runs the corpus
//! invariants and the threads-1-vs-T byte diff (T drawn from 2–4)
//! against each, and on the first failure shrinks the spec and writes
//! a minimized reproducer as a `--spec`-loadable JSON under `--out`.
//! Exit 0 = soak green.
//!
//! `--inject-break` corrupts every trial's report on purpose — the CI
//! self-test that proves a real invariant break would surface as a
//! reproducer, not a silent pass.

use qlec_corpus::soak::{run_soak, InjectedBreak, SoakConfig};
use std::path::PathBuf;

const USAGE: &str =
    "usage: qlec-soak [--seconds N] [--seed S] [--out DIR] [--trials N] [--inject-break KIND]

  --seconds N        wall-clock budget (default 30)
  --seed S           sampling seed; trial t uses seed S+t (default 42)
  --out DIR          reproducer output directory (default .)
  --trials N         hard trial cap regardless of the time budget
  --inject-break K   corrupt every report with break K (self-test; kinds: conservation)";

fn main() {
    let mut config = SoakConfig {
        seconds: 30.0,
        seed: 42,
        out_dir: PathBuf::from("."),
        inject: None,
        max_trials: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seconds" => config.seconds = parse(&require_value(&mut args, "--seconds")),
            "--seed" => config.seed = parse(&require_value(&mut args, "--seed")),
            "--out" => config.out_dir = require_value(&mut args, "--out").into(),
            "--trials" => config.max_trials = Some(parse(&require_value(&mut args, "--trials"))),
            "--inject-break" => {
                config.inject = Some(
                    InjectedBreak::parse(&require_value(&mut args, "--inject-break"))
                        .unwrap_or_else(|e| fail(&e)),
                )
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown argument `{other}`")),
        }
    }
    match run_soak(&config) {
        Err(e) => {
            eprintln!("soak harness error: {e}");
            std::process::exit(2);
        }
        Ok(summary) => match summary.failure {
            None => {
                println!(
                    "soak green: {} trials in {:.0} s (seed {})",
                    summary.trials, config.seconds, config.seed
                );
            }
            Some(f) => {
                println!("soak FAILED at trial {} (seed {}):", f.trial, config.seed);
                for v in &f.violations {
                    println!("  - {v}");
                }
                println!("minimized reproducer: {}", f.repro_path.display());
                println!(
                    "replay: qlec-sim run --spec {} --events -",
                    f.repro_path.display()
                );
                std::process::exit(1);
            }
        },
    }
}

fn require_value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next()
        .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
}

fn parse<T: std::str::FromStr>(text: &str) -> T {
    text.parse()
        .unwrap_or_else(|_| fail(&format!("cannot parse `{text}`")))
}

fn fail(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2)
}
