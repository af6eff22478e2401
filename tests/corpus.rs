//! The corpus gate: run the full declarative cell matrix against the
//! checked-in golden ledgers, and replay every soak-found regression
//! spec filed under `tests/corpus/regressions/`.
//!
//! This is the in-process replacement for the shell-script equivalence
//! jobs CI used to run (sink, merge, spec-vs-flags) — one
//! binary-identical code path, one failure report.

use qlec_corpus::soak::failure_of;
use qlec_corpus::{default_golden_dir, run_matrix, GoldenMode};

#[test]
fn full_matrix_matches_checked_in_ledgers() {
    let results = run_matrix(None, &default_golden_dir(), GoldenMode::Check);
    assert!(
        results.len() >= 14,
        "matrix shrank to {} cells",
        results.len()
    );
    let failures: Vec<String> = results
        .iter()
        .filter_map(|(name, r)| r.as_ref().err().map(|e| format!("{name}: {e}")))
        .collect();
    assert!(
        failures.is_empty(),
        "corpus failures:\n{}",
        failures.join("\n")
    );
}

#[test]
fn filed_regressions_stay_fixed() {
    let dir = std::path::Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/corpus/regressions"
    ));
    let mut replayed = 0usize;
    for entry in std::fs::read_dir(dir).expect("regressions directory exists") {
        let path = entry.expect("readable entry").path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable spec");
        let spec = qlec_cli::spec::SimSpec::from_json(&text)
            .unwrap_or_else(|e| panic!("{}: not a --spec file: {e}", path.display()));
        if let Some(violations) = failure_of(&spec, None) {
            panic!(
                "{} regressed again:\n{}",
                path.display(),
                violations.join("\n")
            );
        }
        replayed += 1;
    }
    // No assertion on `replayed > 0`: an empty directory just means the
    // soak has not found a real failure yet (see its README).
    let _ = replayed;
}

/// The root `.gitignore` excludes `*.json` repo-wide; the corpus relies
/// on a `!tests/corpus/**/*.json` negation so golden ledgers and filed
/// regression specs actually land in the repository. Without this
/// check, a ledger can pass locally while every fresh checkout fails
/// with "no golden ledger at ..." — the corpus would enforce nothing.
#[test]
fn corpus_json_is_not_gitignored() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut json_files = Vec::new();
    for sub in ["tests/corpus/golden", "tests/corpus/regressions"] {
        let Ok(entries) = std::fs::read_dir(root.join(sub)) else {
            continue;
        };
        for entry in entries {
            let path = entry.expect("readable entry").path();
            if path.extension().is_some_and(|e| e == "json") {
                json_files.push(path);
            }
        }
    }
    // Representative probes so the check bites even before any real
    // ledger/regression exists on this machine.
    json_files.push(root.join("tests/corpus/golden/probe.json"));
    json_files.push(root.join("tests/corpus/regressions/probe.json"));
    let output = std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["check-ignore", "--no-index", "--"])
        .args(&json_files)
        .output();
    let Ok(output) = output else {
        return; // git unavailable (e.g. packaged source): nothing to verify
    };
    if output.status.code() == Some(128) {
        return; // not a git checkout
    }
    let ignored = String::from_utf8_lossy(&output.stdout);
    assert!(
        ignored.trim().is_empty(),
        "corpus JSON is gitignored and would vanish from a fresh checkout \
         (is the `!tests/corpus/**/*.json` negation still in .gitignore?):\n{ignored}"
    );
}
