//! The typed run specification behind `qlec-sim run`.
//!
//! [`SimSpec`] is the single source of truth for *what to simulate*:
//! deployment shape, protocol, traffic, horizon, and engine knobs. The
//! CLI builds one from individual flags ([`SimSpec::from_args`]) or
//! loads one whole from a JSON file ([`SimSpec::from_json`], the
//! `--spec FILE.json` path); either way the command implementations only
//! ever see the typed struct — [`crate::args::ParsedArgs`] stays a plain
//! flag tokenizer. Output-artifact flags (`--events`, `--trace`,
//! `--profile`, …) are deliberately *not* part of the spec: they
//! describe where this invocation writes, not which experiment runs, so
//! the same spec file reproduces the same run under any artifact set.
//!
//! The JSON shape uses the CLI spellings everywhere — `"candidates"`
//! accepts `"auto"`, `"full"`, or a positive integer;
//! `"head_index"` accepts `"incremental"` or `"rebuild"`; `"threads"`
//! accepts a positive integer or `"auto"` — and every field is optional
//! with the same defaults as the flags, so `{}` is the default run.
//! `"q_rows"` accepts `"sparse"` or `"dense"` and selects nothing (see
//! [`SimSpec::q_rows`]).
//! Unknown keys are rejected (a typoed field must not silently fall back
//! to its default).

use crate::args::ParsedArgs;
use qlec_core::params::{CandidatePolicy, HeadIndexMode, QRowsMode};
use qlec_net::FaultPlan;
use serde::{Deserialize, Error as SerdeError, Serialize, Value};

/// Everything `qlec-sim run` needs to know about the experiment itself.
///
/// Field defaults mirror the flag defaults (`SimSpec::default()` is the
/// stock paper run: QLEC, 100 nodes, 200 m cube, 5 J, k = 5, λ = 5,
/// 20 rounds, seed 42, one worker thread).
#[derive(Debug, Clone, PartialEq)]
pub struct SimSpec {
    /// Protocol under test (`qlec`, `fcm`, `kmeans`, `leach`, `deec`,
    /// `heed`).
    pub protocol: String,
    /// Node count `N`.
    pub n: usize,
    /// Deployment cube side `M` in metres.
    pub m: f64,
    /// Initial battery per node, joules.
    pub energy: f64,
    /// Cluster count `k`.
    pub k: usize,
    /// Mean packet inter-arrival time λ in slots.
    pub lambda: f64,
    /// Simulated rounds `R`.
    pub rounds: u32,
    /// Master RNG seed (deployment and run).
    pub seed: u64,
    /// Energy death line in joules (0 disables lifespan termination).
    pub death_line: f64,
    /// QLEC `Send-Data` candidate-pruning policy.
    pub candidates: CandidatePolicy,
    /// QLEC spatial-index maintenance mode.
    pub head_index: HeadIndexMode,
    /// Accepted, inert spelling of the retired decision-Q row-store
    /// layout ([`QRowsMode`]): no Q-row is materialized, so no value
    /// changes a run. Kept so existing specs and golden ledgers, which
    /// serialize `"q_rows": "sparse"`, still load.
    pub q_rows: QRowsMode,
    /// Worker threads for the round engine (`0` = auto, every core).
    pub threads: usize,
    /// Inline fault plan, or `None` for a fault-free run. A spec that
    /// carries one is fully self-contained: the soak harness and the
    /// corpus runner write failing scenarios as single `--spec` files
    /// with the plan embedded, so replay is one command with no
    /// side-car `--faults` file.
    pub faults: Option<FaultPlan>,
}

impl Default for SimSpec {
    fn default() -> Self {
        SimSpec {
            protocol: "qlec".to_string(),
            n: 100,
            m: 200.0,
            energy: 5.0,
            k: 5,
            lambda: 5.0,
            rounds: 20,
            seed: 42,
            death_line: 0.0,
            candidates: CandidatePolicy::Auto,
            head_index: HeadIndexMode::default(),
            q_rows: QRowsMode::default(),
            threads: 1,
            faults: None,
        }
    }
}

/// The spec's field names, in serialization order. Shared by the
/// serializer, the unknown-key check, and the flag-conflict check in
/// `cmd_run` (flag spelling = field name with `_` → `-`).
pub const SPEC_FIELDS: &[&str] = &[
    "protocol",
    "n",
    "m",
    "energy",
    "k",
    "lambda",
    "rounds",
    "seed",
    "death_line",
    "candidates",
    "head_index",
    "q_rows",
    "threads",
    "faults",
];

impl SimSpec {
    /// Build a spec from individual CLI flags, falling back to the
    /// defaults above for absent ones.
    pub fn from_args(args: &ParsedArgs) -> Result<SimSpec, String> {
        let d = SimSpec::default();
        Ok(SimSpec {
            protocol: args.get("protocol").unwrap_or(&d.protocol).to_string(),
            n: args.get_parsed("n", d.n)?,
            m: args.get_parsed("m", d.m)?,
            energy: args.get_parsed("energy", d.energy)?,
            k: args.get_parsed("k", d.k)?,
            lambda: args.get_parsed("lambda", d.lambda)?,
            rounds: args.get_parsed("rounds", d.rounds)?,
            seed: args.get_parsed("seed", d.seed)?,
            death_line: args.get_parsed("death-line", d.death_line)?,
            candidates: match args.get("candidates") {
                None => d.candidates,
                Some(text) => {
                    CandidatePolicy::parse(text).map_err(|e| format!("--candidates: {e}"))?
                }
            },
            head_index: match args.get("head-index") {
                None => d.head_index,
                Some(text) => {
                    HeadIndexMode::parse(text).map_err(|e| format!("--head-index: {e}"))?
                }
            },
            q_rows: match args.get("q-rows") {
                None => d.q_rows,
                Some(text) => QRowsMode::parse(text).map_err(|e| format!("--q-rows: {e}"))?,
            },
            threads: match args.get("threads") {
                Some("auto") => 0,
                None => d.threads,
                Some(_) => match args.get_parsed("threads", 1usize)? {
                    // 0 workers cannot run anything; `auto` is the
                    // spelling for "use every core".
                    0 => return Err("--threads must be positive (or `auto`)".into()),
                    t => t,
                },
            },
            // `--faults FILE` is loaded (and merged with the spec) by
            // `cmd_run`, not here: the flag names a file on disk while
            // the spec field carries the plan inline.
            faults: None,
        })
    }

    /// Load a spec from `--spec FILE.json` contents. Accepts exactly the
    /// shape [`SimSpec::to_json`] writes; missing fields default, unknown
    /// fields are an error.
    pub fn from_json(text: &str) -> Result<SimSpec, String> {
        let value: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        SimSpec::from_value(&value).map_err(|e| e.to_string())
    }

    /// Serialize to the canonical pretty-printed spec JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec serializes")
    }

    /// Check the cross-field invariants (same rules as the flag path).
    pub fn validate(&self) -> Result<(), String> {
        if self.n == 0 {
            return Err("--n must be positive".into());
        }
        if self.k == 0 || self.k > self.n {
            return Err("--k must be in 1..=n".into());
        }
        if self.m <= 0.0 || self.m.is_nan() {
            return Err("--m must be positive".into());
        }
        if self.lambda <= 0.0 || self.lambda.is_nan() {
            return Err("--lambda must be positive".into());
        }
        if self.rounds == 0 {
            return Err("--rounds must be positive".into());
        }
        if let Some(plan) = &self.faults {
            plan.validate().map_err(|e| format!("faults: {e}"))?;
        }
        Ok(())
    }
}

impl Serialize for SimSpec {
    fn to_value(&self) -> Value {
        let threads = if self.threads == 0 {
            Value::Str("auto".to_string())
        } else {
            Value::UInt(self.threads as u64)
        };
        let candidates = match self.candidates {
            CandidatePolicy::Fixed(c) => Value::UInt(c as u64),
            CandidatePolicy::Auto => Value::Str("auto".to_string()),
            CandidatePolicy::Full => Value::Str("full".to_string()),
        };
        let mut fields = vec![
            ("protocol".to_string(), Value::Str(self.protocol.clone())),
            ("n".to_string(), Value::UInt(self.n as u64)),
            ("m".to_string(), Value::Float(self.m)),
            ("energy".to_string(), Value::Float(self.energy)),
            ("k".to_string(), Value::UInt(self.k as u64)),
            ("lambda".to_string(), Value::Float(self.lambda)),
            ("rounds".to_string(), Value::UInt(self.rounds as u64)),
            ("seed".to_string(), Value::UInt(self.seed)),
            ("death_line".to_string(), Value::Float(self.death_line)),
            ("candidates".to_string(), candidates),
            ("head_index".to_string(), self.head_index.to_value()),
            ("q_rows".to_string(), self.q_rows.to_value()),
            ("threads".to_string(), threads),
        ];
        // Fault-free specs stay byte-compatible with the pre-faults
        // shape: the key is only written when a plan is present.
        if let Some(plan) = &self.faults {
            fields.push(("faults".to_string(), plan.to_value()));
        }
        Value::Object(fields)
    }
}

impl Deserialize for SimSpec {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        let Value::Object(fields) = v else {
            return Err(SerdeError::expected("spec object", v));
        };
        // A typoed key must fail loudly, not silently default the field
        // it was meant to set.
        for (key, _) in fields {
            if !SPEC_FIELDS.contains(&key.as_str()) {
                return Err(SerdeError::custom(format!(
                    "unknown spec field `{key}` (expected one of: {})",
                    SPEC_FIELDS.join(", ")
                )));
            }
        }
        let d = SimSpec::default();
        let f64_field = |name: &str, default: f64| -> Result<f64, SerdeError> {
            match v.get(name) {
                None | Some(Value::Null) => Ok(default),
                Some(x) => x
                    .as_f64()
                    .ok_or_else(|| SerdeError::expected(&format!("number for `{name}`"), x)),
            }
        };
        let u64_field = |name: &str, default: u64| -> Result<u64, SerdeError> {
            match v.get(name) {
                None | Some(Value::Null) => Ok(default),
                Some(x) => x
                    .as_u64()
                    .ok_or_else(|| SerdeError::expected(&format!("integer for `{name}`"), x)),
            }
        };
        let protocol = match v.get("protocol") {
            None | Some(Value::Null) => d.protocol.clone(),
            Some(Value::Str(s)) => s.clone(),
            Some(other) => return Err(SerdeError::expected("protocol string", other)),
        };
        let candidates = match v.get("candidates") {
            None | Some(Value::Null) => d.candidates,
            Some(Value::Str(s)) => CandidatePolicy::parse(s).map_err(SerdeError::custom)?,
            Some(x) => match x.as_u64() {
                Some(c) if c > 0 => CandidatePolicy::Fixed(c as usize),
                _ => return Err(SerdeError::expected("candidates policy", x)),
            },
        };
        let threads = match v.get("threads") {
            None | Some(Value::Null) => d.threads,
            Some(Value::Str(s)) if s == "auto" => 0,
            Some(x) => match x.as_u64() {
                Some(t) if t > 0 => t as usize,
                _ => {
                    return Err(SerdeError::custom(
                        "`threads` must be a positive integer or \"auto\"",
                    ))
                }
            },
        };
        let faults = match v.get("faults") {
            None | Some(Value::Null) => None,
            Some(x) => Some(FaultPlan::from_value(x)?),
        };
        Ok(SimSpec {
            protocol,
            n: u64_field("n", d.n as u64)? as usize,
            m: f64_field("m", d.m)?,
            energy: f64_field("energy", d.energy)?,
            k: u64_field("k", d.k as u64)? as usize,
            lambda: f64_field("lambda", d.lambda)?,
            rounds: u64_field("rounds", d.rounds as u64)? as u32,
            seed: u64_field("seed", d.seed)?,
            death_line: f64_field("death_line", d.death_line)?,
            candidates,
            head_index: HeadIndexMode::from_value(v.get("head_index").unwrap_or(&Value::Null))?,
            q_rows: QRowsMode::from_value(v.get("q_rows").unwrap_or(&Value::Null))?,
            threads,
            faults,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &[&str]) -> ParsedArgs {
        ParsedArgs::parse(line.iter().copied()).unwrap()
    }

    #[test]
    fn defaults_round_trip() {
        let spec = SimSpec::default();
        let back = SimSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(spec, back);
        // The empty object is the default run.
        assert_eq!(SimSpec::from_json("{}").unwrap(), spec);
    }

    #[test]
    fn flags_to_spec_to_json_to_spec() {
        let args = parse(&[
            "run",
            "--protocol",
            "leach",
            "--n",
            "64",
            "--m",
            "150",
            "--k",
            "4",
            "--lambda",
            "2.5",
            "--rounds",
            "7",
            "--seed",
            "9",
            "--death-line",
            "0.5",
            "--candidates",
            "12",
            "--head-index",
            "rebuild",
            "--q-rows",
            "dense",
            "--threads",
            "auto",
        ]);
        let spec = SimSpec::from_args(&args).unwrap();
        assert_eq!(spec.protocol, "leach");
        assert_eq!(spec.n, 64);
        assert_eq!(spec.candidates, CandidatePolicy::Fixed(12));
        assert_eq!(spec.head_index, HeadIndexMode::Rebuild);
        assert_eq!(spec.q_rows, QRowsMode::Dense);
        assert_eq!(spec.threads, 0, "auto spells 0");
        let back = SimSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(spec, back, "spec JSON round-trips losslessly");
    }

    #[test]
    fn unknown_field_is_rejected() {
        let err = SimSpec::from_json(r#"{"lamda": 3.0}"#).unwrap_err();
        assert!(err.contains("unknown spec field `lamda`"), "{err}");
        assert!(
            err.contains("lambda"),
            "error lists the valid fields: {err}"
        );
    }

    #[test]
    fn bad_field_values_are_rejected() {
        assert!(SimSpec::from_json(r#"{"threads": 0}"#).is_err());
        assert!(SimSpec::from_json(r#"{"threads": "many"}"#).is_err());
        assert!(SimSpec::from_json(r#"{"candidates": "maybe"}"#).is_err());
        assert!(SimSpec::from_json(r#"{"candidates": 0}"#).is_err());
        assert!(SimSpec::from_json(r#"{"head_index": "magic"}"#).is_err());
        assert!(SimSpec::from_json(r#"{"q_rows": "huge"}"#).is_err());
        assert!(SimSpec::from_json(r#"{"n": -5}"#).is_err());
        assert!(SimSpec::from_json("[]").is_err());
        assert!(SimSpec::from_json("not json").is_err());
    }

    #[test]
    fn validate_matches_flag_rules() {
        let mut spec = SimSpec {
            n: 10,
            k: 50,
            ..SimSpec::default()
        };
        assert!(spec.validate().unwrap_err().contains("--k"));
        spec.k = 5;
        spec.rounds = 0;
        assert!(spec.validate().unwrap_err().contains("--rounds"));
        spec.rounds = 1;
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn inline_faults_round_trip() {
        use qlec_net::FaultEvent;
        let plan = FaultPlan::named(
            "spec-inline",
            vec![
                FaultEvent::NodeCrash { round: 2, node: 7 },
                FaultEvent::BsOutage {
                    from_round: 1,
                    to_round: 3,
                },
            ],
        );
        let spec = SimSpec {
            faults: Some(plan),
            ..SimSpec::default()
        };
        let json = spec.to_json();
        assert!(json.contains("\"faults\""), "{json}");
        let back = SimSpec::from_json(&json).unwrap();
        assert_eq!(spec, back, "inline plan round-trips exactly");
        // Fault-free specs keep the pre-faults JSON shape.
        assert!(!SimSpec::default().to_json().contains("faults"));
        // An explicit null is the same as absent.
        assert_eq!(
            SimSpec::from_json(r#"{"faults": null}"#).unwrap().faults,
            None
        );
        // A malformed plan is rejected, not defaulted away.
        assert!(SimSpec::from_json(r#"{"faults": 3}"#).is_err());
    }

    #[test]
    fn invalid_inline_faults_fail_validate() {
        use qlec_net::FaultEvent;
        let spec = SimSpec {
            faults: Some(FaultPlan::named(
                "bad",
                vec![FaultEvent::BsOutage {
                    from_round: 5,
                    to_round: 1,
                }],
            )),
            ..SimSpec::default()
        };
        let err = spec.validate().unwrap_err();
        assert!(err.contains("faults"), "{err}");
    }

    #[test]
    fn threads_and_candidates_spellings() {
        let spec = SimSpec::from_json(r#"{"threads": "auto", "candidates": "full"}"#).unwrap();
        assert_eq!(spec.threads, 0);
        assert_eq!(spec.candidates, CandidatePolicy::Full);
        let spec = SimSpec::from_json(r#"{"threads": 4, "candidates": 3}"#).unwrap();
        assert_eq!(spec.threads, 4);
        assert_eq!(spec.candidates, CandidatePolicy::Fixed(3));
    }
}
