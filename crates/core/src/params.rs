//! QLEC parameters (Table 2 of the paper, plus the operational knobs the
//! paper leaves implicit).

use serde::{Deserialize, Serialize};

/// How many cluster heads each `Send-Data` decision evaluates.
///
/// QLEC's per-packet Q comparison (Eq. 19/20) scans the round's head
/// set; at 10k-node scale with Theorem 1's `k_opt` in the dozens that
/// scan dominates the round. The policy resolves, per round, to a
/// candidate budget `c`: when the head set is larger than `c`, each
/// packet only evaluates its `c` nearest *alive* heads (k-d tree
/// query); otherwise the full paper-exact scan runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CandidatePolicy {
    /// Derive the budget from Theorem 1:
    /// [`crate::kopt::auto_candidate_budget`] counts the heads expected
    /// within twice the Eq. 5 coverage radius `d_c` (eight, by the
    /// volume-tiling argument — independent of the deployment side) plus
    /// a Poisson tail margin that grows as `√ln k`. For `k ≤ 8` the
    /// budget is `k`, i.e. the full scan — bit-identical to the paper
    /// path. The default.
    #[default]
    Auto,
    /// Always scan every head — byte-for-byte the paper's behaviour at
    /// any scale.
    Full,
    /// A fixed budget, regardless of `k` (must be positive). `Fixed(c)`
    /// with `c ≥ k` is again the full scan.
    Fixed(usize),
}

impl CandidatePolicy {
    /// Resolve to a per-packet candidate budget for a round planned with
    /// `k` clusters; `None` means scan every head.
    pub fn budget(&self, k: usize) -> Option<usize> {
        match self {
            CandidatePolicy::Auto => Some(crate::kopt::auto_candidate_budget(k)),
            CandidatePolicy::Full => None,
            CandidatePolicy::Fixed(c) => Some(*c),
        }
    }

    /// Parse the CLI spelling: `auto`, `full`, or a positive integer.
    pub fn parse(text: &str) -> Result<CandidatePolicy, String> {
        match text {
            "auto" => Ok(CandidatePolicy::Auto),
            "full" => Ok(CandidatePolicy::Full),
            _ => match text.parse::<usize>() {
                Ok(c) if c > 0 => Ok(CandidatePolicy::Fixed(c)),
                _ => Err(format!(
                    "expected auto, full or a positive integer, got `{text}`"
                )),
            },
        }
    }
}

/// How the protocol maintains its per-round spatial indexes (the node
/// grid backing Algorithm 3 and the Send-Data candidate kd-index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HeadIndexMode {
    /// Rebuild both structures from scratch every round — `O(N + k log k)`
    /// of index work per round regardless of how little changed. The
    /// baseline the scale bench compares against.
    Rebuild,
    /// Maintain them incrementally: the grid absorbs the round's death
    /// diff, the head kd-index syncs against the new roster, and both
    /// fall back to a full rebuild past their churn thresholds. Produces
    /// byte-identical event streams and reports (queries are ordered by
    /// `(distance, id)`, independent of tree shape). The default.
    #[default]
    Incremental,
}

impl HeadIndexMode {
    /// Parse the CLI spelling: `rebuild` or `incremental`.
    pub fn parse(text: &str) -> Result<HeadIndexMode, String> {
        match text {
            "rebuild" => Ok(HeadIndexMode::Rebuild),
            "incremental" => Ok(HeadIndexMode::Incremental),
            _ => Err(format!("expected rebuild or incremental, got `{text}`")),
        }
    }

    /// Stable lowercase label (used in bench artifacts).
    pub fn label(&self) -> &'static str {
        match self {
            HeadIndexMode::Rebuild => "rebuild",
            HeadIndexMode::Incremental => "incremental",
        }
    }
}

impl Serialize for HeadIndexMode {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.label().to_string())
    }
}

impl Deserialize for HeadIndexMode {
    /// Accepts the [`label`](HeadIndexMode::label) spellings; `Null`
    /// (i.e. the field absent from a pre-existing serialized config)
    /// deserializes to the default, [`HeadIndexMode::Incremental`].
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Null => Ok(HeadIndexMode::default()),
            serde::Value::Str(s) => HeadIndexMode::parse(s).map_err(serde::Error::custom),
            other => Err(serde::Error::expected("head index mode string", other)),
        }
    }
}

/// Accepted spellings of the retired decision-Q row-store layout
/// (`--q-rows`, the `q_rows` field of specs and serialized params).
///
/// The router keeps one `V*` per node and computes `Q*(b_i, a_j)` per
/// packet (§4.2), so no Q-row is ever materialized and neither value
/// selects anything: a run is byte-identical under both. The type stays
/// only so existing specs, golden ledgers and bench artifacts (which
/// serialize `"q_rows": "sparse"`) keep loading.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QRowsMode {
    /// Accepted and inert.
    Dense,
    /// Accepted and inert. The default and the serialized value.
    #[default]
    Sparse,
}

impl QRowsMode {
    /// Parse the CLI spelling: `dense` or `sparse`.
    pub fn parse(text: &str) -> Result<QRowsMode, String> {
        match text {
            "dense" => Ok(QRowsMode::Dense),
            "sparse" => Ok(QRowsMode::Sparse),
            _ => Err(format!("expected dense or sparse, got `{text}`")),
        }
    }

    /// Stable lowercase label (used in bench artifacts).
    pub fn label(&self) -> &'static str {
        match self {
            QRowsMode::Dense => "dense",
            QRowsMode::Sparse => "sparse",
        }
    }
}

impl Serialize for QRowsMode {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.label().to_string())
    }
}

impl Deserialize for QRowsMode {
    /// Accepts the [`label`](QRowsMode::label) spellings; `Null` (i.e.
    /// the field absent from a pre-existing serialized config)
    /// deserializes to the default, [`QRowsMode::Sparse`].
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Null => Ok(QRowsMode::default()),
            serde::Value::Str(s) => QRowsMode::parse(s).map_err(serde::Error::custom),
            other => Err(serde::Error::expected("q-rows mode string", other)),
        }
    }
}

/// All tunables of the QLEC protocol.
///
/// The reward weights and discount follow Table 2. Two scaling decisions
/// the paper does not spell out are made explicit here (and exercised by
/// the ablation benches):
///
/// * residual energies `x(·)` enter the reward *normalized by the node's
///   initial energy* (`x ∈ [0, 1]`) so the reward scale is invariant to
///   the deployment's battery sizes (the power-plant dataset spans four
///   orders of magnitude of capacity);
/// * the transmission cost `y(·,·)` of Eq. 18 enters *normalized by the
///   transmission cost at a reference distance* (default: the deployment
///   side length `M`), again making the α/β weights scale-free.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QlecParams {
    /// Discount rate γ (Table 2: 0.95).
    pub gamma: f64,
    /// Weight α₁ on the residual-energy sum in Eq. 17/19 (Table 2: 0.05).
    pub alpha1: f64,
    /// Weight α₂ on the transmission cost in Eq. 17/19 (Table 2: 1.05).
    pub alpha2: f64,
    /// Weight β₁ on the sender's residual energy in Eq. 20 (Table 2: 0.05).
    pub beta1: f64,
    /// Weight β₂ on the transmission cost in Eq. 20 (Table 2: 1.05).
    pub beta2: f64,
    /// The constant transmission punishment `g` of Eq. 17–20 ("a constant
    /// punishment when a node tries to send a packet").
    pub g: f64,
    /// The direct-to-BS penalty `l` of Eq. 19 ("set to be an arbitrarily
    /// large number") — must dominate the rest of the reward scale.
    pub l: f64,
    /// Normalized residual energy attributed to the base station in
    /// Eq. 19's `x(h_BS)` (mains-powered: 1.0).
    pub x_bs: f64,
    /// EWMA weight for the ACK-ratio link-probability estimator (§4.2 /
    /// \[2\]: "the ratio between the successfully transmitted packets and
    /// all the packets sent … recently" — the EWMA is the standard
    /// "recently" operator).
    pub link_ewma_weight: f64,
    /// Prior link probability before any ACK evidence (optimistic start
    /// so unexplored heads are tried).
    pub link_prior: f64,
    /// Total planned rounds `R` (drives the Eq. 2 average-energy estimate
    /// and the Eq. 4 energy-threshold decay).
    pub total_rounds: u32,
    /// Control-message size for the Algorithm 3 HELLO broadcast, bits.
    pub hello_bits: u64,
    /// Whether HELLO broadcasts draw real energy (head transmit at range
    /// `d_c`, receivers pay reception).
    pub charge_control_traffic: bool,
    /// Explicit cluster count; `None` computes Theorem 1's `k_opt` from
    /// the deployment at the first round.
    pub k_override: Option<usize>,
    /// `Send-Data` candidate pruning policy (see [`CandidatePolicy`]).
    /// The default [`CandidatePolicy::Auto`] derives the per-round budget
    /// from Theorem 1 (full scan for `k ≤ 8`, `8 + O(√ln k)` beyond),
    /// which keeps runs with `k ≤ 8` byte-identical to the paper-exact
    /// full scan while making 100k-node deployments practical;
    /// [`CandidatePolicy::Full`] forces the full scan at any scale.
    pub candidates: CandidatePolicy,
    /// Spatial-index maintenance strategy (see [`HeadIndexMode`]). Both
    /// modes produce identical results; `Rebuild` exists as the
    /// benchmark baseline. Deserialization of pre-existing configs
    /// (field absent) defaults to [`HeadIndexMode::Incremental`].
    pub head_index: HeadIndexMode,
    /// Accepted, inert spelling (see [`QRowsMode`]): no value changes a
    /// run. Deserialization of configs without the field defaults to
    /// [`QRowsMode::Sparse`].
    pub q_rows: QRowsMode,
}

impl QlecParams {
    /// Table 2 / §5.1 values with `R = 20`.
    pub fn paper() -> Self {
        QlecParams {
            gamma: 0.95,
            alpha1: 0.05,
            alpha2: 1.05,
            beta1: 0.05,
            beta2: 1.05,
            g: 0.1,
            l: 10.0,
            x_bs: 1.0,
            link_ewma_weight: 0.15,
            link_prior: 1.0,
            total_rounds: 20,
            hello_bits: 200,
            charge_control_traffic: true,
            k_override: None,
            candidates: CandidatePolicy::Auto,
            head_index: HeadIndexMode::Incremental,
            q_rows: QRowsMode::Sparse,
        }
    }

    /// Paper parameters with a fixed cluster count (the Fig. 3 runs use
    /// the §5.1 value `k_opt ≈ 5` explicitly).
    pub fn paper_with_k(k: usize) -> Self {
        QlecParams {
            k_override: Some(k),
            ..Self::paper()
        }
    }

    /// Validate ranges; returns the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..1.0).contains(&self.gamma) {
            return Err(format!("gamma must be in [0,1), got {}", self.gamma));
        }
        for (name, v) in [
            ("alpha1", self.alpha1),
            ("alpha2", self.alpha2),
            ("beta1", self.beta1),
            ("beta2", self.beta2),
            ("g", self.g),
            ("l", self.l),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("{name} must be non-negative and finite, got {v}"));
            }
        }
        if !(0.0..=1.0).contains(&self.x_bs) {
            return Err(format!("x_bs must be in [0,1], got {}", self.x_bs));
        }
        if !(0.0 < self.link_ewma_weight && self.link_ewma_weight <= 1.0) {
            return Err(format!(
                "link_ewma_weight must be in (0,1], got {}",
                self.link_ewma_weight
            ));
        }
        if !(0.0..=1.0).contains(&self.link_prior) {
            return Err(format!(
                "link_prior must be in [0,1], got {}",
                self.link_prior
            ));
        }
        if self.total_rounds == 0 {
            return Err("total_rounds must be positive".into());
        }
        if let Some(k) = self.k_override {
            if k == 0 {
                return Err("k_override must be positive".into());
            }
        }
        if self.candidates == CandidatePolicy::Fixed(0) {
            return Err("candidate budget must be positive".into());
        }
        Ok(())
    }
}

impl Default for QlecParams {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values_match_table2() {
        let p = QlecParams::paper();
        assert_eq!(p.gamma, 0.95);
        assert_eq!(p.alpha1, 0.05);
        assert_eq!(p.alpha2, 1.05);
        assert_eq!(p.beta1, 0.05);
        assert_eq!(p.beta2, 1.05);
        assert_eq!(p.total_rounds, 20);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn with_k_sets_override() {
        let p = QlecParams::paper_with_k(5);
        assert_eq!(p.k_override, Some(5));
        assert!(p.validate().is_ok());
    }

    #[test]
    fn candidate_policy_resolves_and_parses() {
        // Auto is inert (budget ≥ any possible head count) up to k = 8
        // — the bit-identical lock.
        for k in 1..=8 {
            assert_eq!(CandidatePolicy::Auto.budget(k), Some(k));
        }
        // Past that Theorem 1 adds the Poisson tail margin.
        assert_eq!(
            CandidatePolicy::Auto.budget(40),
            Some(crate::kopt::auto_candidate_budget(40))
        );
        assert_eq!(CandidatePolicy::Auto.budget(40), Some(16));
        assert_eq!(CandidatePolicy::Full.budget(40), None);
        assert_eq!(CandidatePolicy::Fixed(3).budget(40), Some(3));
        assert_eq!(QlecParams::paper().candidates, CandidatePolicy::Auto);

        assert_eq!(
            CandidatePolicy::parse("auto").unwrap(),
            CandidatePolicy::Auto
        );
        assert_eq!(
            CandidatePolicy::parse("full").unwrap(),
            CandidatePolicy::Full
        );
        assert_eq!(
            CandidatePolicy::parse("12").unwrap(),
            CandidatePolicy::Fixed(12)
        );
        for bad in ["", "0", "-3", "Auto", "8.5", "legacyauto", "legacy-auto"] {
            assert!(
                CandidatePolicy::parse(bad).is_err(),
                "`{bad}` should not parse"
            );
        }
    }

    #[test]
    fn head_index_mode_parses_and_defaults() {
        assert_eq!(
            HeadIndexMode::parse("rebuild").unwrap(),
            HeadIndexMode::Rebuild
        );
        assert_eq!(
            HeadIndexMode::parse("incremental").unwrap(),
            HeadIndexMode::Incremental
        );
        assert!(HeadIndexMode::parse("Rebuild").is_err());
        assert!(HeadIndexMode::parse("").is_err());
        assert_eq!(HeadIndexMode::default(), HeadIndexMode::Incremental);
        assert_eq!(HeadIndexMode::Rebuild.label(), "rebuild");
        assert_eq!(QlecParams::paper().head_index, HeadIndexMode::Incremental);
        // Pre-existing serialized configs (no head_index field) still load.
        let mut v = serde_json::to_value(&QlecParams::paper()).unwrap();
        if let serde::Value::Object(fields) = &mut v {
            fields.retain(|(k, _)| k != "head_index");
        } else {
            panic!("params must serialize to an object");
        }
        let p: QlecParams = serde_json::from_value(v).unwrap();
        assert_eq!(p.head_index, HeadIndexMode::Incremental);
        // And the explicit spellings round-trip.
        for mode in [HeadIndexMode::Rebuild, HeadIndexMode::Incremental] {
            let v = serde_json::to_value(&mode).unwrap();
            assert_eq!(serde_json::from_value::<HeadIndexMode>(v).unwrap(), mode);
        }
    }

    #[test]
    fn q_rows_mode_parses_and_defaults() {
        assert_eq!(QRowsMode::parse("dense").unwrap(), QRowsMode::Dense);
        assert_eq!(QRowsMode::parse("sparse").unwrap(), QRowsMode::Sparse);
        assert!(QRowsMode::parse("Dense").is_err());
        assert!(QRowsMode::parse("").is_err());
        assert_eq!(QRowsMode::default(), QRowsMode::Sparse);
        assert_eq!(QRowsMode::Dense.label(), "dense");
        assert_eq!(QlecParams::paper().q_rows, QRowsMode::Sparse);
        // Pre-existing serialized configs (no q_rows field) still load.
        let mut v = serde_json::to_value(&QlecParams::paper()).unwrap();
        if let serde::Value::Object(fields) = &mut v {
            fields.retain(|(k, _)| k != "q_rows");
        } else {
            panic!("params must serialize to an object");
        }
        let p: QlecParams = serde_json::from_value(v).unwrap();
        assert_eq!(p.q_rows, QRowsMode::Sparse);
        // And the explicit spellings round-trip.
        for mode in [QRowsMode::Dense, QRowsMode::Sparse] {
            let v = serde_json::to_value(&mode).unwrap();
            assert_eq!(serde_json::from_value::<QRowsMode>(v).unwrap(), mode);
        }
    }

    #[test]
    fn validation_catches_bad_values() {
        for bad in [
            QlecParams {
                gamma: 1.0,
                ..QlecParams::paper()
            },
            QlecParams {
                alpha2: -1.0,
                ..QlecParams::paper()
            },
            QlecParams {
                link_ewma_weight: 0.0,
                ..QlecParams::paper()
            },
            QlecParams {
                link_prior: 1.5,
                ..QlecParams::paper()
            },
            QlecParams {
                total_rounds: 0,
                ..QlecParams::paper()
            },
            QlecParams {
                k_override: Some(0),
                ..QlecParams::paper()
            },
            QlecParams {
                x_bs: 2.0,
                ..QlecParams::paper()
            },
            QlecParams {
                candidates: CandidatePolicy::Fixed(0),
                ..QlecParams::paper()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should fail validation");
        }
    }
}
