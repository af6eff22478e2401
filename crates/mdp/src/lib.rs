//! Tabular MDP / Q-learning machinery for the QLEC reproduction.
//!
//! §3.3 of the paper frames the cluster-head choice of a non-head node as a
//! finite Markov Decision Process and solves it with a *model-based*
//! Q-update (Eq. 15 / Algorithm 4): the agent computes the expectation over
//! next states analytically from its estimated link probabilities, instead
//! of sampling a single transition:
//!
//! ```text
//! Q*(Sₜ, Aₜ) = Rₜ + γ · Σ_{Sₜ₊₁} P^{Aₜ}_{Sₜ Sₜ₊₁} · max_a Q*(Sₜ₊₁, a)
//! ```
//!
//! The protocol itself never materializes a Q-row: `qlec-core`'s router
//! keeps one `V*` per node and computes `Q*(b_i, a_j)` per packet from
//! that equation. This crate keeps the machinery generic so it is
//! testable against small reference problems independent of the
//! sensor-network semantics:
//!
//! * [`mdp::FiniteMdp`] — an explicit finite MDP (transition triples),
//! * [`qtable::QTable`] — a dense `states × actions` action-value table
//!   for the solvers below,
//! * [`solver`] — value iteration and expected (model-based) Q-updates,
//! * [`qlearning`] — classic sample-based Q-learning for comparison,
//! * [`double_q`] — Double Q-learning (overestimation-bias control),
//! * [`sarsa`] — the on-policy TD sibling (§3.3 stresses Q-learning is
//!   off-policy; SARSA is the contrast),
//! * [`policy_iteration`] — a second exact solver cross-validating value
//!   iteration,
//! * [`policy`] — greedy / ε-greedy / softmax action selection,
//! * [`convergence`] — update counting and Δ-tracking; `X`, the number of
//!   updates to convergence, is the quantity in the paper's `O(kX)` running
//!   time (Lemma 3 / Theorem 3).

pub mod convergence;
pub mod double_q;
pub mod mdp;
pub mod policy;
pub mod policy_iteration;
pub mod qlearning;
pub mod qtable;
pub mod sarsa;
pub mod solver;

pub use convergence::{ConvergenceTracker, UpdateCounter};
pub use mdp::{FiniteMdp, Transition};
pub use qtable::{MdpError, QTable};
