//! QLEC — the paper's primary contribution.
//!
//! The algorithm (Algorithm 1) runs in two phases per round:
//!
//! 1. **Cluster Head Selection** ([`deec_improved`]) — DEEC's
//!    residual-energy-weighted randomized rotation, improved with the
//!    round-decaying energy threshold of Eq. 4 and the HELLO-based
//!    redundancy reduction of Algorithm 3, with the target head count set
//!    to the 3-D optimal cluster number of Theorem 1 ([`kopt`]).
//! 2. **Data Transmission** ([`qrouting`]) — each non-head node picks the
//!    cluster head to forward to by the model-based Q-update of
//!    Algorithm 4, with the reward functions of Eq. 16–20 built from
//!    residual energies, the first-order-radio transmission cost, and
//!    ACK-estimated link probabilities.
//!
//! [`multihop`] adds an explicitly-marked *extension*: energy-optimal
//! multi-hop aggregate routing over the head graph (the direction the
//! paper's QELAR/HyDRO citations point at), decisive when the base
//! station is remote.
//!
//! [`qlec::QlecProtocol`] packages both phases as a
//! [`qlec_net::Protocol`], directly comparable against the baselines in
//! `qlec-clustering` under the same simulator. [`ablation`] exposes
//! feature-toggled variants for the design-choice benches.

pub mod ablation;
pub mod deec_improved;
mod fxhash;
pub mod kopt;
pub mod multihop;
pub mod params;
pub mod qlec;
pub mod qrouting;

pub use params::{QRowsMode, QlecParams};
pub use qlec::{QlecBuilder, QlecProtocol};
