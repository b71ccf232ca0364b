//! # cxlg-model — the paper's closed-form analytical model (§3)
//!
//! * Equation 1: `t = D / T` ([`runtime`]);
//! * Equation 2: `T = min(S·d, Nmax·d/L, W)` ([`throughput`]);
//! * Equation 3: Little's Law `N·d = T·L`, as Equation 2's middle term;
//! * Equation 5: slope `s = min(S, Nmax/L)` ([`slope`]);
//! * Equation 6: the external-memory requirements for matching host-DRAM
//!   EMOGI performance ([`requirements`](mod@requirements));
//! * Figure 4: the `D(d)`, `T(d)`, `t(d)` curves ([`fig4`]).
//!
//! Everything here is validated against the discrete-event simulation in
//! the integration tests (`tests/model_vs_sim.rs`): the same limits that
//! are *formulas* here *emerge* there.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod eqs;
pub mod fig4;
pub mod requirements;

pub use eqs::{runtime, slope, throughput, ThroughputParams};
pub use fig4::{fig4_series, Fig4Params, Fig4Point};
pub use requirements::{requirements, Requirements};
