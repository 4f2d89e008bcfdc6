//! Code the deployment never runs, for the suites that test it: the
//! seeded [`fault`] harness ([`FaultTransport`], [`ChaosProxy`]). Only
//! the root `dbph` package names this crate, as a dev-dependency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;

pub use fault::{ChaosPlan, ChaosProxy, FaultPlan, FaultRng, FaultTransport};
