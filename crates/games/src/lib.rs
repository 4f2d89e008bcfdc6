//! Security games and attacks — the paper's analytical machinery.
//!
//! * [`advantage`] — Monte-Carlo estimation of a distinguishing
//!   adversary's advantage, with Wilson confidence intervals and
//!   parallel trials.
//! * [`indgame`] — Definition 1.2: classical indistinguishability for
//!   byte-level encryption schemes (experiment E5).
//! * [`dbgame`] — Definition 2.1: indistinguishability for database
//!   PHs, with `q` observed (passive) or oracle-chosen (active)
//!   queries (experiments E1 and E3).
//! * [`attacks`] — the paper's concrete adversaries:
//!   [`attacks::salary`] (§1, tables 1 & 2), [`attacks::hospital`]
//!   (§2, passive inference), [`attacks::active`] (§2 "John" +
//!   Theorem 2.1, generic over every [`dbph_core::DatabasePh`]),
//!   [`attacks::passive`] (the theorem's passive clause),
//!   [`attacks::frequency`] (the "which tuples have similar values"
//!   remark), [`attacks::attribute`] (what addressed query terms
//!   reveal), and [`attacks::guessing`] (harness calibration).
//! * [`leakage`] — a transcript profiler quantifying the observables
//!   (result sizes, query repetition, access frequencies,
//!   co-occurrence) those attacks consume.
//! * [`reduction`] — the full version's security proof as runnable
//!   code: an advantage-preserving lift from Definition 2.1 `q = 0`
//!   adversaries to collection-level adversaries against the raw
//!   searchable scheme.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advantage;
pub mod attacks;
pub mod dbgame;
pub mod indgame;
pub mod leakage;
pub mod reduction;

pub use advantage::AdvantageEstimate;
pub use dbgame::{run_db_game, AdversaryMode, DbAdversary, Transcript};
pub use indgame::{run_ind_game, IndAdversary};
pub use leakage::{profile, LeakageProfile};
