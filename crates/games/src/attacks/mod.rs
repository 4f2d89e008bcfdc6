//! The paper's attacks, as runnable adversaries.
//!
//! | Module | Paper artifact | Experiment |
//! |--------|----------------|------------|
//! | [`salary`] | §1 tables 1 & 2 vs. bucketization (and Damiani analog) | E1 |
//! | [`hospital`] | §2 passive inference of hospital fatality ratios | E2 |
//! | [`active`] | §2 "John" oracle attack + Theorem 2.1, generic over any PH | E3 |
//! | [`passive`] | Theorem 2.1's passive clause (result sizes alone) | E3 |
//! | [`frequency`] | §1 "which tuples have similar values" remark | A1 |
//! | [`posting`] | at-rest posting-length analysis of the opt-in index | A2 |
//! | [`attribute`] | query-attribute recovery: addressed vs. all-words scans | A3 |
//! | [`guessing`] | harness calibration (blind adversary) | all |

pub mod active;
pub mod attribute;
pub mod frequency;
pub mod guessing;
pub mod hospital;
pub mod passive;
pub mod posting;
pub mod salary;
