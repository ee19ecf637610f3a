//! One module per paper figure/table; each exposes `pub fn run()`.
//!
//! Conventions: every experiment prints its parameters, the paper's
//! qualitative expectation, and a table of measured rows. Absolute numbers
//! differ from the paper (simulated device, different CPU), but the shape
//! — orderings, scaling trends, crossover points — is the claim being
//! reproduced (see EXPERIMENTS.md). Every run goes through
//! [`crate::workload::drive`].

pub mod analysis;
pub mod baselines;
pub mod evaluation;
pub mod macrobench;
pub mod portability;
