//! One module per group of the paper's figures and tables; each figure is
//! a `fn() -> Report`, an entry of [`crate::FIGURES`].
//!
//! Conventions: a figure's report carries its parameters (`config`) and
//! one row per measurement, every number a named field; where the paper
//! has several tables, a `table` label tells the rows apart. Every row
//! counts the failed calls of the drives it measured. Absolute numbers
//! differ from the paper (simulated device, different CPU), but the shape
//! — orderings, scaling trends, crossover points — is the claim being
//! reproduced (see EXPERIMENTS.md). Every run goes through
//! [`crate::workload::drive`].

pub mod analysis;
pub mod baselines;
pub mod evaluation;
pub mod macrobench;
pub mod portability;
