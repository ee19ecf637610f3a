//! Support library for the cross-crate integration tests.
//!
//! The [`crash`] module is the deterministic fault-injection harness
//! behind `tests/{crash,backup}_matrix.rs` and the differential property
//! test in `tests/properties.rs`: a seeded workload over a real
//! [`p2kvs::P2Kvs`] store on a [`p2kvs_storage::FaultyEnv`], an
//! acked-writes oracle, and one run/recover path that power-fails the
//! store at chosen sync points and validates recovery.

pub mod crash;
