//! A steady end-to-end benchmark of the routing-table library: set-up,
//! closed-loop routing, simulation, verification and repair on seeded
//! workloads, with the benchmark's own correctness checks and per-layer
//! counts from spans recorded around each call into the library.
//!
//! See `README.md` in this directory for the workloads and metrics.

pub mod check;
pub mod pipeline;
pub mod trace;
