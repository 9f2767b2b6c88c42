//! The repository benchmark's measuring and checking code; `main.rs` runs
//! it, `examples/repro.rs` reuses it to reproduce the problems that keep
//! the TCP host and f + 1-quorum clusters out of the timed workloads.

pub mod chan;
pub mod layers;
pub mod replay;
pub mod report;
pub mod sim;
pub mod stats;
