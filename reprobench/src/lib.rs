//! End-to-end and per-layer benchmark of the PATRONoC reproduction's
//! figure workloads; `README.md` beside this crate documents the
//! workloads, the metrics and how each layer metric moves an end-to-end
//! one.

#![forbid(unsafe_code)]

pub mod counting;
pub mod run;
pub mod traced;
pub mod workloads;
