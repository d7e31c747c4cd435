//! End-to-end benchmark of the communication-optimal parallel STTSV.
//!
//! Three single-process, closed-loop, one-caller workloads run through the
//! public drivers with tracing off and report the end-to-end metrics
//! (`--trace 0`). A separate traced run (`--trace 1`) composes each call
//! from the same public pieces the drivers use, records spans around every
//! layer, and reports the per-layer metrics. See `README.md`.

pub mod api;
pub mod host;
pub mod report;
pub mod stats;
pub mod trace;
pub mod traced;
pub mod workloads;
