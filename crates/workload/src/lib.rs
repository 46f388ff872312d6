//! # wdm-workload — multicast traffic generation
//!
//! Workload generators for exercising WDM multicast switches:
//!
//! * [`AssignmentGen`] — seeded random multicast assignments (full or
//!   partial) under any model, and random *legal next requests* against a
//!   live assignment (the building block of churn experiments);
//! * [`trace`] — connect/disconnect event traces: generation, serde
//!   round-tripping, replay;
//! * [`adversarial`] — generators that deliberately pressure a three-stage
//!   middle stage (same-input-module sources, maximum module spread,
//!   wavelength-homogeneous traffic);
//! * [`hotspot`] — skewed traffic where one module draws a configurable
//!   fraction of destination picks (the popular-server regime the
//!   graph-topology blocking curves sweep);
//! * [`app_mix`] — the application mixes the paper's introduction
//!   motivates: video conferencing, video-on-demand, and unicast-heavy
//!   e-commerce traffic;
//! * [`chaos`] — timed component failures and repairs (fault traffic for
//!   the degraded-regime experiments);
//! * [`partition`] — closing a trace and sharding it by source port into
//!   per-client lanes for multi-connection network replay.
//!
//! Everything is deterministic given a seed (`StdRng`), so experiments are
//! reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversarial;
pub mod app_mix;
pub mod chaos;
pub mod dynamic;
mod generators;
pub mod hotspot;
pub mod partition;
pub mod trace;

pub use chaos::{ChaosSchedule, FaultAction, TimedFault};
pub use dynamic::{DynamicTraffic, TimedEvent};
pub use generators::AssignmentGen;
pub use hotspot::HotspotGen;
pub use partition::{close_trace, partition_by_source};
pub use trace::{RequestTrace, TraceEvent};
