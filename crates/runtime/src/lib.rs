//! Concurrent switch-controller runtime for WDM multicast networks.
//!
//! This crate turns the static routing structures of `wdm-fabric` and
//! `wdm-multistage` into a live controller: a sharded admission engine
//! that drives a switch backend with a dynamic stream of multicast
//! connect/disconnect requests, under concurrency, while metering
//! everything the paper cares about — above all the **block count**,
//! which Theorems 1 and 2 of Yang–Wang–Qiao prove must be *exactly zero*
//! when the middle-stage size `m` meets the bound.
//!
//! # Architecture
//!
//! ```text
//!   DynamicTraffic ──▶ AdmissionEngine::submit     (caller's thread)
//!                          │  shard by input module of source port
//!            ┌─────────────┼─────────────┐
//!        shard 0       shard 1   …   shard W-1     (locks; one retry
//!            │             │             │          thread each)
//!            └──── retry/backoff/deadline ─────┐
//!                          ▼                   │
//!                RwLock<B: Backend>     RuntimeMetrics (atomics)
//!               (crossbar ∨ 3-stage)           │
//!         write side: exclusive mutation       │
//!         read side:  ConcurrentAdmission      │
//!                     (lock-free CAS commits)  │
//!                          ▼                   ▼
//!                  drain() ──▶ RuntimeReport { summary, backend, … }
//! ```
//!
//! * [`Backend`] abstracts the two switch implementations behind one
//!   admit/tear-down interface and classifies refusals into retryable
//!   [`wdm_core::Reject::Busy`] versus hard [`wdm_core::Reject::Blocked`] versus
//!   repair-gated [`wdm_core::Reject::ComponentDown`].
//! * [`ConcurrentAdmission`] is the fine-grained concurrency capability:
//!   a backend that admits and tears down through `&self` (e.g.
//!   `wdm_multistage::ConcurrentThreeStage`, CAS-committed occupancy
//!   words with per-input-module lock striping). Shards then submit
//!   under the **read** side of the backend lock — in parallel — while
//!   fault injection, repack, and drain take the write side as a
//!   stop-the-world epoch.
//! * [`AdmissionEngine`] owns the shards. A submit admits on the
//!   calling thread under its shard's lock; each shard's one thread
//!   only retries parked connects. Sharding by input module keeps each
//!   source's connect strictly before its disconnect; cross-shard
//!   reordering can only manifest as transient destination conflicts,
//!   absorbed by bounded exponential backoff.
//! * [`RuntimeMetrics`] / [`MetricsSnapshot`] provide lock-free counters,
//!   log-bucketed latency and holding-time histograms, per-wavelength and
//!   per-middle-switch gauges, and a serializable snapshot stream.
//! * [`FaultHandle`] fails and repairs components mid-run ([`Fault`]
//!   names them; a `wdm-net` server takes them as fault frames). Injection tears down the connections that
//!   traversed the dead component and re-admits them on surviving
//!   hardware in the same critical section — the *self-healing* the Clos
//!   sparing margin `m ≥ bound + f` provisions for.
//!
//! # Example
//!
//! ```
//! use std::time::Duration;
//! use wdm_core::{MulticastModel, NetworkConfig};
//! use wdm_fabric::CrossbarSession;
//! use wdm_runtime::EngineBuilder;
//! use wdm_workload::DynamicTraffic;
//!
//! let net = NetworkConfig::new(8, 2);
//! let mut traffic = DynamicTraffic::new(net, MulticastModel::Msw, 4.0, 1.0, 2, 7);
//! let backend = CrossbarSession::new(net, MulticastModel::Msw);
//! let engine = EngineBuilder::new()
//!     .shards(2)
//!     // The trace ends with a few connections still holding their
//!     // endpoints, so don't let rivals wait long for them.
//!     .deadline(Duration::from_millis(200))
//!     .start(backend);
//! engine.run_events(traffic.generate(5.0));
//! let report = engine.drain();
//! assert!(report.is_clean());
//! assert_eq!(report.summary.blocked, 0); // crossbar is nonblocking
//! ```

mod backend;
mod clock;
mod engine;
mod metrics;

pub use backend::{Backend, ConcurrentAdmission, RepackStats, RepackSupport};
pub use clock::{Clock, SystemClock, VirtualClock};
pub use engine::{
    AdmissionEngine, EngineBuilder, EngineCore, FaultHandle, HealOutcome, OutcomeCallback,
    OverloadControl, RepackPolicy, RequestOutcome, RuntimeConfig, RuntimeReport, ShardCore,
    SubmitOutcome,
};
pub use metrics::{LogHistogram, MetricsSnapshot, RuntimeMetrics};
pub use wdm_core::{Fault, FaultDomain, FaultSet};
pub use wdm_core::{Reject, RejectClass};
