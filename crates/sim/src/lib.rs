//! # wdm-sim — deterministic simulation & conformance harness
//!
//! FoundationDB-style simulation testing for the concurrent WDM
//! admission stack: the sharded engine, its fault path, and the
//! wire-protocol serving path all run as *cooperatively scheduled
//! tasks* in one thread over a virtual clock, with every
//! nondeterministic choice drawn from a single `u64` seed. A failure is
//! therefore a seed, a seed is a schedule, and a schedule replays bit
//! for bit.
//!
//! The layers:
//!
//! * [`schedule`] — the seeded [`ChoiceStream`]: decision log,
//!   schedule fingerprinting, forced-prefix replay.
//! * `engine` — the one simulated engine: production's
//!   [`wdm_runtime::EngineCore`] and one [`wdm_runtime::ShardCore`] per
//!   shard on a [`wdm_runtime::VirtualClock`], whose submit splits a
//!   batch by shard and applies each slice under one backend lock, as
//!   the threaded engine does. Both drivers below run on it.
//! * [`executor`] — [`simulate`]: a whole engine lifetime (submits,
//!   parked retries, fault injection, drain) as one deterministic loop
//!   whose steps are the engine's atomic units: one submitter's shard
//!   slice, one shard's retry, one fault.
//! * [`oracle`] — the serial-oracle conformance check (every
//!   interleaving of a legal closed trace must match the single-shard
//!   serial outcome, index by index) and the schedule-independent
//!   conservation invariants used for faulted runs.
//! * [`diff`] — differential backend runner: identical traces through
//!   the crossbar and a three-stage network at the Theorem 1/2 bound
//!   must agree on every admit/block verdict.
//! * [`netsim`] — [`NetSim`], the serving core's simulated driver:
//!   scripted clients over in-memory lanes in front of the same engine,
//!   each hop a seeded choice.
//! * [`shrink`] — delta-debugging minimization at connect/disconnect
//!   unit granularity.
//! * [`scenario`] — the [`Scenario`] builder: the one experiment
//!   description (geometry, backend kind, construction, fault plan,
//!   workload, repack/concurrency), its validator, its bound table and
//!   the only constructor of a live backend from a [`BackendKind`].
//! * [`harness`] — seed sweeps over a [`Scenario`] and replayable
//!   [`FailingSeed`] artifacts (`wdmcast sim --seed N`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
mod engine;
pub mod executor;
pub mod harness;
pub mod netsim;
pub mod oracle;
pub mod scenario;
pub mod schedule;
pub mod shrink;

pub use diff::{diff_runs, DiffEntry};
pub use executor::{simulate, Scheduler, SimParams, SimRun};
pub use harness::{BackendKind, FailingSeed, GraphSpec, SeedVerdict, SweepReport, WorkloadSpec};
pub use netsim::{NetSim, Peer, Step};
pub use oracle::{conformance_violations, invariant_violations, Violation};
pub use scenario::{parse_backend_arg, Scenario};
pub use schedule::ChoiceStream;
pub use shrink::{ddmin, shrink_trace, trace_units};
