//! Offline shim for the `crossbeam` crate.
//!
//! Provides the one piece this workspace uses: [`channel`] — clonable
//! MPMC channels (`unbounded` / `bounded`) built from a mutex-guarded
//! ring with condvars. Throughput is far below the real lock-free
//! crossbeam, but semantics (multi-consumer, disconnect-on-last-drop,
//! timeouts) match.

#![warn(missing_docs)]

pub mod channel;
