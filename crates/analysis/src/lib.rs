//! # wdm-analysis — experiment engine
//!
//! Shared infrastructure for the table/figure generators and benchmarks:
//!
//! * [`parallel_map`] / [`parallel_sweep`] — order-preserving parallel
//!   evaluation of parameter grids on scoped threads
//!   (`std::thread::scope`);
//! * [`Summary`] — basic descriptive statistics;
//! * [`TextTable`] — aligned text tables with CSV export, used to print
//!   the paper's tables;
//! * [`Report`] — a collection of named tables written alongside
//!   `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chart;
mod report;
mod stats;
mod sweep;
mod table;

pub use chart::{sparkline, BarChart};
pub use report::Report;
pub use stats::{percentile, wilson_interval, Summary};
pub use sweep::{parallel_map, parallel_sweep};
pub use table::TextTable;
