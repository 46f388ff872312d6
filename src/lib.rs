//! # wdm-multicast — facade crate
//!
//! Re-exports the full workspace implementing *Nonblocking WDM Multicast
//! Switching Networks* (Yang, Wang, Qiao, ICPP 2000): multicast models,
//! exact capacity analysis, photonic crossbar fabrics, and nonblocking
//! multistage constructions.
//!
//! See the `README.md` quickstart and the `examples/` directory.

pub use wdm_analysis as analysis;
pub use wdm_bignum as bignum;
pub use wdm_combinatorics as combinatorics;
pub use wdm_core as core;
pub use wdm_fabric as fabric;
pub use wdm_graph as graph;
pub use wdm_multistage as multistage;
pub use wdm_net as net;
pub use wdm_runtime as runtime;
pub use wdm_sim as sim;
pub use wdm_workload as workload;
