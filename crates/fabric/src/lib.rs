//! # wdm-fabric — photonic component-level crossbar simulator
//!
//! The paper's cost analysis (§2.3) is stated in terms of physical
//! components: SOA gates ("crosspoints"), light splitters, combiners,
//! wavelength mux/demux, and wavelength converters. This crate builds the
//! crossbar-based nonblocking designs of Figs. 4–7 as explicit *netlists*
//! of those components, routes multicast assignments through them by
//! turning gates on and programming converters, and propagates light
//! signals through the device graph to verify delivery.
//!
//! That gives the reproduction two things a formula alone cannot:
//!
//! 1. **Census validation** — counting the SOA gates and converters of the
//!    constructed netlist must reproduce the Table 1 columns
//!    (`kN²`/`k²N²` crosspoints; `0`/`Nk` converters);
//! 2. **Behavioural validation** — every multicast assignment legal under
//!    a model must route with no combiner conflicts and exact delivery
//!    (the crossbars are nonblocking), which we check exhaustively for
//!    tiny networks and randomly for larger ones.
//!
//! ```
//! use wdm_core::{NetworkConfig, MulticastModel, MulticastConnection, Endpoint,
//!                MulticastAssignment};
//! use wdm_fabric::WdmCrossbar;
//!
//! let net = NetworkConfig::new(3, 2);
//! let mut xbar = WdmCrossbar::build(net, MulticastModel::Msw);
//! assert_eq!(xbar.census().gates, 18); // kN² = 2·9
//!
//! let mut asg = MulticastAssignment::new(net, MulticastModel::Msw);
//! asg.add(MulticastConnection::new(
//!     Endpoint::new(0, 1),
//!     [Endpoint::new(1, 1), Endpoint::new(2, 1)],
//! ).unwrap()).unwrap();
//!
//! let outcome = xbar.route(&asg).unwrap();
//! assert!(outcome.delivered_exactly(&asg));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod census;
mod component;
mod crossbar;
mod error;
mod module;
mod netlist;
pub mod path;
mod power;
pub mod propagate;
mod session;

pub use census::Census;
pub use component::{Component, ComponentKind, NodeId};
pub use crossbar::WdmCrossbar;
pub use error::{FabricError, PropagationError};
pub use module::{ModuleSpec, WdmModule};
pub use netlist::{EdgeId, Netlist};
pub use path::{trace_signal, SignalPath};
pub use power::{PowerBudget, PowerParams};
pub use propagate::{propagate, propagate_assignment, PropagationOutcome, Signal};
pub use session::CrossbarSession;
