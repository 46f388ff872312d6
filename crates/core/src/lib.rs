//! # wdm-core — WDM multicast domain model
//!
//! The domain model of *Nonblocking WDM Multicast Switching Networks*
//! (Yang, Wang, Qiao): an `N×N` switching network whose every input and
//! output port is a fiber carrying `k` wavelengths.
//!
//! ## Concepts (paper §2)
//!
//! * An **endpoint** is a `(port, wavelength)` pair ([`Endpoint`]).
//! * A **multicast connection** ([`MulticastConnection`]) goes from one
//!   input endpoint to a set of output endpoints, *at most one wavelength
//!   per output port*.
//! * A **multicast assignment** ([`MulticastAssignment`]) is a set of
//!   connections in which no input endpoint sources more than one
//!   connection and no output endpoint is used by more than one connection.
//! * A **multicast model** ([`MulticastModel`]) restricts the wavelengths a
//!   connection may combine:
//!   [`Msw`](MulticastModel::Msw) (same λ everywhere),
//!   [`Msdw`](MulticastModel::Msdw) (destinations share one λ),
//!   [`Maw`](MulticastModel::Maw) (unrestricted).
//! * The **multicast capacity** of a network under a model is the number of
//!   realizable assignments — computed exactly by [`capacity`] (Lemmas 1–3)
//!   and verifiable by brute force with [`enumerate`].
//!
//! ## Quick example
//!
//! ```
//! use wdm_core::{NetworkConfig, MulticastModel, capacity};
//!
//! let net = NetworkConfig::new(4, 2); // 4×4 ports, 2 wavelengths
//! let msw = capacity::full_assignments(net, MulticastModel::Msw);
//! let maw = capacity::full_assignments(net, MulticastModel::Maw);
//! assert_eq!(msw.to_string(), "65536");        // N^(Nk) = 4^8
//! assert!(maw > msw);                           // MAW is a stronger model
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assignment;
pub mod bitset;
pub mod capacity;
pub mod connection;
pub mod enumerate;
mod error;
pub mod fault;
mod ids;
mod model;
mod network;
pub mod output_map;
pub mod reject;
pub mod stats;

pub use assignment::MulticastAssignment;
pub use connection::MulticastConnection;
pub use error::{AssignmentError, ConnectionError};
pub use fault::{Fault, FaultDomain, FaultSet};
pub use ids::{Endpoint, PortId, WavelengthId};
pub use model::MulticastModel;
pub use network::NetworkConfig;
pub use output_map::{MapViolation, OutputMap};
pub use reject::{Reject, RejectClass};
