//! # wdm-graph — graph-topology WDM multicast networks
//!
//! Every backend before this one is a single switch box: the crossbar,
//! the three-stage Clos, the AWG-routed Clos. This crate is the
//! network-level view the light-tree/light-hierarchy literature studies:
//! an arbitrary directed graph of switching *nodes* joined by WDM
//! fibers, where a multicast session occupies one wavelength on every
//! link it crosses and only some nodes own optical splitters.
//!
//! The pieces:
//!
//! * [`GraphTopology`] — compact topology specs ([`GraphTopology::Ring`],
//!   [`GraphTopology::Grid`], [`GraphTopology::Torus`]) that build into a
//!   [`Topology`]: the node/link tables plus the multicast-capable (MC)
//!   vs multicast-incapable (MI) mask. Custom graphs come from
//!   [`Topology::from_links`].
//! * [`light`] — light-structure construction: [`build_structure`] grows
//!   a light-tree (each node crossed at most once) or a light-hierarchy
//!   (nodes may be re-crossed through distinct link pairs, the
//!   cross-pair trick that rescues multicasts a pure tree cannot route
//!   past MI nodes), and [`validate_structure`] re-checks any link set
//!   against the sparse-splitting rules.
//! * [`GraphNetwork`] — the stateful backend: wavelength-major link
//!   occupancy (one packed-u64 [`wdm_core::bitset::BitRows`] row per
//!   wavelength, one bit per directed link) ANDed with a live-link mask
//!   that fault injection and repair refresh, first-fit wavelength
//!   selection behind a cut pre-check, node/link kill faults with victim
//!   eviction, and a deep [`GraphNetwork::check_consistency`] that
//!   re-derives occupancy from the live routes and the mask from the
//!   faults.
//!
//! Splitting model (documented assumptions): an MC node may replicate
//! one incoming signal onto any number of outgoing fibers; an MI node
//! forwards each incoming signal to **at most one** outgoing fiber. The
//! local drop at a destination node is a passive tap, so even an MI node
//! may *drop-and-continue*. Wavelength conversion exists only at the
//! network edge (add/drop), never in transit: one light-structure rides
//! a single wavelength end to end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod light;
mod network;
mod topology;

pub use light::{build_structure, validate_structure, Splitting};
pub use network::{GraphError, GraphNetwork, GraphRoute};
pub use topology::{GraphTopology, Topology};
