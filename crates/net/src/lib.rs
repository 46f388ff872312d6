//! Wire protocol and TCP serving layer over the WDM admission engine.
//!
//! This crate turns the in-process [`wdm_runtime::AdmissionEngine`]
//! into a network service: remote controllers connect over TCP and
//! speak a compact length-prefixed binary protocol to admit and tear
//! down multicast connections on a switch whose nonblocking guarantees
//! come from Theorems 1–2 of Yang–Wang–Qiao.
//!
//! * [`protocol`] — the request/response vocabulary ([`Request`],
//!   [`Response`], [`RejectReason`]) mirroring the runtime's error
//!   taxonomy, plus the trace → wire adapter (`From<&TraceEvent> for
//!   Request`).
//! * [`codec`] — one-version framing with strict malformed-frame
//!   rejection ([`WireError`]); decoding never panics on hostile input.
//! * [`serving`] — the sans-IO serving core: per-connection protocol
//!   state, dispatch, backpressure, per-cycle batch coalescing, drain.
//! * [`reactor`] *(Linux)* — [`ReactorServer`], the core's production
//!   driver: a sharded epoll pool serving tens of thousands of
//!   connections from a fixed set of threads (`wdm-sim` drives the same
//!   core over simulated lanes).
//! * [`client`] / [`loadgen`] — a pipelining [`NetClient`] with
//!   connection reuse and timeout/retry, and [`loadgen`] *(Linux)*, the
//!   matching epoll-driven closed-loop driver.
//!
//! Linux is the only target that is built, tested or benchmarked
//! (`reactor/sys.rs` binds epoll directly); elsewhere there is no
//! socket server.
//!
//! # Example
//!
//! ```
//! # #[cfg(target_os = "linux")] {
//! use wdm_core::{Endpoint, MulticastConnection, MulticastModel, NetworkConfig};
//! use wdm_fabric::CrossbarSession;
//! use wdm_net::{NetClient, ReactorConfig, ReactorServer, Request, Response};
//! use wdm_runtime::EngineBuilder;
//!
//! let net = NetworkConfig::new(4, 2);
//! let backend = CrossbarSession::new(net, MulticastModel::Msw);
//! let engine = EngineBuilder::new().start(backend);
//! let server = ReactorServer::serve(engine, "127.0.0.1:0", ReactorConfig::default()).unwrap();
//!
//! let mut client = NetClient::connect(server.local_addr()).unwrap();
//! let conn = MulticastConnection::unicast(Endpoint::new(0, 0), Endpoint::new(1, 0));
//! assert!(client.call(&Request::Connect(conn)).unwrap().is_ok());
//! assert!(matches!(
//!     client.drain().unwrap(),
//!     Response::DrainReport { clean: true, .. }
//! ));
//! let report = server.wait();
//! assert_eq!(report.summary.blocked, 0);
//! # }
//! ```

pub mod client;
pub mod codec;
#[cfg(target_os = "linux")]
pub mod loadgen;
pub mod protocol;
#[cfg(target_os = "linux")]
pub mod reactor;
pub mod serving;

pub use client::{ClientConfig, NetClient, NetClientError};
pub use codec::{RawFrame, WireError, HEADER_LEN, MAGIC, MAX_PAYLOAD};
#[cfg(target_os = "linux")]
pub use loadgen::{LoadConfig, LoadReport};
pub use protocol::{RejectReason, Request, Response, WIRE_VERSION};
#[cfg(target_os = "linux")]
pub use reactor::{ReactorConfig, ReactorServer, ReactorSnapshot};
