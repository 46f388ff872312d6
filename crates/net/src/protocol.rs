//! The request/response vocabulary of the wire protocol.
//!
//! A remote controller speaks four verbs to the switch — `Connect`,
//! `Disconnect`, `Snapshot`, `Drain` — plus a `Ping` health probe, and
//! an operator two more: `Inject` and `Repair` a component fault. Every
//! refusal carries a [`RejectReason`] mirroring the runtime's error
//! taxonomy: transient `Busy`, hard `Blocked` (the theorems' event),
//! repair-gated `ComponentDown`, plus the serving-layer-only `Draining`
//! and `Backpressure` refusals a remote client needs to tell apart from
//! fabric behaviour.

use wdm_core::{Endpoint, Fault, MulticastConnection, RejectClass};
use wdm_runtime::{MetricsSnapshot, RequestOutcome};
use wdm_workload::TraceEvent;

/// Current wire-format version, carried in every frame header.
///
/// Version 2 adds the [`Request::BatchConnect`] / [`Response::Batch`]
/// frames and the fault frames ([`Request::Inject`] / [`Request::Repair`]
/// and their [`Response::Healed`] / [`Response::Repaired`] replies). Negotiation is per-frame and server-driven: a server accepts
/// any version in [`MIN_WIRE_VERSION`]`..=`[`WIRE_VERSION`] and answers
/// each frame *in the version it arrived with*, so a v1 client (which
/// hard-rejects any other version byte) keeps working against a v2
/// server unchanged.
pub const WIRE_VERSION: u8 = 2;

/// Oldest wire-format version this peer still accepts.
pub const MIN_WIRE_VERSION: u8 = 1;

/// One request frame, client → server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Admit a multicast connection.
    Connect(MulticastConnection),
    /// Tear down the connection sourced at the endpoint.
    Disconnect(Endpoint),
    /// Return a live [`MetricsSnapshot`] of the engine.
    Snapshot,
    /// Gracefully drain the engine: refuse new work, finish queued
    /// events, reply with the final report.
    Drain,
    /// Health probe; the server answers [`Response::Pong`].
    Ping,
    /// Admit several multicast connections in one frame (wire v2). The
    /// server feeds the whole batch through the engine's amortized
    /// batch path and answers with one [`Response::Batch`] carrying a
    /// verdict per connection, in order.
    BatchConnect(Vec<MulticastConnection>),
    /// Fail a component and heal the connections it carried (wire v2),
    /// after every frame this connection sent earlier; the server
    /// answers [`Response::Healed`]. A fault naming a component the
    /// served fabric does not have is refused as
    /// [`RejectReason::Fatal`], and after a drain as
    /// [`RejectReason::Draining`].
    Inject(Fault),
    /// Repair a component (wire v2); answered [`Response::Repaired`],
    /// refused as [`Request::Inject`] is.
    Repair(Fault),
}

impl From<&TraceEvent> for Request {
    /// Trace → wire-request adapter: replaying a `wdm-workload` trace
    /// over the network is a `map` over its events.
    fn from(event: &TraceEvent) -> Self {
        match event {
            TraceEvent::Connect(conn) => Request::Connect(conn.clone()),
            TraceEvent::Disconnect(src) => Request::Disconnect(*src),
        }
    }
}

/// Why the server refused a `Connect` or `Disconnect`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Endpoint conflict that outlived the engine's retry budget. The
    /// request may succeed later, once the occupant departs.
    Busy,
    /// Middle-stage exhaustion — the hard block Theorems 1–2 rule out
    /// at the nonblocking bound. Retrying without a departure is
    /// pointless.
    Blocked,
    /// A required component is failed; only a repair changes the answer.
    ComponentDown,
    /// The server is draining and accepts no new work.
    Draining,
    /// This connection has too many requests in flight; resubmit after
    /// some responses arrive.
    Backpressure,
    /// Disconnect for a source the server never admitted.
    UnknownSource,
    /// Structural error (malformed request reached the fabric), or a
    /// fault frame naming a component the served fabric does not have.
    Fatal,
    /// The server is shedding load under sustained blocking pressure;
    /// retry later — pressure subsides as connections depart.
    Overloaded,
}

/// The wire taxonomy *is* the canonical [`RejectClass`] — the
/// conversion is a bijection in both directions, so no backend refusal
/// is ever flattened or mislabelled crossing the network boundary.
impl From<RejectClass> for RejectReason {
    fn from(c: RejectClass) -> Self {
        match c {
            RejectClass::Busy => RejectReason::Busy,
            RejectClass::Blocked => RejectReason::Blocked,
            RejectClass::ComponentDown => RejectReason::ComponentDown,
            RejectClass::Draining => RejectReason::Draining,
            RejectClass::Backpressure => RejectReason::Backpressure,
            RejectClass::UnknownSource => RejectReason::UnknownSource,
            RejectClass::Fatal => RejectReason::Fatal,
            RejectClass::Overloaded => RejectReason::Overloaded,
        }
    }
}

impl From<RejectReason> for RejectClass {
    fn from(r: RejectReason) -> Self {
        match r {
            RejectReason::Busy => RejectClass::Busy,
            RejectReason::Blocked => RejectClass::Blocked,
            RejectReason::ComponentDown => RejectClass::ComponentDown,
            RejectReason::Draining => RejectClass::Draining,
            RejectReason::Backpressure => RejectClass::Backpressure,
            RejectReason::UnknownSource => RejectClass::UnknownSource,
            RejectReason::Fatal => RejectClass::Fatal,
            RejectReason::Overloaded => RejectClass::Overloaded,
        }
    }
}

impl RejectReason {
    /// `true` when resubmitting the same request later can succeed
    /// without operator intervention.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            RejectReason::Busy
                | RejectReason::Draining
                | RejectReason::Backpressure
                | RejectReason::Overloaded
        )
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RejectReason::Busy => "busy",
            RejectReason::Blocked => "blocked",
            RejectReason::ComponentDown => "component down",
            RejectReason::Draining => "draining",
            RejectReason::Backpressure => "backpressure",
            RejectReason::UnknownSource => "unknown source",
            RejectReason::Fatal => "fatal",
            RejectReason::Overloaded => "overloaded",
        };
        f.write_str(s)
    }
}

/// One response frame, server → client. Responses carry the id of the
/// request they answer; because the engine resolves requests out of
/// order (parked retries), responses on one connection may interleave.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The connect was admitted / the disconnect completed.
    Ok,
    /// The request was refused; `detail` is a human-readable elaboration
    /// (may be empty).
    Rejected {
        /// Machine-readable refusal class.
        reason: RejectReason,
        /// Free-text elaboration.
        detail: String,
    },
    /// Live engine telemetry.
    Snapshot(MetricsSnapshot),
    /// The drain completed; `summary` is the engine's final snapshot.
    DrainReport {
        /// Every worker drained, no structural errors, backend
        /// consistent.
        clean: bool,
        /// Final counters after quiescence.
        summary: MetricsSnapshot,
    },
    /// Answer to [`Request::Ping`].
    Pong,
    /// The peer sent something unintelligible; the connection closes
    /// after this frame.
    ProtocolError {
        /// What was wrong with the offending frame.
        message: String,
    },
    /// Per-connection verdicts for one [`Request::BatchConnect`] (wire
    /// v2), in request order. Items are only ever [`Response::Ok`] or
    /// [`Response::Rejected`].
    Batch(Vec<Response>),
    /// Answer to [`Request::Inject`] (wire v2): live connections the
    /// fault evicted, how many were re-admitted on surviving hardware,
    /// and how many were lost.
    Healed {
        /// Connections the fault evicted.
        hit: u32,
        /// Evictees re-admitted.
        healed: u32,
        /// Evictees the degraded fabric could not re-admit.
        failed: u32,
    },
    /// Answer to [`Request::Repair`] (wire v2): whether the component
    /// was down.
    Repaired(bool),
}

impl Response {
    /// Map an engine-side [`RequestOutcome`] to the wire response the
    /// remote caller sees. An `OrphanedDeparture` (the connection was
    /// already torn down by a failed heal) reads as success: the caller
    /// wanted the connection gone and it is.
    pub fn from_outcome(outcome: RequestOutcome) -> Response {
        let reject = |reason, detail: &str| Response::Rejected {
            reason,
            detail: detail.to_string(),
        };
        match outcome {
            RequestOutcome::Admitted | RequestOutcome::Departed => Response::Ok,
            RequestOutcome::OrphanedDeparture => Response::Ok,
            RequestOutcome::Expired => reject(
                RejectReason::Busy,
                "endpoint conflict outlived the retry deadline",
            ),
            RequestOutcome::Blocked => reject(RejectReason::Blocked, "middle stage exhausted"),
            RequestOutcome::ComponentDown => {
                reject(RejectReason::ComponentDown, "required component is failed")
            }
            RequestOutcome::SkippedDeparture => {
                reject(RejectReason::UnknownSource, "source was never admitted")
            }
            RequestOutcome::Fatal => reject(RejectReason::Fatal, "structural error"),
            RequestOutcome::Draining => reject(RejectReason::Draining, "engine is draining"),
            RequestOutcome::Overloaded => reject(
                RejectReason::Overloaded,
                "shedding load under sustained blocking",
            ),
        }
    }

    /// `true` for [`Response::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, Response::Ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wdm_core::{AssignmentError, Fault, Reject};

    /// A representative sample of every payload-carrying backend reject.
    fn arb_reject() -> impl Strategy<Value = Reject> {
        (0u8..8, 0u32..64, any::<u32>()).prop_map(|(kind, port, n)| {
            let ep = wdm_core::Endpoint::new(port, 0);
            match kind {
                0 => Reject::Busy(AssignmentError::SourceBusy(ep)),
                1 => Reject::Blocked {
                    available_middles: n as usize % 32,
                    x_limit: 1 + n % 4,
                },
                2 => Reject::ComponentDown(Fault::Port(port)),
                3 => Reject::UnknownSource(ep),
                4 => Reject::Draining,
                5 => Reject::Backpressure,
                6 => Reject::Overloaded,
                _ => Reject::Fatal(format!("structural violation {n}")),
            }
        })
    }

    proptest! {
        /// Every backend reject maps to exactly one wire reason, and
        /// mapping that reason back recovers the original class — the
        /// boundary is lossless at the taxonomy level.
        #[test]
        fn prop_every_reject_crosses_the_wire_losslessly(r in arb_reject()) {
            let reason = RejectReason::from(r.class());
            prop_assert_eq!(RejectClass::from(reason), r.class());
            prop_assert_eq!(reason.is_retryable(), r.is_retryable());
        }
    }

    #[test]
    fn outcome_mapping_covers_the_taxonomy() {
        assert_eq!(
            Response::from_outcome(RequestOutcome::Admitted),
            Response::Ok
        );
        assert_eq!(
            Response::from_outcome(RequestOutcome::Departed),
            Response::Ok
        );
        assert_eq!(
            Response::from_outcome(RequestOutcome::OrphanedDeparture),
            Response::Ok
        );
        for (outcome, reason) in [
            (RequestOutcome::Expired, RejectReason::Busy),
            (RequestOutcome::Blocked, RejectReason::Blocked),
            (RequestOutcome::ComponentDown, RejectReason::ComponentDown),
            (
                RequestOutcome::SkippedDeparture,
                RejectReason::UnknownSource,
            ),
            (RequestOutcome::Fatal, RejectReason::Fatal),
            (RequestOutcome::Draining, RejectReason::Draining),
            (RequestOutcome::Overloaded, RejectReason::Overloaded),
        ] {
            match Response::from_outcome(outcome) {
                Response::Rejected { reason: r, .. } => assert_eq!(r, reason),
                other => panic!("{outcome:?} mapped to {other:?}"),
            }
        }
    }

    #[test]
    fn retryable_classification() {
        assert!(RejectReason::Busy.is_retryable());
        assert!(RejectReason::Draining.is_retryable());
        assert!(RejectReason::Backpressure.is_retryable());
        assert!(RejectReason::Overloaded.is_retryable());
        assert!(!RejectReason::Blocked.is_retryable());
        assert!(!RejectReason::ComponentDown.is_retryable());
        assert!(!RejectReason::Fatal.is_retryable());
    }

    #[test]
    fn reject_reason_and_class_are_a_bijection() {
        for class in RejectClass::ALL {
            let reason = RejectReason::from(class);
            assert_eq!(RejectClass::from(reason), class, "{class} must roundtrip");
        }
        let all: Vec<RejectReason> = RejectClass::ALL.iter().map(|&c| c.into()).collect();
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b, "distinct classes map to distinct reasons");
            }
        }
        // Retryability must agree across the boundary.
        for class in RejectClass::ALL {
            assert_eq!(
                RejectReason::from(class).is_retryable(),
                class.is_retryable(),
                "{class}"
            );
        }
    }

    #[test]
    fn trace_event_adapter() {
        let conn = MulticastConnection::unicast(Endpoint::new(0, 0), Endpoint::new(1, 1));
        let req: Request = (&TraceEvent::Connect(conn.clone())).into();
        assert_eq!(req, Request::Connect(conn));
        let req: Request = (&TraceEvent::Disconnect(Endpoint::new(2, 0))).into();
        assert_eq!(req, Request::Disconnect(Endpoint::new(2, 0)));
    }
}
