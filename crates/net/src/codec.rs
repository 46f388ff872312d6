//! Binary framing: a compact length-prefixed encoding with one wire
//! version and strict malformed-frame rejection.
//!
//! ## Frame layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       2     magic  0x57 0x4E ("WN")
//! 2       1     version (WIRE_VERSION; any other byte is refused)
//! 3       1     kind    (one row of the kind table)
//! 4       8     request id
//! 12      4     payload length (≤ MAX_PAYLOAD)
//! 16      …     payload
//! ```
//!
//! Every kind, with its byte, direction and payload layout, is one row
//! of a single table: the header check admits exactly its bytes, and
//! the decoders refuse a kind travelling the wrong way. The codec owns
//! every payload byte, the engine's metrics snapshot included: `u64`s
//! little-endian, `f64`s as their bits, lists as a `u32` count and the
//! items.
//!
//! Decoding never panics: every malformed input — wrong magic, a version
//! other than [`WIRE_VERSION`], an unknown kind, oversized or truncated
//! payload, trailing bytes, structurally invalid connections — comes
//! back as a typed [`WireError`] the server answers with a
//! `ProtocolError` frame.

use crate::protocol::{RejectReason, Request, Response, WIRE_VERSION};
use std::io::{self, Read};
use wdm_core::{Endpoint, Fault, MulticastConnection};
use wdm_runtime::MetricsSnapshot;

/// First two bytes of every frame.
pub const MAGIC: [u8; 2] = [0x57, 0x4E];

/// Upper bound on a frame payload. Generous for any real request (a
/// full-fanout multicast on a large network is a few KiB) while bounding
/// what a broken or hostile peer can make the server allocate.
pub const MAX_PAYLOAD: usize = 1 << 20;

/// Frame header size in bytes.
pub const HEADER_LEN: usize = 16;

/// A frame kind; its discriminant is its byte on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Kind {
    Connect = 0x01,
    Disconnect = 0x02,
    Snapshot = 0x03,
    Drain = 0x04,
    Ping = 0x05,
    BatchConnect = 0x06,
    Inject = 0x07,
    Repair = 0x08,
    Ok = 0x81,
    Rejected = 0x82,
    SnapshotData = 0x83,
    DrainReport = 0x84,
    Pong = 0x85,
    ProtocolError = 0x86,
    BatchReply = 0x87,
    Healed = 0x88,
    Repaired = 0x89,
}

/// Which way a frame kind travels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dir {
    Request,
    Response,
}

/// One row of [`KINDS`]: a kind (its byte and name), its direction and
/// its payload layout.
#[derive(Debug)]
pub(crate) struct Row {
    pub(crate) kind: Kind,
    pub(crate) dir: Dir,
    pub(crate) payload: &'static str,
}

const fn req(kind: Kind, payload: &'static str) -> Row {
    Row {
        kind,
        dir: Dir::Request,
        payload,
    }
}

const fn resp(kind: Kind, payload: &'static str) -> Row {
    Row {
        kind,
        dir: Dir::Response,
        payload,
    }
}

/// Every frame kind of the wire. The header check admits exactly these
/// bytes, the decoders refuse a row travelling the other way and name
/// its layout when a payload does not fit it, and DESIGN §wire's kind
/// table is checked against it. An endpoint is a `u32` port and a `u32`
/// wavelength, a string a `u32` length and UTF-8, metrics the
/// [`MetricsSnapshot`] fields in declaration order (a `u64` each, an
/// `f64` as its bits, a list as a `u32` count and its `u64`s).
pub(crate) const KINDS: [Row; 17] = [
    req(
        Kind::Connect,
        "connection: endpoint, u32 fanout, fanout × endpoint",
    ),
    req(Kind::Disconnect, "source endpoint"),
    req(Kind::Snapshot, "empty"),
    req(Kind::Drain, "empty"),
    req(Kind::Ping, "empty"),
    req(Kind::BatchConnect, "u32 count, count × connection"),
    req(Kind::Inject, "fault: u8 tag 0–6, one or two u32"),
    req(Kind::Repair, "fault: u8 tag 0–6, one or two u32"),
    resp(Kind::Ok, "empty"),
    resp(Kind::Rejected, "verdict: u8 reason, string detail"),
    resp(Kind::SnapshotData, "metrics"),
    resp(Kind::DrainReport, "u8 clean flag, metrics"),
    resp(Kind::Pong, "empty"),
    resp(Kind::ProtocolError, "string message"),
    resp(
        Kind::BatchReply,
        "u32 count, count × (u8 0 = Ok, or verdict)",
    ),
    resp(Kind::Healed, "u32 hit, u32 healed, u32 failed"),
    resp(Kind::Repaired, "u8 was-down flag"),
];

/// The row of kind byte `byte`; `UnknownKind` if the table has none.
fn row_of(byte: u8) -> Result<&'static Row, WireError> {
    KINDS
        .iter()
        .find(|r| r.kind as u8 == byte)
        .ok_or(WireError::UnknownKind(byte))
}

impl Row {
    /// Refuse a frame of this row travelling other than `dir`.
    fn expect(&self, dir: Dir) -> Result<(), WireError> {
        if self.dir == dir {
            return Ok(());
        }
        let (kind, dir) = (self.kind, format!("{dir:?}").to_lowercase());
        Err(WireError::Malformed(format!(
            "frame kind {:#04x} ({kind:?}) is not a {dir}",
            kind as u8
        )))
    }

    /// `e`, from a payload of this row, with the layout it missed.
    fn explain(&self, e: WireError) -> WireError {
        match e {
            WireError::Malformed(m) => WireError::Malformed(format!(
                "{m} (a {:?} payload is {})",
                self.kind, self.payload
            )),
            other => other,
        }
    }

    /// A row the table lists but the decoders have no arm for (a codec
    /// test keeps this unreachable).
    fn no_arm(&self) -> WireError {
        WireError::Malformed(format!("no decoder for {:?}", self.kind))
    }
}

/// Everything that can go wrong on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Underlying transport error.
    Io(String),
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// Frame did not start with [`MAGIC`].
    BadMagic([u8; 2]),
    /// Frame declared a version other than [`WIRE_VERSION`].
    UnsupportedVersion(u8),
    /// Unknown frame kind byte.
    UnknownKind(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// The connection died mid-frame (short header or payload).
    Truncated,
    /// The payload did not parse as its kind demands.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o: {e}"),
            WireError::Closed => write!(f, "connection closed"),
            WireError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            WireError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported wire version {v} (this peer speaks {WIRE_VERSION})"
                )
            }
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            WireError::Oversized(n) => {
                write!(f, "payload of {n} bytes exceeds the {MAX_PAYLOAD}-byte cap")
            }
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::Malformed(m) => write!(f, "malformed payload: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::UnexpectedEof => WireError::Truncated,
            _ => WireError::Io(e.to_string()),
        }
    }
}

/// A decoded frame header plus raw payload, before kind-specific
/// parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFrame {
    /// Wire version the frame was sent in ([`WIRE_VERSION`] for every
    /// frame the header check admits).
    pub version: u8,
    /// Frame kind byte.
    pub kind: u8,
    /// Request id this frame belongs to.
    pub id: u64,
    /// Undecoded payload bytes.
    pub payload: Vec<u8>,
}

/// Read one frame. A clean EOF before any header byte is
/// [`WireError::Closed`]; EOF anywhere inside a frame is
/// [`WireError::Truncated`].
pub fn read_frame(r: &mut impl Read) -> Result<RawFrame, WireError> {
    let mut header = [0u8; HEADER_LEN];
    // Distinguish "no more frames" from "died mid-header".
    let mut got = 0usize;
    while got < HEADER_LEN {
        match r.read(&mut header[got..]) {
            Ok(0) => {
                return Err(if got == 0 {
                    WireError::Closed
                } else {
                    WireError::Truncated
                });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let (row, id, len) = check_header(&header)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(RawFrame {
        version: WIRE_VERSION,
        kind: row.kind as u8,
        id,
        payload,
    })
}

/// The one frame-header check, shared by [`read_frame`] and the serving
/// core's assembler: magic → version → kind → payload cap, from the
/// first [`HEADER_LEN`] bytes alone. Returns `(kind row, id, len)`.
pub(crate) fn check_header(header: &[u8]) -> Result<(&'static Row, u64, usize), WireError> {
    if header[0..2] != MAGIC {
        return Err(WireError::BadMagic([header[0], header[1]]));
    }
    if header[2] != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(header[2]));
    }
    let row = row_of(header[3])?;
    let id = u64::from_le_bytes(header[4..12].try_into().expect("8 bytes"));
    let len = u32::from_le_bytes(header[12..16].try_into().expect("4 bytes"));
    if len as usize > MAX_PAYLOAD {
        return Err(WireError::Oversized(len));
    }
    Ok((row, id, len as usize))
}

/// Strict little-endian payload reader: every accessor checks bounds,
/// and [`PayloadReader::finish`] rejects trailing garbage.
struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        PayloadReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| WireError::Malformed("payload shorter than declared".into()))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// A `u32` count of items at least `item_len` bytes each, checked
    /// against the payload before anything is allocated for them.
    fn count(&mut self, item_len: usize, what: &str) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(item_len) > self.buf.len() - self.pos {
            return Err(WireError::Malformed(format!(
                "{what} of {n} larger than the payload could hold"
            )));
        }
        Ok(n)
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Malformed("string is not UTF-8".into()))
    }

    fn endpoint(&mut self) -> Result<Endpoint, WireError> {
        let port = self.u32()?;
        let wavelength = self.u32()?;
        Ok(Endpoint::new(port, wavelength))
    }

    fn flag(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::Malformed(format!(
                "flag must be 0 or 1, got {other}"
            ))),
        }
    }

    fn connection(&mut self) -> Result<MulticastConnection, WireError> {
        let source = self.endpoint()?;
        let n = self.count(8, "fanout")?;
        let dests = (0..n)
            .map(|_| self.endpoint())
            .collect::<Result<Vec<_>, _>>()?;
        MulticastConnection::new(source, dests).map_err(|e| WireError::Malformed(e.to_string()))
    }

    fn fault(&mut self) -> Result<Fault, WireError> {
        Ok(match self.u8()? {
            0 => Fault::MiddleSwitch(self.u32()?),
            1 => Fault::InputLink {
                module: self.u32()?,
                middle: self.u32()?,
            },
            2 => Fault::MiddleLink {
                middle: self.u32()?,
                module: self.u32()?,
            },
            3 => Fault::InputConverters(self.u32()?),
            4 => Fault::MiddleConverters(self.u32()?),
            5 => Fault::OutputConverters(self.u32()?),
            6 => Fault::Port(self.u32()?),
            other => return Err(WireError::Malformed(format!("unknown fault tag {other}"))),
        })
    }

    fn verdict(&mut self) -> Result<Response, WireError> {
        Ok(match self.u8()? {
            0 => Response::Ok,
            code => Response::Rejected {
                reason: reject_reason(code)?,
                detail: self.string()?,
            },
        })
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )))
        }
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_string(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_endpoint(buf: &mut Vec<u8>, ep: Endpoint) {
    put_u32(buf, ep.port.0);
    put_u32(buf, ep.wavelength.0);
}

fn put_fault(p: &mut Vec<u8>, fault: Fault) {
    let (tag, a, b) = match fault {
        Fault::MiddleSwitch(j) => (0, j, None),
        Fault::InputLink { module, middle } => (1, module, Some(middle)),
        Fault::MiddleLink { middle, module } => (2, middle, Some(module)),
        Fault::InputConverters(a) => (3, a, None),
        Fault::MiddleConverters(j) => (4, j, None),
        Fault::OutputConverters(b) => (5, b, None),
        Fault::Port(port) => (6, port, None),
    };
    p.push(tag);
    put_u32(p, a);
    if let Some(b) = b {
        put_u32(p, b);
    }
}

fn put_connection(p: &mut Vec<u8>, conn: &MulticastConnection) {
    put_endpoint(p, conn.source());
    put_u32(p, conn.fanout() as u32);
    for d in conn.destinations() {
        put_endpoint(p, *d);
    }
}

fn put_verdict(p: &mut Vec<u8>, reason: RejectReason, detail: &str) {
    p.push(reject_code(reason));
    put_string(p, detail);
}

/// How one [`MetricsSnapshot`] field crosses the wire: a `u64`
/// little-endian, an `f64` as its bits, a list as a `u32` count and its
/// `u64`s.
trait Field: Sized {
    fn put(&self, p: &mut Vec<u8>);
    fn read(r: &mut PayloadReader<'_>) -> Result<Self, WireError>;
}

impl Field for u64 {
    fn put(&self, p: &mut Vec<u8>) {
        p.extend_from_slice(&self.to_le_bytes());
    }

    fn read(r: &mut PayloadReader<'_>) -> Result<Self, WireError> {
        Ok(u64::from_le_bytes(r.take(8)?.try_into().expect("8")))
    }
}

impl Field for f64 {
    fn put(&self, p: &mut Vec<u8>) {
        self.to_bits().put(p);
    }

    fn read(r: &mut PayloadReader<'_>) -> Result<Self, WireError> {
        u64::read(r).map(f64::from_bits)
    }
}

impl Field for Vec<u64> {
    fn put(&self, p: &mut Vec<u8>) {
        put_u32(p, self.len() as u32);
        self.iter().for_each(|v| v.put(p));
    }

    fn read(r: &mut PayloadReader<'_>) -> Result<Self, WireError> {
        let n = r.count(8, "list")?;
        (0..n).map(|_| u64::read(r)).collect()
    }
}

/// `put_metrics` and `PayloadReader::metrics` from one list of the
/// [`MetricsSnapshot`] fields, in wire order. The exhaustive
/// destructuring and struct literal make a field missing from the list
/// a compile error.
macro_rules! metrics_codec {
    ($($field:ident),* $(,)?) => {
        fn put_metrics(p: &mut Vec<u8>, m: &MetricsSnapshot) {
            let MetricsSnapshot { $($field),* } = m;
            $($field.put(p);)*
        }

        impl PayloadReader<'_> {
            fn metrics(&mut self) -> Result<MetricsSnapshot, WireError> {
                Ok(MetricsSnapshot { $($field: Field::read(self)?),* })
            }
        }
    };
}

metrics_codec!(
    elapsed_secs,
    offered,
    admitted,
    blocked,
    retried,
    expired,
    departed,
    skipped_departures,
    component_down,
    faults_injected,
    faults_repaired,
    connections_hit,
    healed,
    heal_failed,
    orphaned_departures,
    fatal,
    overloaded,
    repack_moves_attempted,
    repack_moves_committed,
    repack_moves_aborted,
    snapshot_retries,
    active,
    blocking_probability,
    p50_admit_ns,
    p99_admit_ns,
    mean_admit_ns,
    p99_heal_ns,
    p99_repack_ns,
    mean_holding,
    wavelength_live,
    middle_loads,
);

/// Encode a request into a complete frame.
pub fn encode_request(id: u64, req: &Request) -> Vec<u8> {
    let payload_len = match req {
        Request::Connect(conn) => 8 + 4 + 8 * conn.fanout(),
        Request::Disconnect(_) => 8,
        _ => 0,
    };
    let mut buf = Vec::with_capacity(HEADER_LEN + payload_len);
    put_frame(&mut buf, id, |p| match req {
        Request::Connect(conn) => {
            put_connection(p, conn);
            Kind::Connect
        }
        Request::Disconnect(src) => {
            put_endpoint(p, *src);
            Kind::Disconnect
        }
        Request::Snapshot => Kind::Snapshot,
        Request::Drain => Kind::Drain,
        Request::Ping => Kind::Ping,
        Request::BatchConnect(conns) => {
            put_u32(p, conns.len() as u32);
            for conn in conns {
                put_connection(p, conn);
            }
            Kind::BatchConnect
        }
        Request::Inject(fault) => {
            put_fault(p, *fault);
            Kind::Inject
        }
        Request::Repair(fault) => {
            put_fault(p, *fault);
            Kind::Repair
        }
    });
    buf
}

/// Encode a response into a complete frame.
///
/// # Panics
///
/// When `resp` is a [`Response::Batch`] with an item that is neither
/// `Ok` nor `Rejected`.
pub fn encode_response(id: u64, resp: &Response) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN);
    encode_response_into(&mut buf, id, resp);
    buf
}

/// [`encode_response`] appended to `buf` — how the serving core encodes
/// a verdict straight into a connection's output queue.
pub(crate) fn encode_response_into(buf: &mut Vec<u8>, id: u64, resp: &Response) {
    put_frame(buf, id, |p| match resp {
        Response::Ok => Kind::Ok,
        Response::Rejected { reason, detail } => {
            put_verdict(p, *reason, detail);
            Kind::Rejected
        }
        Response::Snapshot(snap) => {
            put_metrics(p, snap);
            Kind::SnapshotData
        }
        Response::DrainReport { clean, summary } => {
            p.push(u8::from(*clean));
            put_metrics(p, summary);
            Kind::DrainReport
        }
        Response::Pong => Kind::Pong,
        Response::ProtocolError { message } => {
            put_string(p, message);
            Kind::ProtocolError
        }
        Response::Batch(items) => {
            put_u32(p, items.len() as u32);
            for item in items {
                match item {
                    Response::Ok => p.push(0),
                    Response::Rejected { reason, detail } => put_verdict(p, *reason, detail),
                    other => panic!("batch items are Ok/Rejected, got {other:?}"),
                }
            }
            Kind::BatchReply
        }
        Response::Healed {
            hit,
            healed,
            failed,
        } => {
            for n in [hit, healed, failed] {
                put_u32(p, *n);
            }
            Kind::Healed
        }
        Response::Repaired(was_down) => {
            p.push(u8::from(*was_down));
            Kind::Repaired
        }
    });
}

/// Append one whole frame to `buf`: the header, then the payload
/// `payload` writes after it, which returns the frame's kind. Kind and
/// length are patched into the header once the payload is written, so
/// header and payload share one buffer.
fn put_frame(buf: &mut Vec<u8>, id: u64, payload: impl FnOnce(&mut Vec<u8>) -> Kind) {
    let start = buf.len();
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&[WIRE_VERSION, 0]);
    buf.extend_from_slice(&id.to_le_bytes());
    buf.extend_from_slice(&[0; 4]);
    let kind = payload(buf);
    let len = buf.len() - start - HEADER_LEN;
    debug_assert!(len <= MAX_PAYLOAD);
    buf[start + 3] = kind as u8;
    buf[start + 12..start + HEADER_LEN].copy_from_slice(&(len as u32).to_le_bytes());
}

fn reject_code(reason: RejectReason) -> u8 {
    match reason {
        RejectReason::Busy => 1,
        RejectReason::Blocked => 2,
        RejectReason::ComponentDown => 3,
        RejectReason::Draining => 4,
        RejectReason::Backpressure => 5,
        RejectReason::UnknownSource => 6,
        RejectReason::Fatal => 7,
        RejectReason::Overloaded => 8,
    }
}

fn reject_reason(code: u8) -> Result<RejectReason, WireError> {
    Ok(match code {
        1 => RejectReason::Busy,
        2 => RejectReason::Blocked,
        3 => RejectReason::ComponentDown,
        4 => RejectReason::Draining,
        5 => RejectReason::Backpressure,
        6 => RejectReason::UnknownSource,
        7 => RejectReason::Fatal,
        8 => RejectReason::Overloaded,
        other => {
            return Err(WireError::Malformed(format!(
                "unknown reject reason code {other}"
            )))
        }
    })
}

/// Parse a raw frame as a request. Response kinds are rejected.
pub fn decode_request(frame: &RawFrame) -> Result<Request, WireError> {
    decode_request_parts(row_of(frame.kind)?, &frame.payload)
}

/// [`decode_request`] over a frame's parts, so the serving core can parse
/// a payload where it lies in its read buffer.
pub(crate) fn decode_request_parts(row: &Row, payload: &[u8]) -> Result<Request, WireError> {
    row.expect(Dir::Request)?;
    parse_request(row, payload).map_err(|e| row.explain(e))
}

fn parse_request(row: &Row, payload: &[u8]) -> Result<Request, WireError> {
    let mut p = PayloadReader::new(payload);
    let req = match row.kind {
        Kind::Connect => Request::Connect(p.connection()?),
        Kind::Disconnect => Request::Disconnect(p.endpoint()?),
        Kind::Snapshot => Request::Snapshot,
        Kind::Drain => Request::Drain,
        Kind::Ping => Request::Ping,
        Kind::BatchConnect => {
            // Each connection needs ≥ 16 payload bytes (src + fanout +
            // one destination).
            let n = p.count(16, "batch")?;
            Request::BatchConnect((0..n).map(|_| p.connection()).collect::<Result<_, _>>()?)
        }
        Kind::Inject => Request::Inject(p.fault()?),
        Kind::Repair => Request::Repair(p.fault()?),
        _ => return Err(row.no_arm()),
    };
    p.finish()?;
    Ok(req)
}

/// Parse a raw frame as a response. Request kinds are rejected.
pub fn decode_response(frame: &RawFrame) -> Result<Response, WireError> {
    let row = row_of(frame.kind)?;
    row.expect(Dir::Response)?;
    parse_response(row, &frame.payload).map_err(|e| row.explain(e))
}

fn parse_response(row: &Row, payload: &[u8]) -> Result<Response, WireError> {
    let mut p = PayloadReader::new(payload);
    let resp = match row.kind {
        Kind::Ok => Response::Ok,
        Kind::Rejected => p.verdict()?,
        Kind::SnapshotData => Response::Snapshot(p.metrics()?),
        Kind::DrainReport => Response::DrainReport {
            clean: p.flag()?,
            summary: p.metrics()?,
        },
        Kind::Pong => Response::Pong,
        Kind::ProtocolError => Response::ProtocolError {
            message: p.string()?,
        },
        Kind::BatchReply => {
            let n = p.count(1, "batch")?;
            Response::Batch((0..n).map(|_| p.verdict()).collect::<Result<_, _>>()?)
        }
        Kind::Healed => Response::Healed {
            hit: p.u32()?,
            healed: p.u32()?,
            failed: p.u32()?,
        },
        Kind::Repaired => Response::Repaired(p.flag()?),
        _ => return Err(row.no_arm()),
    };
    p.finish()?;
    Ok(resp)
}

/// Read and parse one request frame from a stream.
pub fn read_request(r: &mut impl Read) -> Result<(u64, Request), WireError> {
    let frame = read_frame(r)?;
    Ok((frame.id, decode_request(&frame)?))
}

/// Read and parse one response frame from a stream.
pub fn read_response(r: &mut impl Read) -> Result<(u64, Response), WireError> {
    let frame = read_frame(r)?;
    Ok((frame.id, decode_response(&frame)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};
    use std::io::Cursor;
    use wdm_runtime::RuntimeMetrics;

    /// A snapshot decoded from bytes drawn from `seed`: every scalar
    /// arbitrary bits (NaNs included), each list 0–9 items.
    fn metrics_from_seed(seed: u64) -> MetricsSnapshot {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = Vec::new();
        (0..29).for_each(|_| rng.next_u64().put(&mut p));
        for _ in 0..2 {
            let list: Vec<u64> = (0..rng.gen_range(0..10)).map(|_| rng.next_u64()).collect();
            list.put(&mut p);
        }
        let mut r = PayloadReader::new(&p);
        let m = r.metrics().expect("29 scalars and two lists");
        r.finish().expect("nothing left over");
        m
    }

    /// Sample `i` of the 17 kinds (requests 0–7, responses 8–16, in
    /// table order) as a whole frame, the rest of it drawn from `x`.
    fn frame_of(i: usize, x: u64) -> Vec<u8> {
        let (port, wl, fanout) = ((x % 64) as u32, (x >> 8) as u32 % 4, 1 + (x >> 16) % 5);
        // Distinct ports make a structurally legal connection.
        let conn = |port: u32| {
            let dests = (1..=fanout as u32).map(|j| Endpoint::new(port + j, wl));
            MulticastConnection::new(Endpoint::new(port, wl), dests).unwrap()
        };
        let fault = [
            Fault::MiddleSwitch(port),
            Fault::InputLink {
                module: port,
                middle: wl,
            },
            Fault::MiddleLink {
                middle: wl,
                module: port,
            },
            Fault::InputConverters(port),
            Fault::MiddleConverters(wl),
            Fault::OutputConverters(port),
            Fault::Port(port),
        ][(x >> 24) as usize % 7];
        let rejected = Response::Rejected {
            reason: reject_reason(1 + (x >> 32) as u8 % 8).unwrap(),
            detail: format!("detail {x}"),
        };
        let request = |req| encode_request(x, &req);
        let response = |resp| encode_response(x, &resp);
        match i % 17 {
            0 => request(Request::Connect(conn(port))),
            1 => request(Request::Disconnect(Endpoint::new(port, wl))),
            2 => request(Request::Snapshot),
            3 => request(Request::Drain),
            4 => request(Request::Ping),
            5 => request(Request::BatchConnect(
                (0..fanout as u32).map(|j| conn(port + 8 * j)).collect(),
            )),
            6 => request(Request::Inject(fault)),
            7 => request(Request::Repair(fault)),
            8 => response(Response::Ok),
            9 => response(rejected),
            10 => response(Response::Snapshot(metrics_from_seed(x))),
            11 => response(Response::DrainReport {
                clean: x & 1 == 0,
                summary: metrics_from_seed(x),
            }),
            12 => response(Response::Pong),
            13 => response(Response::ProtocolError {
                message: format!("bad frame {x}"),
            }),
            14 => response(Response::Batch(
                (0..fanout)
                    .map(|j| match (x >> j) & 1 {
                        0 => Response::Ok,
                        _ => rejected.clone(),
                    })
                    .collect(),
            )),
            15 => response(Response::Healed {
                hit: x as u32,
                healed: (x >> 32) as u32,
                failed: (x >> 16) as u32,
            }),
            _ => response(Response::Repaired(x & 1 == 1)),
        }
    }

    /// Decode `frame` in its row's direction and encode the result
    /// again.
    fn reencode(frame: &RawFrame) -> Result<Vec<u8>, WireError> {
        match row_of(frame.kind)?.dir {
            Dir::Request => decode_request(frame).map(|r| encode_request(frame.id, &r)),
            Dir::Response => decode_response(frame).map(|r| encode_response(frame.id, &r)),
        }
    }

    fn frame(kind: Kind, payload: Vec<u8>) -> RawFrame {
        RawFrame {
            version: WIRE_VERSION,
            kind: kind as u8,
            id: 1,
            payload,
        }
    }

    /// The kind table and the codec's arms agree: every row is produced
    /// by an encoder arm and decodes back through a decoder arm in its
    /// direction only, and the header check admits exactly the table's
    /// bytes. A row added to the table without both arms fails here.
    #[test]
    fn every_table_kind_has_an_encode_and_a_decode_arm() {
        let mut encoded = Vec::new();
        for i in 0..17 {
            let bytes = frame_of(i, 0x0102_0304_0506_0708);
            let frame = read_frame(&mut Cursor::new(&bytes)).expect("a table kind");
            assert_eq!(reencode(&frame), Ok(bytes), "kind {:#04x}", frame.kind);
            encoded.push(frame.kind);
        }
        for row in &KINDS {
            assert!(
                encoded.contains(&(row.kind as u8)),
                "{row:?}: no encoder arm or sample"
            );
            let wrong_way = match row.dir {
                Dir::Request => decode_response(&frame(row.kind, vec![])).err(),
                Dir::Response => decode_request(&frame(row.kind, vec![])).err(),
            };
            assert!(
                matches!(&wrong_way, Some(WireError::Malformed(m)) if m.contains("is not a")),
                "{row:?}: {wrong_way:?}"
            );
        }
        for b in 0..=u8::MAX {
            assert_eq!(row_of(b).is_ok(), encoded.contains(&b), "{b:#04x}");
        }
    }

    /// DESIGN §wire's kind table is [`KINDS`], row for row: byte, name,
    /// direction and payload layout.
    #[test]
    fn design_kind_table_matches_the_codec_table() {
        let design = include_str!("../../../DESIGN.md");
        let rows: Vec<Vec<&str>> = design
            .lines()
            .skip_while(|l| !l.starts_with("| byte | kind | direction | payload |"))
            .skip(2)
            .take_while(|l| l.starts_with('|'))
            .map(|l| l.trim_matches('|').split(" | ").map(str::trim).collect())
            .collect();
        let want: Vec<Vec<String>> = KINDS
            .iter()
            .map(|r| {
                vec![
                    format!("`{:#04x}`", r.kind as u8),
                    format!("`{:?}`", r.kind),
                    format!("{:?}", r.dir).to_lowercase(),
                    r.payload.to_string(),
                ]
            })
            .collect();
        assert_eq!(rows, want, "DESIGN.md §wire kind table");
    }

    /// The snapshot payload is the fields in declaration order: 29
    /// eight-byte scalars, then each list as a count and its items.
    #[test]
    fn snapshot_payload_is_field_by_field() {
        let snap = RuntimeMetrics::new(2).snapshot(1.5, 3, vec![1, 2, 0]);
        let bytes = encode_response(1, &Response::Snapshot(snap.clone()));
        let payload = &bytes[HEADER_LEN..];
        assert_eq!(payload.len(), 29 * 8 + (4 + 2 * 8) + (4 + 3 * 8));
        assert_eq!(payload[..8], 1.5f64.to_bits().to_le_bytes());
        assert_eq!(payload[21 * 8..22 * 8], 3u64.to_le_bytes(), "active");
        assert_eq!(payload[29 * 8..29 * 8 + 4], 2u32.to_le_bytes());
        let back = read_response(&mut Cursor::new(&bytes)).unwrap();
        assert_eq!(back, (1, Response::Snapshot(snap)));
    }

    #[test]
    fn clean_eof_is_closed_mid_frame_is_truncated() {
        let mut empty = Cursor::new(Vec::<u8>::new());
        assert_eq!(read_frame(&mut empty).unwrap_err(), WireError::Closed);
        let bytes = encode_request(1, &Request::Ping);
        for cut in 1..bytes.len() {
            let mut cur = Cursor::new(bytes[..cut].to_vec());
            assert_eq!(
                read_frame(&mut cur).unwrap_err(),
                WireError::Truncated,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn bad_magic_version_kind_oversize() {
        let good = encode_request(1, &Request::Ping);
        let mut bad = good.clone();
        bad[0] = 0xFF;
        assert!(matches!(
            read_frame(&mut Cursor::new(bad)).unwrap_err(),
            WireError::BadMagic(_)
        ));
        for v in [0, 1, 2, WIRE_VERSION + 1, 99] {
            let mut bad = good.clone();
            bad[2] = v;
            assert_eq!(
                read_frame(&mut Cursor::new(bad)).unwrap_err(),
                WireError::UnsupportedVersion(v)
            );
        }
        let mut bad = good.clone();
        bad[3] = 0x77;
        assert_eq!(
            read_frame(&mut Cursor::new(bad)).unwrap_err(),
            WireError::UnknownKind(0x77)
        );
        let mut bad = good;
        bad[12..16].copy_from_slice(&((MAX_PAYLOAD as u32) + 1).to_le_bytes());
        assert_eq!(
            read_frame(&mut Cursor::new(bad)).unwrap_err(),
            WireError::Oversized(MAX_PAYLOAD as u32 + 1)
        );
    }

    /// Payloads that do not fit their row — zero fanout, a fanout, batch
    /// or list count past what the payload holds (refused before
    /// anything is allocated for it), a fault that is not one whole
    /// fault, trailing bytes, a flag that is not 0 or 1 — are typed
    /// errors naming the row's layout, never a panic.
    #[test]
    fn malformed_payloads_are_wire_errors_without_allocation() {
        let endpoint_then = |n: u32| {
            let mut p = Vec::new();
            put_endpoint(&mut p, Endpoint::new(0, 0));
            put_u32(&mut p, n);
            p
        };
        let mut link = Vec::new();
        put_fault(
            &mut link,
            Fault::InputLink {
                module: 1,
                middle: 2,
            },
        );
        assert!(decode_request(&frame(Kind::Inject, link.clone())).is_ok());
        let mut unknown_tag = link.clone();
        unknown_tag[0] = 7;
        let mut trailing = endpoint_then(0);
        trailing.truncate(10);
        let snapshot = encode_response(1, &Response::Snapshot(metrics_from_seed(3)));
        let mut huge_list = snapshot[HEADER_LEN..].to_vec();
        huge_list[29 * 8..29 * 8 + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        for bad in [
            frame(Kind::Connect, endpoint_then(0)),
            frame(Kind::Connect, endpoint_then(u32::MAX)),
            frame(Kind::BatchConnect, u32::MAX.to_le_bytes().to_vec()),
            frame(Kind::Inject, unknown_tag),
            frame(Kind::Inject, link[..5].to_vec()),
            frame(Kind::Repair, [&link[..], &[0]].concat()),
            frame(Kind::Repair, vec![]),
            frame(Kind::Disconnect, trailing),
            frame(Kind::SnapshotData, huge_list),
            frame(Kind::Repaired, vec![2]),
        ] {
            let err = match row_of(bad.kind).unwrap().dir {
                Dir::Request => decode_request(&bad).err(),
                Dir::Response => decode_response(&bad).err(),
            };
            let layout = row_of(bad.kind).unwrap().payload;
            assert!(
                matches!(&err, Some(WireError::Malformed(m)) if m.contains(layout)),
                "{bad:?}: {err:?}"
            );
        }
    }

    proptest! {
        /// Every request survives encode → decode bit-exactly.
        #[test]
        fn prop_request_roundtrip(i in 0usize..8, x in any::<u64>()) {
            let bytes = frame_of(i, x);
            let (id, req) = read_request(&mut Cursor::new(&bytes)).expect("roundtrip");
            prop_assert_eq!(id, x);
            prop_assert_eq!(encode_request(id, &req), bytes);
        }

        /// Every response survives encode → decode bit-exactly, the
        /// snapshot's floats (NaNs included) too.
        #[test]
        fn prop_response_roundtrip(i in 8usize..17, x in any::<u64>()) {
            let bytes = frame_of(i, x);
            let (id, resp) = read_response(&mut Cursor::new(&bytes)).expect("roundtrip");
            prop_assert_eq!(id, x);
            prop_assert_eq!(encode_response(id, &resp), bytes);
        }

        /// Truncating a frame of any kind at any point yields a clean
        /// protocol error, never a panic.
        #[test]
        fn prop_truncation_never_panics(i in 0usize..17, x in any::<u64>(), cut in 0usize..512) {
            let bytes = frame_of(i, x);
            let cut = cut.min(bytes.len() - 1);
            prop_assert!(read_frame(&mut Cursor::new(&bytes[..cut])).is_err());
        }

        /// Flipping any single byte of a frame of any kind either still
        /// decodes (payload bytes that stay structurally valid) or fails
        /// with a typed error — it never panics.
        #[test]
        fn prop_corruption_never_panics(
            i in 0usize..17,
            x in any::<u64>(),
            pos in 0usize..512,
            xor in 1u8..=255,
        ) {
            let mut bytes = frame_of(i, x);
            let pos = pos.min(bytes.len() - 1);
            bytes[pos] ^= xor;
            if let Ok(frame) = read_frame(&mut Cursor::new(bytes)) {
                let _ = reencode(&frame);
            }
        }
    }
}
