//! Per-connection state of the serving core: incremental frame assembly
//! on the read side, a write queue engine callbacks append to from any
//! thread, and the wake plumbing that tells the driver.
//!
//! Reads arrive in arbitrary chunks, so the [`FrameAssembler`] buffers
//! bytes and runs the codec's header check as soon as a header is
//! buffered — a malformed header is rejected before its payload ever
//! arrives, with the [`WireError`]s `read_frame` produces.

use crate::codec::{check_header, decode_request_parts, RawFrame, Row, WireError, HEADER_LEN};
use crate::protocol::{Request, Response, WIRE_VERSION};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Reassembles length-prefixed frames from arbitrary read chunks.
///
/// Bytes accumulate in an internal buffer; [`FrameAssembler::next_frame`]
/// yields complete frames one at a time and surfaces header violations
/// immediately (before the payload arrives). The buffer compacts lazily
/// so per-frame cost stays amortized O(frame size).
#[derive(Default)]
pub(crate) struct FrameAssembler {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted once it outgrows the tail).
    pos: usize,
}

impl FrameAssembler {
    /// A fresh, empty assembler.
    pub(crate) fn new() -> Self {
        FrameAssembler::default()
    }

    /// Append a chunk read off the wire.
    pub(crate) fn extend(&mut self, chunk: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(chunk);
    }

    /// Bytes buffered but not yet consumed.
    #[cfg(test)]
    fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn compact(&mut self) {
        // Compact when the dead prefix dominates, so extend() appends
        // into mostly-live storage without copying on every frame.
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos >= 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    /// Pull the next complete frame out of the buffer.
    ///
    /// `Ok(Some(frame))` — a full frame was consumed; call again, more
    /// may be buffered. `Ok(None)` — the buffer holds only a partial
    /// frame (or nothing). `Err` — the byte stream is not a valid frame
    /// sequence; the connection is desynchronized beyond recovery.
    pub(crate) fn next_frame(&mut self) -> Result<Option<RawFrame>, WireError> {
        self.next_with(|row, id, payload| RawFrame {
            version: WIRE_VERSION,
            kind: row.kind as u8,
            id,
            payload: payload.to_vec(),
        })
    }

    /// [`Self::next_frame`] parsed as a request where it lies in the
    /// buffer, without copying the payload out. Yields exactly what
    /// `decode_request` makes of `next_frame`'s frame.
    pub(crate) fn next_request(&mut self) -> Result<Option<DecodedRequest>, WireError> {
        self.next_with(|row, id, payload| (id, decode_request_parts(row, payload)))
    }

    /// Consume the next complete frame, handing `f` its kind row, id and
    /// payload in place.
    fn next_with<T>(
        &mut self,
        f: impl FnOnce(&'static Row, u64, &[u8]) -> T,
    ) -> Result<Option<T>, WireError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < HEADER_LEN {
            return Ok(None);
        }
        let (row, id, len) = check_header(avail)?;
        let total = HEADER_LEN + len;
        if avail.len() < total {
            return Ok(None);
        }
        let out = f(row, id, &avail[HEADER_LEN..total]);
        self.pos += total;
        self.compact();
        Ok(Some(out))
    }
}

/// A request frame decoded in place: its id, and the request or why its
/// payload did not parse (the stream itself stays in sync).
pub(crate) type DecodedRequest = (u64, Result<Request, WireError>);

/// The wakeup channel from engine-shard callbacks back to the driver:
/// tokens queue here and the driver's wake callback runs (an eventfd
/// write under epoll). Push-then-wake ordering means a token is visible
/// by the time the wakeup is observed — no lost completions.
pub(crate) struct WakeQueue {
    state: Mutex<WakeState>,
    wake: Box<dyn Fn() + Send + Sync>,
}

#[derive(Default)]
struct WakeState {
    tokens: Vec<u64>,
    /// The core's own flush is running: its driver takes the tokens
    /// right after, so waking it would only cost syscalls.
    quiet: bool,
}

impl WakeQueue {
    pub(crate) fn new(wake: impl Fn() + Send + Sync + 'static) -> Self {
        WakeQueue {
            state: Mutex::new(WakeState::default()),
            wake: Box::new(wake),
        }
    }

    /// Queue `token` for write service and wake the driver — only on the
    /// empty→non-empty transition (under the lock [`WakeQueue::take`]
    /// shares), so a burst of completions costs one wakeup, not one
    /// each, and not at all while [`WakeQueue::quiet`] runs.
    pub(crate) fn notify(&self, token: u64) {
        let mut state = self.state.lock();
        state.tokens.push(token);
        if state.tokens.len() == 1 && !state.quiet {
            drop(state);
            (self.wake)();
        }
    }

    /// Run `f`, the core's flush, without waking the driver, which calls
    /// [`WakeQueue::take`] right after: a completion from another thread
    /// landing meanwhile is queued like any other and returned by it.
    pub(crate) fn quiet(&self, f: impl FnOnce()) {
        self.state.lock().quiet = true;
        f();
        self.state.lock().quiet = false;
    }

    /// Drain all queued tokens; a driver resets its wakeup first.
    pub(crate) fn take(&self) -> Vec<u64> {
        std::mem::take(&mut self.state.lock().tokens)
    }
}

/// Connection state engine callbacks hold, from any thread.
pub(crate) struct ConnShared {
    token: u64,
    /// Encoded-but-unsent response bytes.
    out: Mutex<Vec<u8>>,
    /// `out.len()`, stored under the `out` lock after every change, so
    /// the per-frame output-cap check reads it without the lock. Relaxed:
    /// it publishes no other data (the bytes are read under the lock).
    queued: AtomicUsize,
    /// Tracked requests currently inside the engine for this peer.
    pub(crate) inflight: AtomicUsize,
    /// Set once the connection was torn down; late callbacks drop their
    /// responses instead of growing a dead buffer.
    closed: AtomicBool,
    wake: Arc<WakeQueue>,
}

impl ConnShared {
    pub(crate) fn new(token: u64, wake: Arc<WakeQueue>) -> Arc<Self> {
        Arc::new(ConnShared {
            token,
            out: Mutex::new(Vec::new()),
            queued: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            wake,
        })
    }

    /// Encode `resp` straight onto the output queue, from any thread.
    /// Only an empty queue asks for a wakeup: a non-empty one is already
    /// owed a write, through the wake list or, after a short write, the
    /// driver's writable interest.
    pub(crate) fn respond(&self, id: u64, resp: &Response) {
        if self.closed.load(Ordering::Acquire) {
            return;
        }
        let mut out = self.out.lock();
        let was_empty = out.is_empty();
        crate::codec::encode_response_into(&mut out, id, resp);
        self.queued.store(out.len(), Ordering::Relaxed);
        drop(out);
        if was_empty {
            self.wake.notify(self.token);
        }
    }

    /// Mark the connection dead; subsequent [`ConnShared::respond`]
    /// calls become no-ops.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Release);
        let mut out = self.out.lock();
        out.clear();
        self.queued.store(0, Ordering::Relaxed);
    }

    /// Move all queued bytes out for writing.
    pub(crate) fn take_pending(&self) -> Option<Vec<u8>> {
        let mut out = self.out.lock();
        if out.is_empty() {
            return None;
        }
        self.queued.store(0, Ordering::Relaxed);
        Some(std::mem::take(&mut *out))
    }

    /// Re-queue the unwritten tail ahead of anything queued since.
    pub(crate) fn requeue_front(&self, tail: Vec<u8>) {
        let mut out = self.out.lock();
        if out.is_empty() {
            *out = tail;
        } else {
            let mut merged = tail;
            merged.extend_from_slice(&out);
            *out = merged;
        }
        self.queued.store(out.len(), Ordering::Relaxed);
    }

    /// Bytes awaiting flushing.
    pub(crate) fn queued(&self) -> usize {
        self.queued.load(Ordering::Relaxed)
    }
}

/// The serving core's view of one connection (not its socket).
pub(crate) struct Connection {
    pub(crate) assembler: FrameAssembler,
    pub(crate) shared: Arc<ConnShared>,
    /// Set after a protocol error: flush what is queued, then drop.
    pub(crate) closing: bool,
    /// Peer gone (EOF or a failed write); teardown once in-flight work
    /// resolves.
    pub(crate) eof: bool,
}

impl Connection {
    /// Answer an unreadable frame with a `ProtocolError`, then close.
    pub(crate) fn refuse(&mut self, id: u64, e: &WireError) {
        let message = e.to_string();
        self.shared
            .respond(id, &Response::ProtocolError { message });
        self.closing = true;
    }

    /// True when the connection can be torn down: it is closing or the
    /// peer is gone, nothing is queued to write, and no tracked request
    /// still holds a callback that would write here.
    pub(crate) fn ready_to_drop(&self) -> bool {
        (self.closing || self.eof)
            && self.shared.queued() == 0
            && self.shared.inflight.load(Ordering::Acquire) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_request, encode_request, KINDS, MAGIC, MAX_PAYLOAD};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};
    use wdm_core::{Endpoint, Fault, MulticastConnection};

    fn ping_bytes(id: u64) -> Vec<u8> {
        encode_request(id, &Request::Ping)
    }

    #[test]
    fn assembles_frames_fed_byte_by_byte() {
        let bytes = ping_bytes(42);
        let mut asm = FrameAssembler::new();
        for (i, b) in bytes.iter().enumerate() {
            asm.extend(&[*b]);
            let got = asm.next_frame().expect("valid stream");
            if i + 1 < bytes.len() {
                assert!(got.is_none(), "no frame before byte {}", i + 1);
            } else {
                let frame = got.expect("complete at the last byte");
                assert_eq!(frame.id, 42);
            }
        }
        assert_eq!(asm.pending(), 0);
    }

    #[test]
    fn splits_coalesced_frames_and_keeps_partial_tail() {
        let mut chunk = ping_bytes(1);
        chunk.extend_from_slice(&ping_bytes(2));
        let third = ping_bytes(3);
        chunk.extend_from_slice(&third[..5]);
        let mut asm = FrameAssembler::new();
        asm.extend(&chunk);
        assert_eq!(asm.next_frame().unwrap().unwrap().id, 1);
        assert_eq!(asm.next_frame().unwrap().unwrap().id, 2);
        assert!(asm.next_frame().unwrap().is_none());
        asm.extend(&third[5..]);
        assert_eq!(asm.next_frame().unwrap().unwrap().id, 3);
    }

    #[test]
    fn header_violations_surface_before_payload() {
        // Bad magic.
        let mut asm = FrameAssembler::new();
        let mut bytes = ping_bytes(1);
        bytes[0] = 0xFF;
        asm.extend(&bytes[..HEADER_LEN]);
        assert!(matches!(asm.next_frame(), Err(WireError::BadMagic(_))));
        // Unsupported version.
        let mut asm = FrameAssembler::new();
        let mut bytes = ping_bytes(1);
        bytes[2] = 77;
        asm.extend(&bytes);
        assert!(matches!(
            asm.next_frame(),
            Err(WireError::UnsupportedVersion(77))
        ));
        // Unknown kind.
        let mut asm = FrameAssembler::new();
        let mut bytes = ping_bytes(1);
        bytes[3] = 0x55;
        asm.extend(&bytes);
        assert!(matches!(
            asm.next_frame(),
            Err(WireError::UnknownKind(0x55))
        ));
        // Oversized payload: rejected from the header alone, with no
        // payload bytes buffered at all.
        let mut asm = FrameAssembler::new();
        let mut bytes = ping_bytes(1);
        bytes[12..16].copy_from_slice(&((MAX_PAYLOAD as u32) + 1).to_le_bytes());
        asm.extend(&bytes[..HEADER_LEN]);
        assert!(matches!(asm.next_frame(), Err(WireError::Oversized(_))));
    }

    #[test]
    fn compaction_preserves_stream_position() {
        let mut asm = FrameAssembler::new();
        // Push enough frames to trigger the 4096-byte compaction
        // threshold several times over.
        for round in 0u64..2000 {
            asm.extend(&ping_bytes(round));
            let frame = asm.next_frame().unwrap().expect("one in, one out");
            assert_eq!(frame.id, round);
        }
        assert_eq!(asm.pending(), 0);
    }

    #[test]
    fn write_queue_roundtrip_and_requeue_order() {
        let wake = Arc::new(WakeQueue::new(|| {}));
        let shared = ConnShared::new(9, Arc::clone(&wake));
        shared.respond(1, &Response::Pong);
        shared.respond(2, &Response::Ok);
        // One token per empty→non-empty transition, not per response.
        assert_eq!(wake.take(), vec![9]);
        let pending = shared.take_pending().expect("two responses queued");
        // Simulate a short write of 3 bytes: requeue the tail, then a
        // third response lands behind it. The tail is owed a write
        // already, so the third response queues no token.
        shared.requeue_front(pending[3..].to_vec());
        shared.respond(3, &Response::Pong);
        assert!(wake.take().is_empty());
        let rest = shared.take_pending().expect("tail + third");
        let mut full = pending[..3].to_vec();
        full.extend_from_slice(&rest);
        // The reassembled stream parses as the three frames in order.
        let mut asm = FrameAssembler::new();
        asm.extend(&full);
        let mut ids = Vec::new();
        while let Some(frame) = asm.next_frame().unwrap() {
            ids.push(frame.id);
        }
        assert_eq!(ids, vec![1, 2, 3]);
        // After close, responds are dropped.
        shared.close();
        shared.respond(4, &Response::Pong);
        assert!(shared.take_pending().is_none());
    }

    #[test]
    fn completions_during_the_flush_wake_nothing_and_are_taken() {
        let wakes = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&wakes);
        let queue = Arc::new(WakeQueue::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        }));
        queue.quiet(|| {
            // A retry-thread completion lands on an empty queue mid-flush,
            // then the flush's own inline verdict.
            let retry = Arc::clone(&queue);
            std::thread::spawn(move || retry.notify(2))
                .join()
                .expect("retry thread");
            queue.notify(1);
        });
        assert_eq!(wakes.load(Ordering::SeqCst), 0, "a flush costs no wakeup");
        assert_eq!(queue.take(), vec![2, 1], "the cycle's take returns both");
        // Outside a flush a completion wakes the driver, once per
        // empty→non-empty transition.
        queue.notify(3);
        queue.notify(4);
        assert_eq!(wakes.load(Ordering::SeqCst), 1);
        assert_eq!(queue.take(), vec![3, 4]);
    }

    /// One frame of a random stream: a legal request of any kind in the
    /// table, a well-framed payload that does not parse as its request
    /// kind, or (rarely) a header that desynchronizes the stream — bad
    /// magic, an unknown kind, or a retired or future version.
    fn random_frame(rng: &mut StdRng) -> Vec<u8> {
        let id = rng.gen::<u64>();
        let conn = |rng: &mut StdRng| {
            let src = rng.gen_range(0..64u32);
            let fanout = rng.gen_range(1..5u32);
            let dests = (1..=fanout).map(|i| Endpoint::new(src + i, 0));
            MulticastConnection::new(Endpoint::new(src, 0), dests).expect("distinct ports")
        };
        let raw = |version: u8, kind: u8, payload: &[u8]| {
            let mut f = MAGIC.to_vec();
            f.extend_from_slice(&[version, kind]);
            f.extend_from_slice(&id.to_le_bytes());
            f.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            f.extend_from_slice(payload);
            f
        };
        let fault = Fault::MiddleLink {
            middle: rng.gen_range(0..8),
            module: rng.gen_range(0..8),
        };
        match rng.gen_range(0..44) {
            0..=9 => encode_request(id, &Request::Connect(conn(rng))),
            10..=14 => {
                let batch = vec![conn(rng), conn(rng)];
                encode_request(id, &Request::BatchConnect(batch))
            }
            15..=19 => encode_request(id, &Request::Disconnect(Endpoint::new(3, 1))),
            20..=22 => encode_request(id, &Request::Ping),
            23..=24 => encode_request(id, &Request::Snapshot),
            25 => encode_request(id, &Request::Drain),
            26 => encode_request(id, &Request::Inject(fault)),
            27 => encode_request(id, &Request::Repair(fault)),
            // Random payload bytes under a kind of the table: short,
            // trailing or invalid request payloads, or a response kind
            // where a request belongs.
            28..=38 => {
                let mut payload = vec![0u8; rng.gen_range(0..40)];
                rng.fill_bytes(&mut payload);
                let kind = KINDS[rng.gen_range(0..KINDS.len())].kind as u8;
                raw(WIRE_VERSION, kind, &payload)
            }
            39 => raw(WIRE_VERSION, 0x77, &[]),
            40 => raw(
                [1, 2, WIRE_VERSION + 1][rng.gen_range(0..3usize)],
                0x05,
                &[],
            ),
            _ => {
                let mut f = encode_request(id, &Request::Ping);
                f[0] = 0;
                f
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The lock-free queued count mirrors `out.len()` after every
        /// write-queue operation, short-write requeues and close included.
        #[test]
        fn prop_queued_count_mirrors_the_output_queue(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let shared = ConnShared::new(1, Arc::new(WakeQueue::new(|| {})));
            let mut taken: Vec<u8> = Vec::new();
            for id in 0..rng.gen_range(1..64u64) {
                match rng.gen_range(0..40) {
                    0..=19 => shared.respond(id, &Response::Pong),
                    20..=27 => taken = shared.take_pending().unwrap_or_default(),
                    28..=38 => {
                        let cut = rng.gen_range(0..=taken.len());
                        shared.requeue_front(taken.split_off(cut));
                    }
                    _ => shared.close(),
                }
                prop_assert_eq!(shared.queued(), shared.out.lock().len());
            }
        }

        /// Decoding a request in place yields exactly what copying the
        /// frame out and decoding it does — every request, every payload
        /// error, every stream error, at the same stream position —
        /// however the stream is cut into reads.
        #[test]
        fn prop_in_place_decode_matches_copying_decode(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut stream = Vec::new();
            for _ in 0..rng.gen_range(1..24) {
                stream.extend(random_frame(&mut rng));
            }
            let mut copying = FrameAssembler::new();
            let mut in_place = FrameAssembler::new();
            let mut rest = &stream[..];
            'stream: while !rest.is_empty() {
                let (chunk, tail) = rest.split_at(rng.gen_range(1..=rest.len().min(48)));
                rest = tail;
                copying.extend(chunk);
                in_place.extend(chunk);
                loop {
                    let want = copying
                        .next_frame()
                        .map(|f| f.map(|f| (f.id, decode_request(&f))));
                    let got = in_place.next_request();
                    prop_assert_eq!(&got, &want);
                    prop_assert_eq!(in_place.pending(), copying.pending());
                    match want {
                        Ok(Some(_)) => {}
                        Ok(None) => break,
                        Err(_) => break 'stream,
                    }
                }
            }
        }
    }
}
