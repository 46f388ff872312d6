//! Client-side frame splitting from the public header layout.
//!
//! `wdm_net`'s own `FrameAssembler` is `pub(crate)`, so the generator
//! cuts the response byte stream itself using only what the codec
//! documents and exports: a [`HEADER_LEN`]-byte header starting with
//! [`MAGIC`], version at byte 2, kind at byte 3, request id at bytes
//! 4..12 and payload length at bytes 12..16 (little-endian), bounded by
//! [`MAX_PAYLOAD`]. Kind-specific parsing stays with
//! `codec::decode_response`.

use wdm_net::{RawFrame, HEADER_LEN, MAGIC, MAX_PAYLOAD};

/// Bytes consumed before the buffer is compacted.
const COMPACT_AT: usize = 64 * 1024;

/// Incremental splitter over one connection's inbound bytes.
#[derive(Default)]
pub struct FrameSplitter {
    buf: Vec<u8>,
    /// Offset of the first unconsumed byte.
    start: usize,
}

impl FrameSplitter {
    /// Append bytes just read from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.start >= COMPACT_AT {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete frame, `Ok(None)` when more bytes are needed,
    /// or an error when the stream is not a frame stream (the run is
    /// then incorrect; there is no resynchronising).
    pub fn next_frame(&mut self) -> Result<Option<RawFrame>, String> {
        let avail = &self.buf[self.start..];
        if avail.len() < HEADER_LEN {
            return Ok(None);
        }
        if avail[..2] != MAGIC {
            return Err(format!("bad magic {:02x?}", &avail[..2]));
        }
        let len = u32::from_le_bytes(avail[12..16].try_into().expect("4 bytes")) as usize;
        if len > MAX_PAYLOAD {
            return Err(format!("payload of {len} bytes exceeds the cap"));
        }
        if avail.len() < HEADER_LEN + len {
            return Ok(None);
        }
        let frame = RawFrame {
            version: avail[2],
            kind: avail[3],
            id: u64::from_le_bytes(avail[4..12].try_into().expect("8 bytes")),
            payload: avail[HEADER_LEN..HEADER_LEN + len].to_vec(),
        };
        self.start += HEADER_LEN + len;
        Ok(Some(frame))
    }
}

/// Overwrite the request id of an already encoded frame (bytes 4..12),
/// so the generator encodes each slot's two requests once and re-stamps
/// them per send.
pub fn set_frame_id(frame: &mut [u8], id: u64) {
    frame[4..12].copy_from_slice(&id.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdm_core::{Endpoint, MulticastConnection};
    use wdm_net::codec::{decode_request, decode_response, encode_request, encode_response};
    use wdm_net::{RejectReason, Request, Response};

    fn sample_responses() -> Vec<(u64, Response)> {
        vec![
            (1, Response::Ok),
            (
                u64::MAX - 1,
                Response::Rejected {
                    reason: RejectReason::Blocked,
                    detail: "middle stage exhausted".into(),
                },
            ),
            (7 << 32 | 3, Response::Pong),
            (
                9,
                Response::Batch(vec![
                    Response::Ok,
                    Response::Rejected {
                        reason: RejectReason::Busy,
                        detail: String::new(),
                    },
                ]),
            ),
            (10, Response::Ok),
        ]
    }

    #[test]
    fn round_trips_encode_response_split_at_every_byte_boundary() {
        let expected = sample_responses();
        let stream: Vec<u8> = expected
            .iter()
            .flat_map(|(id, r)| encode_response(*id, r))
            .collect();
        for cut in 0..=stream.len() {
            let mut splitter = FrameSplitter::default();
            let mut got = Vec::new();
            for part in [&stream[..cut], &stream[cut..]] {
                splitter.extend(part);
                while let Some(frame) = splitter.next_frame().unwrap() {
                    got.push((frame.id, decode_response(&frame).unwrap()));
                }
            }
            assert_eq!(got, expected, "cut at byte {cut}");
        }
    }

    #[test]
    fn byte_at_a_time_and_compaction() {
        let frame = encode_response(5, &Response::Ok);
        let mut splitter = FrameSplitter::default();
        let mut seen = 0u64;
        // Enough frames to cross the compaction threshold several times.
        for _ in 0..(4 * COMPACT_AT / frame.len()) {
            for b in &frame {
                splitter.extend(std::slice::from_ref(b));
                if let Some(f) = splitter.next_frame().unwrap() {
                    assert_eq!((f.id, decode_response(&f).unwrap()), (5, Response::Ok));
                    seen += 1;
                }
            }
        }
        assert_eq!(seen, (4 * COMPACT_AT / frame.len()) as u64);
        assert!(splitter.buf.len() < 2 * COMPACT_AT);
    }

    #[test]
    fn garbage_is_an_error_not_a_panic() {
        let mut splitter = FrameSplitter::default();
        splitter.extend(&[0u8; HEADER_LEN]);
        assert!(splitter.next_frame().is_err());
        let mut oversized = encode_response(1, &Response::Ok);
        oversized[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut splitter = FrameSplitter::default();
        splitter.extend(&oversized);
        assert!(splitter.next_frame().is_err());
    }

    #[test]
    fn restamped_request_frames_decode_with_the_new_id() {
        let conn = MulticastConnection::unicast(Endpoint::new(3, 1), Endpoint::new(9, 1));
        let req = Request::Connect(conn);
        let mut bytes = encode_request(0, &req);
        set_frame_id(&mut bytes, 0xDEAD_BEEF_0000_0007);
        let mut splitter = FrameSplitter::default();
        splitter.extend(&bytes);
        let frame = splitter.next_frame().unwrap().unwrap();
        assert_eq!(frame.id, 0xDEAD_BEEF_0000_0007);
        assert_eq!(decode_request(&frame).unwrap(), req);
    }
}
