//! Length-prefix framing for the socket transport.
//!
//! A TCP stream is a byte pipe with no message boundaries; this module
//! restores them with the simplest possible discipline: every frame is
//! a little-endian `u32` payload length followed by exactly that many
//! payload bytes. The payload is an already-serialized
//! [`crate::protocol`] message — framing wraps the existing wire
//! format, it never re-encodes it, which is what makes the
//! byte-equivalence proof in `tests/net_transport.rs` possible: the
//! bytes inside a frame are the bytes `Server::handle` consumes and
//! produces in-process, verbatim.
//!
//! Security posture: the frame header is public metadata the adversary
//! (who *is* the server) already has — it equals the length of the
//! message she receives either way, so framing adds zero leakage on
//! top of the protocol bytes. Defensively, readers enforce a maximum
//! frame size ([`MAX_FRAME`]) so a hostile or corrupt peer claiming a
//! multi-gigabyte frame cannot drive an allocation bomb, and every
//! read/write loops over short transfers — `TcpStream` is free to
//! return one byte at a time and the codec must not care (the props in
//! `tests/props.rs` feed it exactly such adversarial chunking).
//!
//! All functions are generic over [`Read`]/[`Write`] so the tests can
//! exercise them on in-memory cursors and deliberately misbehaving
//! streams; the transport in [`crate::net`] instantiates them with
//! `std::net::TcpStream`.

use std::io::{ErrorKind, IoSlice, Read, Write};

use crate::error::PhError;

/// Defensive ceiling on a single frame's payload (64 MiB). Large
/// enough for any table ciphertext the experiments ship (a
/// 100k-row employee table is ~40 MiB); small enough that a hostile
/// length prefix cannot request an absurd allocation.
pub const MAX_FRAME: usize = 64 << 20;

/// Bytes of the length prefix.
const PREFIX: usize = 4;

/// Writes one frame (`u32` LE length + payload), looping over short
/// writes until every byte is on the stream.
///
/// # Errors
/// [`PhError::Transport`] when the payload exceeds [`MAX_FRAME`] or
/// the underlying writer fails (including writing zero bytes, which a
/// closed socket reports as success-with-no-progress).
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), PhError> {
    write_frame_capped(w, payload, MAX_FRAME)
}

/// [`write_frame`] with an explicit size cap (tests shrink the cap to
/// keep oversize cases cheap; production code uses [`MAX_FRAME`]).
///
/// # Errors
/// As [`write_frame`].
pub fn write_frame_capped<W: Write>(w: &mut W, payload: &[u8], cap: usize) -> Result<(), PhError> {
    if payload.len() > cap {
        return Err(PhError::Transport(format!(
            "refusing to send {}-byte frame (cap {cap})",
            payload.len()
        )));
    }
    let len = u32::try_from(payload.len()).map_err(|_| {
        PhError::Transport(format!("frame of {} bytes overflows u32", payload.len()))
    })?;
    write_all_parts(w, &len.to_le_bytes(), payload)
        .and_then(|()| w.flush())
        .map_err(|e| PhError::Transport(format!("write failed: {e}")))
}

/// Writes `head` then `tail` with vectored writes, so a socket sends
/// a frame as one segment under `TCP_NODELAY` rather than a header
/// segment and a payload segment. Loops over short writes, retries
/// `Interrupted`, and reports zero progress as `WriteZero`, as
/// `Write::write_all` does.
fn write_all_parts<W: Write>(w: &mut W, head: &[u8], tail: &[u8]) -> std::io::Result<()> {
    let total = head.len() + tail.len();
    let mut written = 0;
    while written < total {
        let result = match head.get(written..) {
            Some(rest) if !rest.is_empty() => {
                w.write_vectored(&[IoSlice::new(rest), IoSlice::new(tail)])
            }
            _ => w.write(&tail[written - head.len()..]),
        };
        match result {
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::WriteZero,
                    "failed to write whole buffer",
                ))
            }
            Ok(n) => written += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads one frame. Returns `Ok(None)` on a **clean** end of stream
/// (EOF exactly on a frame boundary — how a peer hangs up politely)
/// and an error when the stream dies mid-frame: truncation is a
/// protocol violation, not a shutdown, and the two must stay
/// distinguishable or a dropped connection could silently pass for a
/// completed session.
///
/// # Errors
/// [`PhError::Transport`] on mid-frame EOF, I/O failure, or a length
/// prefix exceeding [`MAX_FRAME`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, PhError> {
    read_frame_capped(r, MAX_FRAME)
}

/// [`read_frame`] with an explicit size cap.
///
/// # Errors
/// As [`read_frame`].
pub fn read_frame_capped<R: Read>(r: &mut R, cap: usize) -> Result<Option<Vec<u8>>, PhError> {
    let mut prefix = [0u8; PREFIX];
    match read_exact_or_eof(r, &mut prefix)? {
        Filled::Eof => return Ok(None),
        Filled::Partial(got) => {
            return Err(PhError::Transport(format!(
                "stream truncated inside frame header ({got}/{PREFIX} bytes)"
            )))
        }
        Filled::Complete => {}
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > cap {
        return Err(PhError::Transport(format!(
            "peer announced {len}-byte frame (cap {cap})"
        )));
    }
    let mut payload = vec![0u8; len];
    match read_exact_or_eof(r, &mut payload)? {
        Filled::Complete => Ok(Some(payload)),
        // EOF after a complete header is truncation either way: the
        // peer promised `len` payload bytes and delivered fewer.
        Filled::Eof | Filled::Partial(_) => Err(PhError::Transport(format!(
            "stream truncated inside {len}-byte frame payload"
        ))),
    }
}

/// How far a best-effort exact read got before the stream ended.
enum Filled {
    /// The buffer was filled completely.
    Complete,
    /// EOF before the first byte.
    Eof,
    /// EOF after `0 < n < buf.len()` bytes.
    Partial(usize),
}

/// Fills `buf`, looping over arbitrarily short reads, and reports
/// *where* EOF struck instead of flattening it into one error — the
/// caller needs "EOF on a boundary" and "EOF mid-frame" to be
/// different outcomes.
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<Filled, PhError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(match filled {
                    0 => Filled::Eof,
                    n => Filled::Partial(n),
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(PhError::Transport(format!("read failed: {e}"))),
        }
    }
    Ok(Filled::Complete)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_roundtrip_back_to_back() {
        let payloads: Vec<Vec<u8>> = vec![vec![], vec![7], vec![1, 2, 3], vec![0xAB; 1000]];
        let mut pipe = Vec::new();
        for p in &payloads {
            write_frame(&mut pipe, p).unwrap();
        }
        let mut r = Cursor::new(pipe);
        for p in &payloads {
            assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(p.as_slice()));
        }
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn empty_stream_is_clean_eof() {
        let mut r = Cursor::new(Vec::new());
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn truncated_header_is_an_error() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, b"hello").unwrap();
        for cut in 1..PREFIX {
            let mut r = Cursor::new(bytes[..cut].to_vec());
            assert!(matches!(read_frame(&mut r), Err(PhError::Transport(_))));
        }
    }

    #[test]
    fn truncated_payload_is_an_error() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, b"hello").unwrap();
        for cut in PREFIX..bytes.len() {
            let mut r = Cursor::new(bytes[..cut].to_vec());
            assert!(matches!(read_frame(&mut r), Err(PhError::Transport(_))));
        }
    }

    #[test]
    fn oversized_announcement_rejected_without_allocating() {
        // Header claims u32::MAX bytes; the reader must refuse before
        // touching the (absent) payload.
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 16]);
        let mut r = Cursor::new(bytes);
        assert!(matches!(read_frame(&mut r), Err(PhError::Transport(_))));
    }

    #[test]
    fn oversized_send_rejected() {
        let mut sink = Vec::new();
        let err = write_frame_capped(&mut sink, &[0u8; 100], 99);
        assert!(matches!(err, Err(PhError::Transport(_))));
        assert!(sink.is_empty(), "nothing may hit the wire");
    }

    /// Accepts one byte per call and fails every third call with
    /// `Interrupted`; or, once `budget` bytes are in, accepts nothing.
    struct Trickle {
        out: Vec<u8>,
        calls: usize,
        budget: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(3) {
                return Err(ErrorKind::Interrupted.into());
            }
            if self.out.len() >= self.budget {
                return Ok(0);
            }
            self.out.extend_from_slice(&buf[..buf.len().min(1)]);
            Ok(buf.len().min(1))
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_and_interrupted_writes_produce_the_same_bytes() {
        for payload in [vec![], vec![7], vec![1, 2, 3, 4, 5], vec![0xAB; 300]] {
            let mut expected = (payload.len() as u32).to_le_bytes().to_vec();
            expected.extend_from_slice(&payload);
            let mut whole = Vec::new();
            write_frame(&mut whole, &payload).unwrap();
            assert_eq!(whole, expected);

            let mut trickle = Trickle {
                out: Vec::new(),
                calls: 0,
                budget: usize::MAX,
            };
            write_frame(&mut trickle, &payload).unwrap();
            assert_eq!(trickle.out, expected);
        }
    }

    #[test]
    fn zero_progress_is_write_zero() {
        for budget in [0, 2, 4, 6] {
            let mut stalled = Trickle {
                out: Vec::new(),
                calls: 0,
                budget,
            };
            let err = write_frame(&mut stalled, &[5u8; 8]).unwrap_err();
            assert!(
                matches!(&err, PhError::Transport(m) if m.contains("failed to write whole buffer")),
                "{err:?}"
            );
            assert_eq!(stalled.out.len(), budget);
        }
    }

    #[test]
    fn cap_is_inclusive() {
        let mut pipe = Vec::new();
        write_frame_capped(&mut pipe, &[9u8; 8], 8).unwrap();
        let mut r = Cursor::new(pipe);
        assert_eq!(read_frame_capped(&mut r, 8).unwrap(), Some(vec![9u8; 8]));
    }
}
