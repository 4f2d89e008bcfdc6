//! The one syscall the standard library does not expose: `listen(2)`
//! with a chosen backlog.
//!
//! `TcpListener::bind` hardcodes a backlog of 128; [`crate::net`]
//! re-listens with a deeper one. `listen` lives in libc, which std
//! already links — so a raw `extern "C"` declaration here costs no
//! registry dependency and leaves the offline shim crates untouched.
//!
//! This is the only module in the crate allowed to use `unsafe`
//! (`lib.rs` holds the rest at `deny(unsafe_code)`); the one block
//! below passes only plain integers to the kernel.
#![allow(unsafe_code)]

use std::io;
use std::os::unix::io::RawFd;

extern "C" {
    fn listen(fd: RawFd, backlog: i32) -> i32;
}

/// Deepens the accept backlog of an already-listening socket by
/// calling `listen(2)` again — POSIX allows re-listening, and Linux
/// updates the queue depth in place (silently clamped to
/// `net.core.somaxconn`). The standard library offers no way to pick
/// a backlog (`TcpListener::bind` hardcodes 128), which a
/// connect storm of hundreds of sessions overflows: with syncookies the
/// overflow surfaces as connection *resets* on clients that already
/// sent data, not polite queueing.
///
/// # Errors
/// Any `listen(2)` failure (e.g. `EBADF`, or a socket that was never
/// listening).
pub fn deepen_backlog(fd: RawFd, backlog: i32) -> io::Result<()> {
    if unsafe { listen(fd, backlog) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd as _;

    #[test]
    fn deepen_backlog_accepts_a_listening_socket_and_rejects_a_dead_fd() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        deepen_backlog(listener.as_raw_fd(), 1024).unwrap();
        // Still accepts after the re-listen.
        let tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (_rx, _) = listener.accept().unwrap();
        drop(tx);
        let fd = listener.as_raw_fd();
        drop(listener);
        assert!(deepen_backlog(fd, 1024).is_err());
    }
}
