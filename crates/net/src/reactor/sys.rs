//! Raw Linux syscall bindings for the reactor: `epoll` and `eventfd`.
//!
//! The workspace has no async runtime and no `libc` crate, so the two
//! kernel interfaces the event loop needs are declared here directly as
//! `extern "C"` bindings against the system libc (always present — std
//! itself links it). Everything else — nonblocking sockets, accept,
//! reads and writes — goes through `std::net`, which already exposes
//! `WouldBlock` semantics portably.
//!
//! Safety is confined to this module: the safe wrappers ([`Epoll`],
//! [`EventFd`]) own their file descriptors, close them on drop, and
//! never hand out raw pointers.

#![allow(non_camel_case_types)]

use std::io;
use std::os::unix::io::RawFd;

type c_int = i32;

/// Readable readiness.
pub(crate) const EPOLLIN: u32 = 0x001;
/// Writable readiness.
pub(crate) const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported, need not be requested).
pub(crate) const EPOLLERR: u32 = 0x008;
/// Hang-up (always reported, need not be requested).
pub(crate) const EPOLLHUP: u32 = 0x010;
/// Peer closed its writing half.
pub(crate) const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

const RLIMIT_NOFILE: c_int = 7;

const SOL_SOCKET: c_int = 1;
const SO_LINGER: c_int = 13;

/// Mirror of the kernel's `struct epoll_event`. On x86-64 the kernel
/// ABI packs it (no padding between `events` and `data`); other
/// architectures use natural alignment.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub(crate) struct EpollEvent {
    events: u32,
    data: u64,
}

impl EpollEvent {
    fn zeroed() -> Self {
        EpollEvent { events: 0, data: 0 }
    }

    /// Readiness bits reported by the kernel.
    pub(crate) fn events(&self) -> u32 {
        // Copy out of the (possibly packed) struct; no reference taken.
        self.events
    }

    /// The token registered with the fd.
    pub(crate) fn token(&self) -> u64 {
        self.data
    }
}

#[repr(C)]
struct Rlimit {
    rlim_cur: u64,
    rlim_max: u64,
}

#[repr(C)]
struct Linger {
    l_onoff: c_int,
    l_linger: c_int,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: u32, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
    fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
    fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
    fn setsockopt(
        fd: c_int,
        level: c_int,
        optname: c_int,
        optval: *const Linger,
        optlen: u32,
    ) -> c_int;
}

/// `SO_LINGER { on, 0 }`: close sends RST and skips TIME_WAIT.
///
/// For load-generator sockets only. A graceful close leaves the
/// *active* closer in TIME_WAIT for 60 s; a C10k soak that opens and
/// closes ten thousand loopback connections per run would bloat the
/// kernel's socket tables and slow the next run. An abortive close is
/// safe here because the load generator only closes after the last
/// response has been received — there is no in-flight data to lose.
pub(crate) fn set_abortive_close(fd: RawFd) {
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    let len = std::mem::size_of::<Linger>() as u32;
    unsafe { setsockopt(fd, SOL_SOCKET, SO_LINGER, &linger, len) };
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An owned epoll instance.
pub(crate) struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Create a close-on-exec epoll instance.
    pub(crate) fn new() -> io::Result<Epoll> {
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest,
            data: token,
        };
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut ev) }).map(|_| ())
    }

    /// Register `fd` with the given interest bits and token.
    pub(crate) fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Change the interest bits of an already-registered `fd`.
    pub(crate) fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Deregister `fd`.
    pub(crate) fn delete(&self, fd: RawFd) -> io::Result<()> {
        let mut ev = EpollEvent::zeroed();
        cvt(unsafe { epoll_ctl(self.fd, EPOLL_CTL_DEL, fd, &mut ev) }).map(|_| ())
    }

    /// Wait up to `timeout_ms` (−1 blocks indefinitely) for readiness.
    /// Fills `events` from the start and returns how many are valid.
    /// `EINTR` is retried internally.
    pub(crate) fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        debug_assert!(!events.is_empty());
        loop {
            let n = unsafe {
                epoll_wait(
                    self.fd,
                    events.as_mut_ptr(),
                    events.len() as c_int,
                    timeout_ms,
                )
            };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    /// A zeroed event buffer of the given capacity for [`Epoll::wait`].
    pub(crate) fn event_buffer(capacity: usize) -> Vec<EpollEvent> {
        vec![EpollEvent::zeroed(); capacity]
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

/// An owned nonblocking eventfd: the reactor's cross-thread wakeup.
/// Writers ([`EventFd::wake`]) add to the counter; the reactor reads
/// ([`EventFd::drain`]) to reset it. Both directions never block.
pub(crate) struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// Create a nonblocking, close-on-exec eventfd.
    pub(crate) fn new() -> io::Result<EventFd> {
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(EventFd { fd })
    }

    /// The fd to register with an [`Epoll`].
    pub(crate) fn as_raw_fd(&self) -> RawFd {
        self.fd
    }

    /// Signal the owning reactor. Never blocks: the 64-bit counter
    /// cannot realistically saturate, and a full counter still leaves
    /// the fd readable, which is all a wakeup needs.
    pub(crate) fn wake(&self) {
        let one: u64 = 1;
        unsafe { write(self.fd, one.to_ne_bytes().as_ptr(), 8) };
    }

    /// Reset the counter so the fd stops polling readable.
    pub(crate) fn drain(&self) {
        let mut buf = [0u8; 8];
        unsafe { read(self.fd, buf.as_mut_ptr(), 8) };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

/// Raise `RLIMIT_NOFILE` toward `want` file descriptors and return the
/// resulting soft limit. Unprivileged processes are capped at the hard
/// limit; privileged ones (CI containers run as root) raise both.
/// Errors are swallowed into the current limit — callers scale their
/// connection count to whatever this returns.
pub fn raise_nofile_limit(want: u64) -> u64 {
    let mut lim = Rlimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return 1024;
    }
    if lim.rlim_cur >= want {
        return lim.rlim_cur;
    }
    if lim.rlim_max < want {
        // Raising the hard limit needs CAP_SYS_RESOURCE; try, then fall
        // back to whatever ceiling we do have.
        let try_hard = Rlimit {
            rlim_cur: want,
            rlim_max: want,
        };
        if unsafe { setrlimit(RLIMIT_NOFILE, &try_hard) } == 0 {
            return want;
        }
    }
    let target = want.min(lim.rlim_max);
    let raised = Rlimit {
        rlim_cur: target,
        rlim_max: lim.rlim_max,
    };
    if unsafe { setrlimit(RLIMIT_NOFILE, &raised) } == 0 {
        target
    } else {
        lim.rlim_cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn eventfd_wakes_epoll_and_drains() {
        let ep = Epoll::new().unwrap();
        let efd = EventFd::new().unwrap();
        ep.add(efd.as_raw_fd(), EPOLLIN, 7).unwrap();
        let mut events = Epoll::event_buffer(4);
        // Nothing signaled: a zero-timeout wait returns no events.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
        efd.wake();
        efd.wake();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 7);
        assert_ne!(events[0].events() & EPOLLIN, 0);
        efd.drain();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn socket_readiness_roundtrip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let ep = Epoll::new().unwrap();
        {
            use std::os::unix::io::AsRawFd;
            ep.add(server.as_raw_fd(), EPOLLIN | EPOLLRDHUP, 42)
                .unwrap();
        }
        let mut events = Epoll::event_buffer(4);
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "idle socket");
        client.write_all(b"ping").unwrap();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 42);
        let mut s = server;
        let mut buf = [0u8; 8];
        assert_eq!(s.read(&mut buf).unwrap(), 4);
        drop(client);
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1, "peer close reports readiness");
    }

    #[test]
    fn nofile_limit_reports_something_sane() {
        assert!(raise_nofile_limit(256) >= 256);
    }
}
