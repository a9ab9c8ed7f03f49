//! Quarantined `epoll(7)` binding for the connection reactor, plus the
//! one socket `read(2)` it issues straight into a buffer's spare
//! capacity.
//!
//! Same construction rules as `ame-store`'s `wake` module:
//! the workspace links no libc crate, so the syscalls the reactor
//! needs are declared by hand and wrapped in a safe [`Epoll`] handle and
//! a safe [`read_append`].
//! Everything else in the server stays under `#![deny(unsafe_code)]`.
//!
//! Failure is never silent but always *detectable up front*:
//! [`Epoll::new`] returns `None` on hosts without epoll (any non-Linux
//! OS, or fd exhaustion), and `Server::bind` turns that into
//! `io::ErrorKind::Unsupported` before it opens a tenant store. The
//! non-Linux stub below exists so the workspace still type-checks
//! there.

#![allow(unsafe_code)]

use std::io;

/// Readable (`EPOLLIN`).
pub(crate) const EPOLLIN: u32 = 0x001;
/// Writable (`EPOLLOUT`).
pub(crate) const EPOLLOUT: u32 = 0x004;
/// Error condition (`EPOLLERR`); always reported, never requested.
pub(crate) const EPOLLERR: u32 = 0x008;
/// Hangup (`EPOLLHUP`); always reported, never requested.
pub(crate) const EPOLLHUP: u32 = 0x010;
/// Peer shut down its write half (`EPOLLRDHUP`).
pub(crate) const EPOLLRDHUP: u32 = 0x2000;

/// One readiness event out of `epoll_wait`.
///
/// Layout matches the kernel's `struct epoll_event`, whose ABI is
/// arch-dependent: x86-64 packs it to 12 bytes (`u32` events + `u64`
/// data, no padding), every other Linux target uses natural alignment
/// (16 bytes, 4 padding after `events`). Getting this wrong is memory
/// corruption — the kernel writes its layout into our buffer — so the
/// attribute is gated per-arch and asserted in the layout test below.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy, Default)]
pub(crate) struct EpollEvent {
    events: u32,
    data: u64,
}

impl EpollEvent {
    /// The ready event mask.
    pub(crate) fn events(&self) -> u32 {
        self.events
    }

    /// The caller-chosen token registered with the fd.
    pub(crate) fn token(&self) -> u64 {
        self.data
    }
}

#[cfg(target_os = "linux")]
mod imp {
    use super::EpollEvent;

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EINTR: i32 = 4;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        // glibc and musl both export errno's thread-local address under
        // this name on Linux.
        fn __errno_location() -> *mut i32;
    }

    #[derive(Debug)]
    pub struct RawEpoll {
        fd: i32,
    }

    impl RawEpoll {
        pub fn new() -> Option<Self> {
            // SAFETY: epoll_create1 takes no pointers; failure is a
            // negative return.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            (fd >= 0).then_some(Self { fd })
        }

        fn ctl(&self, op: i32, fd: i32, events: u32, token: u64) -> bool {
            let mut event = EpollEvent {
                events,
                data: token,
            };
            // SAFETY: the event struct is a live stack value matching the
            // kernel's expected (packed) layout; the kernel copies it
            // before returning. DEL ignores the pointer on modern
            // kernels but a valid one is passed anyway.
            unsafe { epoll_ctl(self.fd, op, fd, &raw mut event) == 0 }
        }

        pub fn add(&self, fd: i32, events: u32, token: u64) -> bool {
            self.ctl(EPOLL_CTL_ADD, fd, events, token)
        }

        pub fn modify(&self, fd: i32, events: u32, token: u64) -> bool {
            self.ctl(EPOLL_CTL_MOD, fd, events, token)
        }

        pub fn del(&self, fd: i32) -> bool {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> Result<usize, i32> {
            if events.is_empty() {
                return Ok(0);
            }
            // SAFETY: the out-buffer is a live, writable slice and
            // maxevents never exceeds its length; the kernel writes at
            // most that many entries.
            let n = unsafe {
                epoll_wait(
                    self.fd,
                    events.as_mut_ptr(),
                    events.len().min(i32::MAX as usize) as i32,
                    timeout_ms,
                )
            };
            if n >= 0 {
                return Ok(n as usize);
            }
            // SAFETY: __errno_location returns the calling thread's
            // always-valid errno address.
            let errno = unsafe { *__errno_location() };
            if errno == EINTR {
                // A signal is routine: report zero events, poll again.
                Ok(0)
            } else {
                // Anything else (EBADF, EINVAL, EFAULT) will never clear
                // on retry; surface it so the loop can stop instead of
                // spinning silently at the poll interval forever.
                Err(errno)
            }
        }
    }

    impl Drop for RawEpoll {
        fn drop(&mut self) {
            // SAFETY: closes the fd this struct exclusively owns.
            let _ = unsafe { close(self.fd) };
        }
    }

    pub fn read_append(fd: i32, buf: &mut Vec<u8>, max: usize) -> std::io::Result<usize> {
        buf.reserve(max);
        let spare = buf.spare_capacity_mut();
        // SAFETY: `reserve` guarantees at least `max` bytes of spare
        // capacity, a live writable allocation the kernel writes at most
        // `max` bytes into; nothing reads them before `set_len` below.
        let n = unsafe { read(fd, spare.as_mut_ptr().cast::<u8>(), max) };
        if n < 0 {
            return Err(std::io::Error::last_os_error());
        }
        let n = n as usize;
        // SAFETY: read(2) initialised the first `n <= max` spare bytes,
        // and `len + n` stays within the capacity reserved above.
        unsafe { buf.set_len(buf.len() + n) };
        Ok(n)
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::EpollEvent;

    /// Non-Linux stub: construction fails, so no caller ever holds one.
    #[derive(Debug)]
    pub struct RawEpoll {}

    impl RawEpoll {
        pub fn new() -> Option<Self> {
            None
        }

        pub fn add(&self, _fd: i32, _events: u32, _token: u64) -> bool {
            false
        }

        pub fn modify(&self, _fd: i32, _events: u32, _token: u64) -> bool {
            false
        }

        pub fn del(&self, _fd: i32) -> bool {
            false
        }

        pub fn wait(&self, _events: &mut [EpollEvent], _timeout_ms: i32) -> Result<usize, i32> {
            Ok(0)
        }
    }

    pub fn read_append(_fd: i32, _buf: &mut Vec<u8>, _max: usize) -> std::io::Result<usize> {
        Err(std::io::ErrorKind::Unsupported.into())
    }
}

/// A safe handle on one epoll interest set.
///
/// `None` from [`Epoll::new`] is the host's way of saying "no reactor
/// here" — the caller must fail, visibly.
#[derive(Debug)]
pub(crate) struct Epoll {
    raw: imp::RawEpoll,
}

impl Epoll {
    pub(crate) fn new() -> Option<Self> {
        imp::RawEpoll::new().map(|raw| Self { raw })
    }

    /// Registers `fd` for `events`, tagged with `token`.
    pub(crate) fn add(&self, fd: i32, events: u32, token: u64) -> bool {
        self.raw.add(fd, events, token)
    }

    /// Re-arms `fd` with a new event mask (level-triggered).
    pub(crate) fn modify(&self, fd: i32, events: u32, token: u64) -> bool {
        self.raw.modify(fd, events, token)
    }

    /// Removes `fd` from the interest set (best-effort: closing the fd
    /// removes it anyway).
    pub(crate) fn del(&self, fd: i32) -> bool {
        self.raw.del(fd)
    }

    /// Blocks up to `timeout_ms` (`-1` = forever) for readiness; fills
    /// `events` and returns how many entries are valid. `Err(errno)`
    /// reports a non-retryable failure (EINTR is absorbed as `Ok(0)`):
    /// the interest set is unusable and the caller must stop polling it.
    pub(crate) fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> Result<usize, i32> {
        self.raw.wait(events, timeout_ms)
    }
}

/// Reads at most `max` bytes from `fd` straight into `buf`'s spare
/// capacity and appends them: no zeroed staging chunk and no copy.
/// `Ok(0)` is end of stream; errors are the socket's own (`WouldBlock`
/// on a drained nonblocking socket).
pub(crate) fn read_append(fd: i32, buf: &mut Vec<u8>, max: usize) -> io::Result<usize> {
    imp::read_append(fd, buf, max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_event_layout_matches_kernel() {
        // The kernel packs struct epoll_event only on x86-64 (12 bytes);
        // every other Linux arch pads it to 16. A mismatch here would
        // corrupt every event the kernel writes, so the expectation is
        // pinned per-arch rather than derived from the Rust struct.
        #[cfg(target_arch = "x86_64")]
        assert_eq!(std::mem::size_of::<EpollEvent>(), 12);
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(std::mem::size_of::<EpollEvent>(), 16);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn wait_times_out_on_empty_interest_set() {
        let ep = Epoll::new().expect("linux hosts have epoll");
        let mut events = [EpollEvent::default(); 4];
        assert_eq!(ep.wait(&mut events, 0), Ok(0));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn wakes_on_registered_eventfd() {
        let ep = Epoll::new().expect("linux hosts have epoll");
        let wake = ame_store::WakeFd::new().expect("linux hosts have eventfd");
        assert!(ep.add(wake.raw_fd(), EPOLLIN, 42));
        let mut events = [EpollEvent::default(); 4];
        assert_eq!(
            ep.wait(&mut events, 0),
            Ok(0),
            "unsignalled fd is not ready"
        );
        wake.signal();
        assert_eq!(ep.wait(&mut events, 1000), Ok(1));
        assert_eq!(events[0].token(), 42);
        assert!(events[0].events() & EPOLLIN != 0);
        wake.drain();
        assert_eq!(ep.wait(&mut events, 0), Ok(0), "drained fd is not ready");
        assert!(ep.del(wake.raw_fd()));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn read_append_fills_spare_capacity_and_keeps_the_prefix() {
        use std::io::Write;
        use std::os::fd::AsRawFd;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut tx = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (rx, _) = listener.accept().unwrap();
        tx.write_all(b"hello, reactor").unwrap();
        let mut buf = b"<<".to_vec();
        let mut got = 0;
        while got < 14 {
            let n = read_append(rx.as_raw_fd(), &mut buf, 5).unwrap();
            assert!((1..=5).contains(&n), "read {n} bytes, asked for at most 5");
            got += n;
            assert_eq!(buf.len(), 2 + got);
        }
        assert_eq!(buf, b"<<hello, reactor");
        drop(tx);
        assert_eq!(read_append(rx.as_raw_fd(), &mut buf, 5).unwrap(), 0, "EOF");
    }
}
