//! Quarantined `eventfd(2)` binding: the kernel-visible wakeup a shard
//! worker rings when it pushes a completion onto a split session's
//! queue.
//!
//! The split [`SessionReaper`](crate::SessionReaper) drains an in-memory
//! channel, which is invisible to `epoll(7)` — an event-driven server
//! multiplexing thousands of connections on a handful of threads has
//! nothing to block on when a completion lands. A [`WakeFd`] closes that
//! gap: the submitter attaches one to every request, the worker
//! [`signal`](WakeFd::signal)s it once per service wakeup, after that
//! wakeup's completion sends, and the serving reactor registers the raw
//! fd in its epoll set. Semantics
//! are the classic eventfd ones: signals coalesce (the counter
//! accumulates; N signals may wake one `epoll_wait`), so a woken reader
//! must [`drain`](WakeFd::drain) and then reap *everything* available.
//!
//! **This module is the crate's only `unsafe` surface**: the workspace
//! links no libc crate, so the three syscalls we need are declared by
//! hand and wrapped in safe methods. Everything is best-effort — on a host
//! without eventfd (any non-Linux OS) [`WakeFd::new`] returns `None`
//! and callers fall back to blocking reaps; a failed signal is ignored
//! (the reader also drains opportunistically, so a lost edge costs one
//! poll interval, never a lost completion).

#![allow(unsafe_code)]

#[cfg(target_os = "linux")]
mod imp {
    const EFD_NONBLOCK: i32 = 0o4000;
    const EFD_CLOEXEC: i32 = 0o2000000;

    extern "C" {
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
    }

    #[derive(Debug)]
    pub struct RawWake {
        fd: i32,
    }

    impl RawWake {
        pub fn new() -> Option<Self> {
            // SAFETY: eventfd takes no pointers; a failure is reported
            // as a negative return, never via memory.
            let fd = unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) };
            (fd >= 0).then_some(Self { fd })
        }

        pub fn fd(&self) -> i32 {
            self.fd
        }

        pub fn signal(&self) {
            let one: u64 = 1;
            // SAFETY: writes exactly 8 bytes from a live stack buffer to
            // an fd this struct owns. EAGAIN (counter saturated) is fine:
            // the reader is already guaranteed a wakeup.
            let _ = unsafe { write(self.fd, (&raw const one).cast::<u8>(), 8) };
        }

        pub fn drain(&self) {
            let mut counter = [0u8; 8];
            // SAFETY: reads up to 8 bytes into a live stack buffer from
            // an fd this struct owns; EFD_NONBLOCK makes an empty counter
            // return EAGAIN instead of blocking.
            let _ = unsafe { read(self.fd, counter.as_mut_ptr(), 8) };
        }
    }

    impl Drop for RawWake {
        fn drop(&mut self) {
            // SAFETY: closes the fd this struct exclusively owns.
            let _ = unsafe { close(self.fd) };
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    /// Non-Linux stub: construction fails, so no caller ever holds one.
    #[derive(Debug)]
    pub struct RawWake {}

    impl RawWake {
        pub fn new() -> Option<Self> {
            None
        }

        pub fn fd(&self) -> i32 {
            -1
        }

        pub fn signal(&self) {}

        pub fn drain(&self) {}
    }
}

/// An edge-coalescing kernel wakeup (an `eventfd(2)` on Linux).
///
/// Created by [`WakeFd::new`] — `None` on hosts without eventfd, which
/// is how the serving layer discovers it must fall back to blocking
/// reaps. Cloned handles (via `Arc`) share the one descriptor; the fd
/// closes when the last handle drops.
#[derive(Debug)]
pub struct WakeFd {
    raw: imp::RawWake,
}

impl WakeFd {
    /// Opens a fresh wake descriptor; `None` when the host cannot
    /// provide one (non-Linux, fd exhaustion).
    #[must_use]
    pub fn new() -> Option<Self> {
        imp::RawWake::new().map(|raw| Self { raw })
    }

    /// The raw descriptor, for registration in an `epoll(7)` interest
    /// set (level-triggered readable while the counter is non-zero).
    #[must_use]
    pub fn raw_fd(&self) -> i32 {
        self.raw.fd()
    }

    /// Rings the wakeup. Never blocks; failures are ignored by design
    /// (see the module docs — a lost edge is recovered by the reader's
    /// opportunistic drain, not by erroring the signaller).
    pub fn signal(&self) {
        self.raw.signal();
    }

    /// Clears the pending-signal counter so the descriptor stops
    /// reading as ready. Call before reaping, then reap everything:
    /// `drain → try_recv_all` never loses a completion that signalled
    /// between the two.
    pub fn drain(&self) {
        self.raw.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_os = "linux")]
    #[test]
    fn signal_then_drain_roundtrip() {
        let wake = WakeFd::new().expect("linux hosts have eventfd");
        assert!(wake.raw_fd() >= 0);
        wake.signal();
        wake.signal();
        wake.drain(); // coalesced: one drain clears both signals
        wake.drain(); // draining an empty counter is a clean no-op
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn signals_coalesce_across_threads() {
        use std::sync::Arc;
        let wake = Arc::new(WakeFd::new().expect("linux hosts have eventfd"));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let w = Arc::clone(&wake);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        w.signal();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        wake.drain();
    }
}
