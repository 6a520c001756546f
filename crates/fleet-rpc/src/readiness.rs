//! OS readiness primitives for the reactor's socket wait, with no crate
//! dependencies.
//!
//! The portable scan source (`server::Readiness::Scan`) discovers work
//! by polling every socket nonblockingly and sleeping an adaptive
//! backoff between passes — robust everywhere, but a quiet daemon still
//! wakes hundreds of times a second and a busy one burns a syscall per
//! idle socket per pass. On Linux the epoll source asks the kernel
//! instead: one `epoll` instance watches the listener, every
//! connection, and a wakeup pipe, and the reactor thread blocks until
//! something is actually ready.
//!
//! This module is the thin `extern "C"` shim that makes that possible
//! without a libc crate: the four epoll syscalls, a `clock_gettime`
//! reader for the serving thread's own CPU time (the idle-cost evidence
//! `BENCH_fleet.json` reports), and a safe [`linux::Epoll`] wrapper that
//! owns the instance fd. Everything Linux-specific is gated so the
//! crate still builds (and falls back to the scan source) elsewhere.

#[cfg(target_os = "linux")]
pub(crate) mod linux {
    use std::io;
    use std::os::unix::io::RawFd;

    /// Readable readiness (also how `epoll` reports a listener with a
    /// pending accept).
    pub(crate) const EPOLLIN: u32 = 0x001;
    /// Writable readiness — registered only while a connection has
    /// outbound bytes pending, so an idle connection never wakes the
    /// wait.
    pub(crate) const EPOLLOUT: u32 = 0x004;
    /// Error condition (always reported, no need to register).
    pub(crate) const EPOLLERR: u32 = 0x008;
    /// Hang-up (always reported, no need to register).
    pub(crate) const EPOLLHUP: u32 = 0x010;
    /// Peer shut down its writing half — the half-close a `read() == 0`
    /// would discover; registering it surfaces the hangup without a
    /// read pass.
    pub(crate) const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0x80000;
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    /// The kernel's epoll event record. x86-64 packs it (the historic
    /// 32-bit layout); other architectures use natural alignment. Copy
    /// the fields out — never take references into a packed struct.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub(crate) struct EpollEvent {
        pub(crate) events: u32,
        /// The caller's token, returned verbatim (the driver stores
        /// connection ids here).
        pub(crate) data: u64,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
        fn close(fd: i32) -> i32;
        fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
    }

    /// CPU time consumed by the *calling thread*, in microseconds.
    ///
    /// The driver reads it on the reactor thread for every metrics
    /// report: a blocked `epoll_wait` accrues none, so the gap between
    /// two readings over a quiet window is exactly the serving thread's
    /// idle burn — the number the scaling benchmark compares across
    /// readiness sources.
    pub(crate) fn thread_cpu_micros() -> u64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        if rc != 0 {
            return 0;
        }
        (ts.tv_sec as u64) * 1_000_000 + (ts.tv_nsec as u64) / 1_000
    }

    /// An owned epoll instance: level-triggered readiness over raw fds
    /// with a `u64` token per registration. Closes the instance on
    /// drop; registered fds are untouched (their owners close them).
    pub(crate) struct Epoll {
        fd: RawFd,
    }

    impl Epoll {
        /// A fresh epoll instance (close-on-exec).
        pub(crate) fn new() -> io::Result<Epoll> {
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll { fd })
        }

        fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
            if rc != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Registers `fd` for `events`; readiness reports carry `token`.
        pub(crate) fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, events, token)
        }

        /// Changes an existing registration's interest set.
        pub(crate) fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, events, token)
        }

        /// Deregisters `fd` (pre-2.6.9 kernels demand a non-null event
        /// pointer, which `ctl` already passes).
        pub(crate) fn delete(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Blocks up to `timeout_ms` (`-1` = forever) for readiness;
        /// fills `events` and returns how many fired. `EINTR` retries
        /// internally.
        pub(crate) fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
            loop {
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
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            }
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            unsafe {
                let _ = close(self.fd);
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::io::Write;
        use std::os::unix::io::AsRawFd;
        use std::os::unix::net::UnixStream;

        #[test]
        fn epoll_reports_readability_with_the_registered_token() {
            let (mut a, b) = UnixStream::pair().unwrap();
            let ep = Epoll::new().unwrap();
            ep.add(b.as_raw_fd(), EPOLLIN | EPOLLRDHUP, 42).unwrap();

            // Nothing written yet: a zero-timeout wait sees nothing.
            let mut evs = [EpollEvent { events: 0, data: 0 }; 8];
            assert_eq!(ep.wait(&mut evs, 0).unwrap(), 0);

            a.write_all(b"ping").unwrap();
            let n = ep.wait(&mut evs, 1_000).unwrap();
            assert_eq!(n, 1);
            // Copy out of the (possibly packed) struct before asserting.
            let (events, token) = (evs[0].events, evs[0].data);
            assert_ne!(events & EPOLLIN, 0);
            assert_eq!(token, 42);

            // Dropping the peer surfaces a hangup without any read.
            drop(a);
            let n = ep.wait(&mut evs, 1_000).unwrap();
            assert_eq!(n, 1);
            let events = evs[0].events;
            assert_ne!(events & (EPOLLRDHUP | EPOLLHUP | EPOLLIN), 0);

            ep.delete(b.as_raw_fd()).unwrap();
            assert_eq!(ep.wait(&mut evs, 0).unwrap(), 0);
        }

        #[test]
        fn modify_narrows_interest() {
            let (a, b) = UnixStream::pair().unwrap();
            let ep = Epoll::new().unwrap();
            // A fresh socketpair is immediately writable.
            ep.add(b.as_raw_fd(), EPOLLOUT, 7).unwrap();
            let mut evs = [EpollEvent { events: 0, data: 0 }; 8];
            let n = ep.wait(&mut evs, 1_000).unwrap();
            assert_eq!(n, 1);
            let events = evs[0].events;
            assert_ne!(events & EPOLLOUT, 0);

            // Narrow to read interest: writability no longer reported.
            ep.modify(b.as_raw_fd(), EPOLLIN, 7).unwrap();
            assert_eq!(ep.wait(&mut evs, 0).unwrap(), 0);
            drop(a);
        }

        #[test]
        fn thread_cpu_clock_is_monotonic_and_advances_under_load() {
            let before = thread_cpu_micros();
            // Burn a little CPU (optimizer-proof via black_box).
            let mut acc = 0u64;
            for i in 0..2_000_000u64 {
                acc = acc.wrapping_add(std::hint::black_box(i));
            }
            std::hint::black_box(acc);
            let after = thread_cpu_micros();
            assert!(after >= before, "thread CPU clock went backwards");
            assert!(after > 0, "thread CPU clock stuck at zero");
        }
    }
}

/// Portable stub: no readiness facility, and thread CPU time reads as
/// zero (the benchmark reports it as unavailable rather than lying).
#[cfg(not(target_os = "linux"))]
pub(crate) mod fallback {
    pub(crate) fn thread_cpu_micros() -> u64 {
        0
    }
}

#[cfg(not(target_os = "linux"))]
pub(crate) use fallback::thread_cpu_micros;
/// The serving thread's CPU-time reader, resolved per platform.
#[cfg(target_os = "linux")]
pub(crate) use linux::thread_cpu_micros;
