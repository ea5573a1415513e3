//! A thin, dependency-free syscall shim for the event loop: readiness
//! polling (`epoll` on Linux, `poll(2)` elsewhere), a self-wakeup
//! channel, and per-thread CPU clocks.
//!
//! The repo's zero-external-crates rule forbids `libc`/`mio`, but std
//! already links the platform C library, so declaring the handful of
//! symbols we need (`epoll_*`, `poll`, `clock_gettime`) costs nothing
//! and keeps the build offline. Everything unsafe is confined to this
//! module behind safe wrappers; fds are owned (`close` on drop) and
//! tokens are plain `u64`s the caller maps back to connections.

use std::io;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// Readiness of one registered fd, reported by [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    /// Error or hangup: the connection should be torn down after a
    /// final read attempt drains whatever the peer sent before dying.
    pub error: bool,
}

/// What a registration waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READ: Interest = Interest { readable: true, writable: false };
    pub const WRITE: Interest = Interest { readable: false, writable: true };
    pub const BOTH: Interest = Interest { readable: true, writable: true };
}

// ---------------------------------------------------------------------------
// Linux: epoll. Level-triggered (the default), which matches the
// state-machine style in `eventloop.rs`: interest is explicit and
// re-armed by `modify`, never inferred from a drained buffer.
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod imp {
    use super::*;

    // x86-64's epoll_event is packed; other Linux arches use natural
    // alignment. Getting this wrong corrupts the token, so mirror glibc.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0o2000000;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// An owned epoll instance.
    pub struct Poller {
        epfd: RawFd,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            // SAFETY: epoll_create1 takes an integer flag and touches no
            // caller memory. The fd it returns is new and referenced
            // nowhere else, so the `Poller` owns it from here on.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller { epfd })
        }

        fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            // RDHUP rides with read interest: it exists to notice the
            // peer's half-close early, and a closed read side reports
            // it level-triggered forever — a connection that has
            // stopped reading must stop hearing about it too.
            let mut events = 0;
            if interest.readable {
                events |= EPOLLIN | EPOLLRDHUP;
            }
            if interest.writable {
                events |= EPOLLOUT;
            }
            let mut ev = EpollEvent { events, data: token };
            // SAFETY: `ev` is a live, initialized `EpollEvent` on this
            // stack frame, and its `repr` mirrors the C `struct
            // epoll_event` (packed on x86-64, as glibc declares it), so
            // the kernel reads exactly its 12 or 16 bytes and keeps no
            // pointer past the call. `self.epfd` is the epoll fd this
            // `Poller` owns; `fd` is only an integer to the kernel, and a
            // stale one fails with EBADF rather than touching memory.
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            // The event argument is ignored for DEL on modern kernels
            // but must be non-null for pre-2.6.9 compatibility.
            let mut ev = EpollEvent { events: 0, data: 0 };
            // SAFETY: as in `ctl`: `ev` is a valid `EpollEvent` for the
            // duration of the call and `self.epfd` is owned by `self`.
            let rc = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Block until at least one registered fd is ready or `timeout`
        /// elapses (`None` blocks indefinitely); readiness lands in
        /// `out` (cleared first).
        pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            out.clear();
            let mut buf = [EpollEvent { events: 0, data: 0 }; 256];
            let ms: i32 = match timeout {
                None => -1,
                Some(d) => d.as_millis().min(i32::MAX as u128) as i32,
            };
            let n = loop {
                // SAFETY: `buf` is an initialized array of 256
                // `EpollEvent`s (C layout, see `ctl`), and `maxevents`
                // is its length, so the kernel writes at most
                // `buf.len()` entries through the pointer. It returns
                // how many it wrote (never more than `maxevents`), which
                // bounds the `&buf[..n]` below.
                let n = unsafe { epoll_wait(self.epfd, buf.as_mut_ptr(), buf.len() as i32, ms) };
                if n >= 0 {
                    break n as usize;
                }
                let e = io::Error::last_os_error();
                if e.kind() != io::ErrorKind::Interrupted {
                    return Err(e);
                }
            };
            for ev in &buf[..n] {
                let (events, data) = (ev.events, ev.data);
                out.push(Event {
                    token: data,
                    readable: events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                    writable: events & EPOLLOUT != 0,
                    error: events & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: `epfd` came from `epoll_create1` in `new`, is
            // private to this struct (no accessor, no `Clone`), and is
            // closed exactly once, here; so no other owner's fd can be
            // closed by mistake.
            unsafe { close(self.epfd) };
        }
    }
}

// ---------------------------------------------------------------------------
// Non-Linux Unix fallback: poll(2) over a registration table. O(n) per
// wait, fine for the fd counts this server targets.
// ---------------------------------------------------------------------------

#[cfg(all(unix, not(target_os = "linux")))]
mod imp {
    use super::*;
    use std::sync::Mutex;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    pub struct Poller {
        registered: Mutex<Vec<(RawFd, u64, Interest)>>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller { registered: Mutex::new(Vec::new()) })
        }

        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.registered.lock().unwrap().push((fd, token, interest));
            Ok(())
        }

        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut regs = self.registered.lock().unwrap();
            for r in regs.iter_mut() {
                if r.0 == fd {
                    *r = (fd, token, interest);
                    return Ok(());
                }
            }
            Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.registered.lock().unwrap().retain(|r| r.0 != fd);
            Ok(())
        }

        pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            out.clear();
            let regs: Vec<_> = self.registered.lock().unwrap().clone();
            let mut fds: Vec<PollFd> = regs
                .iter()
                .map(|(fd, _, interest)| PollFd {
                    fd: *fd,
                    events: if interest.readable { POLLIN } else { 0 }
                        | if interest.writable { POLLOUT } else { 0 },
                    revents: 0,
                })
                .collect();
            let ms: i32 = match timeout {
                None => -1,
                Some(d) => d.as_millis().min(i32::MAX as u128) as i32,
            };
            let n = loop {
                // SAFETY: `fds` is a live `Vec` of `fds.len()` initialized
                // `PollFd`s, `repr(C)` like `struct pollfd` (int, short,
                // short), and `nfds` is that length, so the kernel reads
                // and writes only those entries. The fds are integers to
                // the kernel; a stale one is reported as POLLNVAL.
                let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, ms) };
                if n >= 0 {
                    break n;
                }
                let e = io::Error::last_os_error();
                if e.kind() != io::ErrorKind::Interrupted {
                    return Err(e);
                }
            };
            if n == 0 {
                return Ok(());
            }
            for (pf, (_, token, _)) in fds.iter().zip(&regs) {
                if pf.revents != 0 {
                    out.push(Event {
                        token: *token,
                        readable: pf.revents & (POLLIN | POLLHUP) != 0,
                        writable: pf.revents & POLLOUT != 0,
                        error: pf.revents & (POLLERR | POLLHUP) != 0,
                    });
                }
            }
            Ok(())
        }
    }
}

pub use imp::Poller;

// ---------------------------------------------------------------------------
// Waker: a nonblocking socketpair. The read end lives in a poller; any
// thread can wake that poller by writing a byte to the write end.
// ---------------------------------------------------------------------------

/// Wakes a [`Poller`] from another thread.
pub struct Waker {
    tx: UnixStream,
}

/// The pollable read end of a [`Waker`].
pub struct WakeReceiver {
    rx: UnixStream,
}

/// Build a connected waker pair; register `WakeReceiver` with
/// [`Interest::READ`] and call [`Waker::wake`] from anywhere.
pub fn waker() -> io::Result<(Waker, WakeReceiver)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx }, WakeReceiver { rx }))
}

impl Waker {
    /// Wake the paired poller. A full pipe means a wake is already
    /// pending, which is just as good — the error is ignored.
    pub fn wake(&self) {
        use std::io::Write;
        let _ = (&self.tx).write(&[1u8]);
    }
}

impl WakeReceiver {
    pub fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Consume all pending wake bytes so the level-triggered poller
    /// stops reporting the fd as readable.
    pub fn drain(&self) {
        use std::io::Read;
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
    }
}

// ---------------------------------------------------------------------------
// Per-thread CPU clock, for the idle-burn regression metric: each I/O
// thread samples its own CLOCK_THREAD_CPUTIME_ID per loop iteration and
// publishes the delta, so `/stats` can prove idle connections cost
// nothing even while unrelated threads are busy.
// ---------------------------------------------------------------------------

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[cfg(target_os = "linux")]
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
#[cfg(not(target_os = "linux"))]
const CLOCK_THREAD_CPUTIME_ID: i32 = 16; // macOS value; best-effort elsewhere

extern "C" {
    fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
}

/// CPU time consumed by the calling thread, in microseconds (0 if the
/// platform clock is unavailable).
pub fn thread_cpu_us() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, initialized `Timespec` the call may write.
    // It is `repr(C)` with two 64-bit fields, the layout of C's `struct
    // timespec` on 64-bit targets; everywhere else the C struct is no
    // larger, so the write stays inside `ts`. No pointer outlives the
    // call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    (ts.tv_sec as u64) * 1_000_000 + (ts.tv_nsec as u64) / 1_000
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn poller_sees_readable_data() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.register(server.as_raw_fd(), 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        // Nothing yet: a zero timeout returns empty.
        poller.wait(&mut events, Some(Duration::from_millis(0))).unwrap();
        assert!(events.iter().all(|e| e.token != 7 || !e.readable));

        (&client).write_all(b"x").unwrap();
        poller.wait(&mut events, Some(Duration::from_millis(1000))).unwrap();
        assert!(
            events.iter().any(|e| e.token == 7 && e.readable),
            "wrote a byte but the poller saw {events:?}"
        );
        poller.deregister(server.as_raw_fd()).unwrap();
    }

    #[test]
    fn poller_reports_writable_and_modify_narrows_interest() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let _ = client;

        let poller = Poller::new().unwrap();
        poller.register(server.as_raw_fd(), 1, Interest::BOTH).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_millis(1000))).unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.writable), "{events:?}");

        // Narrow to read-only: an idle socket reports nothing.
        poller.modify(server.as_raw_fd(), 1, Interest::READ).unwrap();
        poller.wait(&mut events, Some(Duration::from_millis(0))).unwrap();
        assert!(events.iter().all(|e| e.token != 1 || !e.writable), "{events:?}");
    }

    #[test]
    fn waker_crosses_threads() {
        let (waker, rx) = waker().unwrap();
        let poller = Poller::new().unwrap();
        poller.register(rx.fd(), 99, Interest::READ).unwrap();

        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.wake();
            waker // keep the write end alive: dropping it reads as HUP
        });
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_millis(2000))).unwrap();
        assert!(events.iter().any(|e| e.token == 99 && e.readable), "{events:?}");
        let _waker = t.join().unwrap();
        rx.drain();
        poller.wait(&mut events, Some(Duration::from_millis(0))).unwrap();
        assert!(events.is_empty(), "drained waker still readable: {events:?}");
    }

    #[test]
    fn thread_cpu_clock_advances_under_work() {
        let before = thread_cpu_us();
        // Burn a little CPU; volatile-ish accumulator defeats const-fold.
        let mut acc = 0u64;
        for i in 0..2_000_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc);
        let after = thread_cpu_us();
        assert!(after > before, "thread CPU clock did not advance ({before} -> {after})");
    }
}
