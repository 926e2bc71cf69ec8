//! Minimal Linux epoll / eventfd / signal binding.
//!
//! The build environment vendors every dependency, so there is no `libc`
//! crate to lean on; the handful of symbols the reactor needs are declared
//! here against the C ABI that `std` already links. All `unsafe` in the
//! workspace is confined to this module, wrapped in safe types:
//!
//! * [`Poller`] — an `epoll` instance owning its fd, with level-triggered
//!   register / modify / deregister / wait.
//! * [`Waker`] — an `eventfd` the worker pool (or a signal handler) writes
//!   to wake the event loop from any thread.
//! * [`install_shutdown_signal`] — points SIGTERM/SIGINT at a handler that
//!   sets a process-global flag and nudges the waker, the hook behind the
//!   daemon's graceful drain.
//!
//! Everything here is Linux-only, and so is the service: its only TCP
//! server is the reactor built on this module.

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[allow(non_camel_case_types)]
type c_int = i32;
#[allow(non_camel_case_types)]
type c_uint = u32;

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

/// SIGINT signal number (keyboard interrupt).
pub const SIGINT: c_int = 2;
/// SIGTERM signal number (polite termination request).
pub const SIGTERM: c_int = 15;

/// The kernel's `struct epoll_event`. x86_64 packs it; other architectures
/// use natural alignment — mirroring the UAPI header's `EPOLL_PACKED`.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
    fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
}

/// Readiness interest for one registered fd.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Interest {
    /// Wake when the fd becomes readable (or the peer closes).
    pub readable: bool,
    /// Wake when the fd becomes writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };

    /// Read + write interest.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };

    fn mask(self) -> u32 {
        let mut m = EPOLLRDHUP;
        if self.readable {
            m |= EPOLLIN;
        }
        if self.writable {
            m |= EPOLLOUT;
        }
        m
    }
}

/// One readiness notification from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Readable (data, or a pending EOF).
    pub readable: bool,
    /// Writable without blocking.
    pub writable: bool,
    /// Error condition on the fd.
    pub error: bool,
    /// Peer hung up (full or write-half close).
    pub hangup: bool,
}

fn last_os_error() -> io::Error {
    io::Error::last_os_error()
}

/// A level-triggered epoll instance. The fd is owned and closed on drop.
#[derive(Debug)]
pub struct Poller {
    epfd: OwnedFd,
}

impl Poller {
    /// Creates a new epoll instance (`EPOLL_CLOEXEC`).
    ///
    /// # Errors
    ///
    /// The raw `epoll_create1` failure.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: epoll_create1 has no memory-safety preconditions; the
        // returned fd is immediately wrapped in an OwnedFd.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(last_os_error());
        }
        // SAFETY: fd is a freshly created, valid, uniquely owned descriptor.
        let epfd = unsafe { OwnedFd::from_raw_fd(fd) };
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest.mask(),
            data: token,
        };
        // SAFETY: epfd and fd are valid descriptors and `ev` outlives the
        // call; the kernel copies the event structure.
        let rc = unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) };
        if rc < 0 {
            return Err(last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` under `token` with the given interest.
    ///
    /// # Errors
    ///
    /// The raw `epoll_ctl` failure (e.g. the fd is already registered).
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Updates the interest set of an already registered fd.
    ///
    /// # Errors
    ///
    /// The raw `epoll_ctl` failure.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Removes `fd` from the interest set.
    ///
    /// # Errors
    ///
    /// The raw `epoll_ctl` failure.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::default())
    }

    /// Blocks until at least one registered fd is ready or `timeout`
    /// elapses (`None` = wait forever), appending readiness notifications
    /// to `events`. A signal interrupt (`EINTR`) is reported as zero events
    /// rather than an error so callers re-check their shutdown flags.
    ///
    /// # Errors
    ///
    /// The raw `epoll_wait` failure (except `EINTR`).
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        const CAPACITY: usize = 256;
        let mut raw = [EpollEvent { events: 0, data: 0 }; CAPACITY];
        let timeout_ms: c_int = match timeout {
            None => -1,
            Some(d) => {
                // Round up so a 100µs deadline does not busy-spin at 0ms.
                let ms = d.as_millis().min(i32::MAX as u128) as i64;
                let rounded = if d.subsec_millis() as u128 * 1_000_000 != d.subsec_nanos() as u128 {
                    ms + 1
                } else {
                    ms
                };
                rounded.min(i32::MAX as i64) as c_int
            }
        };
        // SAFETY: `raw` is a valid writable buffer of CAPACITY entries for
        // the duration of the call and epfd is a valid epoll descriptor.
        let n = unsafe {
            epoll_wait(
                self.epfd.as_raw_fd(),
                raw.as_mut_ptr(),
                CAPACITY as c_int,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        let n = n as usize;
        for ev in raw.iter().take(n) {
            let bits = ev.events;
            events.push(Event {
                token: ev.data,
                readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                writable: bits & EPOLLOUT != 0,
                error: bits & EPOLLERR != 0,
                hangup: bits & (EPOLLHUP | EPOLLRDHUP) != 0,
            });
        }
        Ok(n)
    }
}

/// A cross-thread wakeup handle backed by a non-blocking `eventfd`.
///
/// Cloning shares the same underlying fd; register [`Waker::as_raw_fd`]
/// with the poller (readable interest) and call [`Waker::drain`] when it
/// fires.
#[derive(Debug, Clone)]
pub struct Waker {
    file: Arc<File>,
}

impl Waker {
    /// Creates the eventfd (`EFD_CLOEXEC | EFD_NONBLOCK`).
    ///
    /// # Errors
    ///
    /// The raw `eventfd` failure.
    pub fn new() -> io::Result<Waker> {
        // SAFETY: eventfd has no memory-safety preconditions; the returned
        // fd is immediately wrapped in an owning File.
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(last_os_error());
        }
        // SAFETY: fd is a freshly created, valid, uniquely owned descriptor.
        let file = unsafe { File::from_raw_fd(fd) };
        Ok(Waker {
            file: Arc::new(file),
        })
    }

    /// The raw fd, for poller registration.
    pub fn as_raw_fd(&self) -> RawFd {
        self.file.as_raw_fd()
    }

    /// Wakes the poller. Never blocks: if the counter is already saturated
    /// the loop is awake anyway, so `WouldBlock` is silently ignored.
    pub fn wake(&self) {
        let one = 1u64.to_ne_bytes();
        let _ = (&*self.file).write(&one);
    }

    /// Clears the pending wakeup counter after the poller observed it.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        let _ = (&*self.file).read(&mut buf);
    }
}

/// Process-global shutdown flag set by the signal handler.
static SHUTDOWN_REQUESTED: AtomicBool = AtomicBool::new(false);
/// The eventfd the signal handler pokes (−1 until installed).
static SIGNAL_WAKE_FD: AtomicI32 = AtomicI32::new(-1);

extern "C" fn on_shutdown_signal(_signum: c_int) {
    // Only async-signal-safe operations: an atomic store and a write(2).
    SHUTDOWN_REQUESTED.store(true, Ordering::SeqCst);
    let fd = SIGNAL_WAKE_FD.load(Ordering::SeqCst);
    if fd >= 0 {
        const ONE: [u8; 8] = 1u64.to_ne_bytes();
        // SAFETY: write(2) is async-signal-safe; the fd is the eventfd
        // published by install_shutdown_signal, kept alive for the process
        // lifetime by the leaked Waker clone.
        unsafe {
            let _ = write(fd, ONE.as_ptr(), ONE.len());
        }
    }
}

/// Installs SIGTERM/SIGINT handlers that set the returned flag and poke
/// `waker`. The waker clone is leaked so the fd stays valid for the whole
/// process lifetime (signal handlers cannot synchronize with drops).
///
/// Calling this more than once re-points the handler at the newest waker.
pub fn install_shutdown_signal(waker: &Waker) -> &'static AtomicBool {
    let keep_alive = Box::leak(Box::new(waker.clone()));
    SIGNAL_WAKE_FD.store(keep_alive.as_raw_fd(), Ordering::SeqCst);
    // SAFETY: on_shutdown_signal is async-signal-safe (atomics + write)
    // and stays valid for the program lifetime.
    unsafe {
        signal(SIGTERM, on_shutdown_signal);
        signal(SIGINT, on_shutdown_signal);
    }
    &SHUTDOWN_REQUESTED
}

/// Whether a shutdown signal has been observed (for paths that never
/// installed the waker-based handler).
pub fn shutdown_requested() -> bool {
    SHUTDOWN_REQUESTED.load(Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn poller_sees_readable_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller
            .register(server.as_raw_fd(), 7, Interest::READABLE)
            .unwrap();

        let mut events = Vec::new();
        // Nothing to read yet: a short wait returns no events.
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.iter().all(|e| e.token != 7 || !e.readable));

        client.write_all(b"x").unwrap();
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));

        poller.deregister(server.as_raw_fd()).unwrap();
    }

    #[test]
    fn waker_wakes_and_drains() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller
            .register(waker.as_raw_fd(), 99, Interest::READABLE)
            .unwrap();

        let w2 = waker.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            w2.wake();
        });
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 99 && e.readable));
        waker.drain();

        // Drained: the next wait times out with no events.
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
        t.join().unwrap();
    }
}
