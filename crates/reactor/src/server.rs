//! The nonblocking event loop: accept, frame, dispatch, flush.
//!
//! One thread runs the epoll loop and owns every socket; a small pool of
//! workers runs the actual request handler off the loop so a slow solve
//! never stalls I/O. The pieces connect like this:
//!
//! ```text
//!   epoll ── readable ──▶ LineFramer ──▶ JobQueue ──▶ worker pool
//!     ▲                                                  │ handle()
//!     └── eventfd wake ◀── completions mailbox ◀─────────┘
//! ```
//!
//! Completed responses come back through a mailbox, are re-ordered per
//! connection by sequence number ([`crate::conn`]), and flush through
//! partial-write buffers under `EPOLLOUT` interest. Deadlines (partial
//! frame stuck, slow consumer) ride the timer wheel with lazy
//! cancellation. Graceful shutdown — a SIGTERM or
//! [`ReactorHandle::shutdown`] — stops accepting, lets queued and
//! in-flight requests finish within `drain_deadline`, flushes, and exits.
//!
//! The loop is protocol-agnostic: request execution *and* error rendering
//! live behind [`LineHandler`], so the service layer fully owns the wire
//! format.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::conn::Conn;
use crate::frame::FrameError;
use crate::lock_recover;
use crate::metrics::ReactorMetrics;
use crate::queue::{JobQueue, PushError};
use crate::sys::{self, Event, Interest, Poller, Waker};
use crate::timer::TimerWheel;

/// Token for the listening socket.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Token for the wakeup eventfd.
const TOKEN_WAKER: u64 = u64::MAX - 1;

/// Why the reactor refused to run a frame through the handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reject {
    /// The job queue is at capacity.
    Overloaded,
    /// A single frame exceeded the configured byte cap.
    FrameTooLarge {
        /// The configured cap in bytes.
        limit: usize,
    },
    /// The server is draining for shutdown.
    ShuttingDown,
    /// The handler panicked while executing the request.
    Internal,
}

/// The protocol glue the reactor drives.
///
/// The reactor consumes whitespace-only frames itself, without a
/// response; every other complete frame reaches
/// [`handle`](LineHandler::handle) with surrounding whitespace trimmed.
/// Responses are written back followed by a single `\n`.
pub trait LineHandler: Send + Sync {
    /// Executes one request line and returns the response line (no
    /// trailing newline). Runs on a worker thread.
    fn handle(&self, line: &str) -> String;

    /// Renders the response line for a frame the reactor refused to run.
    /// `line` is the offending frame when it was parseable
    /// (overload/shutdown); `None` when it never completed (frame cap).
    /// Runs on the event-loop thread — keep it allocation-cheap.
    fn reject(&self, line: Option<&str>, reject: Reject) -> String;
}

/// Tuning for one reactor instance.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Bind address, e.g. `127.0.0.1:4790`.
    pub addr: String,
    /// Worker threads executing [`LineHandler::handle`].
    pub workers: usize,
    /// Job-queue capacity; a full queue yields `overloaded` rejects.
    pub queue_capacity: usize,
    /// Per-frame byte cap; beyond it the client gets `frame_too_large`
    /// and the connection closes.
    pub max_frame_len: usize,
    /// How long a partial frame may sit unfinished before the connection
    /// is closed (`None` disables the read deadline).
    pub read_deadline: Option<Duration>,
    /// How long a response may take to flush before the connection is
    /// closed (`None` disables the write deadline).
    pub write_deadline: Option<Duration>,
    /// Bound on graceful drain; in-flight work past it is force-closed.
    pub drain_deadline: Duration,
    /// Accept cap; connections beyond it are refused at accept time.
    pub max_connections: usize,
    /// Install SIGTERM/SIGINT handlers that trigger a graceful drain.
    pub install_signal_handler: bool,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 1024,
            max_frame_len: 1 << 20,
            read_deadline: Some(Duration::from_secs(30)),
            write_deadline: Some(Duration::from_secs(30)),
            drain_deadline: Duration::from_secs(5),
            max_connections: 4096,
            install_signal_handler: false,
        }
    }
}

/// One frame headed for the worker pool.
#[derive(Debug)]
struct Job {
    token: u64,
    seq: u64,
    line: String,
}

/// One finished frame headed back to the loop.
#[derive(Debug)]
struct Completion {
    token: u64,
    seq: u64,
    response: Option<String>,
}

/// Which per-connection deadline a timer entry represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TimerKind {
    Read,
    Write,
}

/// Handle to a running reactor.
#[derive(Debug)]
pub struct ReactorHandle {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    waker: Waker,
    metrics: Arc<ReactorMetrics>,
    loop_thread: Option<JoinHandle<io::Result<()>>>,
    workers: Vec<JoinHandle<()>>,
}

impl ReactorHandle {
    /// The bound listen address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The live metrics block.
    pub fn metrics(&self) -> Arc<ReactorMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Requests a graceful drain from any thread: stop accepting, finish
    /// queued and in-flight work within the drain deadline, then stop.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.waker.wake();
    }

    /// Waits for the loop and workers to finish.
    ///
    /// # Errors
    ///
    /// A fatal event-loop I/O error (poller failure); handler panics and
    /// per-connection errors never surface here.
    pub fn join(mut self) -> io::Result<()> {
        let result = match self.loop_thread.take() {
            Some(t) => t
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("reactor event-loop thread panicked"))),
            None => Ok(()),
        };
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        result
    }
}

/// Binds `config.addr` and starts the event loop plus worker pool.
///
/// # Errors
///
/// Bind, epoll, or eventfd creation failures.
pub fn spawn(config: ReactorConfig, handler: Arc<dyn LineHandler>) -> io::Result<ReactorHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let local_addr = listener.local_addr()?;

    let poller = Poller::new()?;
    let waker = Waker::new()?;
    poller.register(waker.as_raw_fd(), TOKEN_WAKER, Interest::READABLE)?;
    poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)?;

    let shutdown = Arc::new(AtomicBool::new(false));
    let signal_flag = if config.install_signal_handler {
        Some(sys::install_shutdown_signal(&waker))
    } else {
        None
    };

    let metrics = Arc::new(ReactorMetrics::new());
    let queue: Arc<JobQueue<Job>> = Arc::new(JobQueue::new(config.queue_capacity));
    let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));

    let mut workers = Vec::new();
    for i in 0..config.workers.max(1) {
        let queue = Arc::clone(&queue);
        let completions = Arc::clone(&completions);
        let handler = Arc::clone(&handler);
        let waker = waker.clone();
        let builder = std::thread::Builder::new().name(format!("awb-reactor-worker-{i}"));
        workers.push(builder.spawn(move || {
            while let Some(job) = queue.pop() {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    handler.handle(&job.line)
                }));
                let response = match outcome {
                    Ok(text) => text,
                    Err(_) => handler.reject(Some(&job.line), Reject::Internal),
                };
                lock_recover(&completions).push(Completion {
                    token: job.token,
                    seq: job.seq,
                    response: Some(response),
                });
                waker.wake();
            }
        })?);
    }

    let loop_shutdown = Arc::clone(&shutdown);
    let loop_metrics = Arc::clone(&metrics);
    let loop_waker = waker.clone();
    let builder = std::thread::Builder::new().name("awb-reactor-loop".to_string());
    let loop_thread = builder.spawn(move || {
        let now = Instant::now();
        let mut event_loop = EventLoop {
            poller,
            listener: Some(listener),
            waker: loop_waker,
            queue,
            completions,
            handler,
            metrics: loop_metrics,
            config,
            slots: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            wheel: TimerWheel::new(256, Duration::from_millis(100), now),
            draining: false,
            drain_deadline_at: None,
            shutdown: loop_shutdown,
            signal_flag,
            open: 0,
        };
        event_loop.run()
    })?;

    Ok(ReactorHandle {
        local_addr,
        shutdown,
        waker,
        metrics,
        loop_thread: Some(loop_thread),
        workers,
    })
}

/// A registered connection: socket plus protocol state.
#[derive(Debug)]
struct Slot {
    stream: TcpStream,
    conn: Conn,
    interest: Interest,
}

struct EventLoop {
    poller: Poller,
    listener: Option<TcpListener>,
    waker: Waker,
    queue: Arc<JobQueue<Job>>,
    completions: Arc<Mutex<Vec<Completion>>>,
    handler: Arc<dyn LineHandler>,
    metrics: Arc<ReactorMetrics>,
    config: ReactorConfig,
    slots: Vec<Option<Slot>>,
    /// Per-slot generation, bumped on close so stale tokens never match.
    gens: Vec<u32>,
    free: Vec<u32>,
    wheel: TimerWheel<(u64, TimerKind)>,
    draining: bool,
    drain_deadline_at: Option<Instant>,
    shutdown: Arc<AtomicBool>,
    signal_flag: Option<&'static AtomicBool>,
    open: usize,
}

impl EventLoop {
    // awb-audit: event-loop
    fn run(&mut self) -> io::Result<()> {
        let mut events: Vec<Event> = Vec::new();
        let mut fired: Vec<(u64, TimerKind)> = Vec::new();
        loop {
            let now = Instant::now();
            let timeout = self.poll_timeout(now);
            events.clear();
            self.poller.wait(&mut events, timeout)?;
            ReactorMetrics::bump(&self.metrics.ticks);

            for ev in events.iter().copied() {
                match ev.token {
                    TOKEN_WAKER => self.waker.drain(),
                    TOKEN_LISTENER => self.accept_ready(),
                    token => self.conn_event(token, ev),
                }
            }

            self.apply_completions();

            let now = Instant::now();
            fired.clear();
            self.wheel.advance(now, &mut fired);
            for &(token, kind) in &fired {
                self.deadline_fired(token, kind, now);
            }

            if self.shutdown_requested() && !self.draining {
                self.begin_drain(now);
            }
            if self.draining && self.drain_complete(now) {
                break;
            }

            ReactorMetrics::set(&self.metrics.queue_depth, self.queue.len() as u64);
            ReactorMetrics::set(&self.metrics.connections, self.open as u64);
        }
        // Let workers observe the closed queue and exit; completions for
        // force-closed connections are simply dropped.
        self.queue.close();
        Ok(())
    }

    fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
            || self.signal_flag.is_some_and(|f| f.load(Ordering::SeqCst))
    }

    fn poll_timeout(&self, now: Instant) -> Option<Duration> {
        let mut timeout = self.wheel.next_wake(now);
        if let Some(at) = self.drain_deadline_at {
            let until = at.saturating_duration_since(now);
            timeout = Some(timeout.map_or(until, |t| t.min(until)));
        }
        timeout
    }

    // ---- accept path ----

    fn accept_ready(&mut self) {
        loop {
            let accepted = match &self.listener {
                Some(listener) => listener.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, _peer)) => self.admit(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient per-connection accept failures (ECONNABORTED
                // and friends): skip this attempt, keep listening.
                Err(_) => return,
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        if self.open >= self.config.max_connections || self.draining {
            ReactorMetrics::bump(&self.metrics.refused);
            drop(stream);
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            ReactorMetrics::bump(&self.metrics.refused);
            return;
        }
        let _ = stream.set_nodelay(true);
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(None);
                self.gens.push(0);
                (self.slots.len() - 1) as u32
            }
        };
        let token = self.token_for(idx);
        let interest = Interest::READABLE;
        if self
            .poller
            .register(stream.as_raw_fd(), token, interest)
            .is_err()
        {
            self.free.push(idx);
            return;
        }
        self.slots[idx as usize] = Some(Slot {
            stream,
            conn: Conn::new(self.config.max_frame_len),
            interest,
        });
        self.open += 1;
        ReactorMetrics::bump(&self.metrics.accepted);
    }

    fn token_for(&self, idx: u32) -> u64 {
        ((self.gens[idx as usize] as u64) << 32) | idx as u64
    }

    /// Resolves a token to a live slot index, rejecting stale generations.
    fn resolve(&self, token: u64) -> Option<u32> {
        let idx = (token & u32::MAX as u64) as u32;
        let gen = (token >> 32) as u32;
        if (idx as usize) < self.slots.len()
            && self.gens[idx as usize] == gen
            && self.slots[idx as usize].is_some()
        {
            Some(idx)
        } else {
            None
        }
    }

    // ---- connection I/O ----

    fn conn_event(&mut self, token: u64, ev: Event) {
        let Some(idx) = self.resolve(token) else {
            return;
        };
        if ev.error {
            self.close_conn(idx);
            return;
        }
        let Some(mut slot) = self.slots[idx as usize].take() else {
            return;
        };
        let mut fatal = false;
        if ev.readable && !slot.conn.read_closed() && !slot.conn.closing() {
            fatal = self.read_ready(token, &mut slot);
        }
        if !fatal && ev.writable {
            fatal = write_pending(&mut slot.conn, &mut slot.stream);
        }
        self.slots[idx as usize] = Some(slot);
        if fatal {
            self.close_conn(idx);
        } else {
            self.settle(idx);
        }
    }

    /// Reads until `WouldBlock`, framing and dispatching complete lines.
    /// Returns `true` on a fatal connection error.
    fn read_ready(&mut self, token: u64, slot: &mut Slot) -> bool {
        let mut buf = [0u8; 16 * 1024];
        loop {
            match slot.stream.read(&mut buf) {
                Ok(0) => {
                    slot.conn.mark_read_closed();
                    break;
                }
                Ok(n) => {
                    if let Err(FrameError::TooLarge { limit }) = slot.conn.push_bytes(&buf[..n]) {
                        ReactorMetrics::bump(&self.metrics.frame_too_large);
                        let body = self.handler.reject(None, Reject::FrameTooLarge { limit });
                        let seq = slot.conn.assign_seq();
                        slot.conn.complete(seq, Some(body));
                        slot.conn.mark_closing();
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return true,
            }
        }
        self.dispatch_lines(token, &mut slot.conn);
        false
    }

    /// Drains complete lines out of the framer into the job queue.
    fn dispatch_lines(&mut self, token: u64, conn: &mut Conn) {
        while let Some(raw) = conn.next_line() {
            ReactorMetrics::bump(&self.metrics.frames);
            let text = String::from_utf8_lossy(&raw);
            let line = text.trim();
            if line.is_empty() {
                // Blank lines get no response.
                continue;
            }
            let seq = conn.assign_seq();
            let job = Job {
                token,
                seq,
                line: line.to_string(),
            };
            match self.queue.try_push(job) {
                Ok(()) => {}
                Err(PushError::Full(job)) => {
                    ReactorMetrics::bump(&self.metrics.rejected_overload);
                    let body = self.handler.reject(Some(&job.line), Reject::Overloaded);
                    conn.complete(job.seq, Some(body));
                }
                Err(PushError::Closed(job)) => {
                    let body = self.handler.reject(Some(&job.line), Reject::ShuttingDown);
                    conn.complete(job.seq, Some(body));
                }
            }
        }
    }

    /// Post-I/O housekeeping for one connection: flush ready responses,
    /// write, update interest and deadlines, and close if finished.
    fn settle(&mut self, idx: u32) {
        let token = self.token_for(idx);
        let Some(mut slot) = self.slots[idx as usize].take() else {
            return;
        };
        let moved = slot.conn.flush_ready();
        if moved > 0 {
            self.metrics
                .responses
                .fetch_add(moved as u64, Ordering::Relaxed);
        }
        let fatal = write_pending(&mut slot.conn, &mut slot.stream);
        let done = !fatal && self.finished(&slot.conn);
        if fatal || done {
            drop(slot);
            // The slot was already taken; rebuild enough state for
            // close_conn's bookkeeping.
            self.gens[idx as usize] = self.gens[idx as usize].wrapping_add(1);
            self.free.push(idx);
            self.open = self.open.saturating_sub(1);
            ReactorMetrics::bump(&self.metrics.closed);
            return;
        }

        self.update_deadlines(token, &mut slot);
        let desired = Interest {
            readable: !self.draining && !slot.conn.read_closed() && !slot.conn.closing(),
            writable: slot.conn.wants_write(),
        };
        if desired != slot.interest {
            if self
                .poller
                .modify(slot.stream.as_raw_fd(), token, desired)
                .is_err()
            {
                drop(slot);
                self.gens[idx as usize] = self.gens[idx as usize].wrapping_add(1);
                self.free.push(idx);
                self.open = self.open.saturating_sub(1);
                ReactorMetrics::bump(&self.metrics.closed);
                return;
            }
            slot.interest = desired;
        }
        self.slots[idx as usize] = Some(slot);
    }

    /// Whether the connection has nothing left to do and should close.
    /// Once input has ended (EOF or drain), a buffered partial frame can
    /// never complete, so only pending output keeps the connection alive.
    fn finished(&self, conn: &Conn) -> bool {
        if conn.closing() {
            return !conn.wants_write();
        }
        let no_more_input = conn.read_closed() || self.draining;
        no_more_input && conn.fully_flushed()
    }

    fn update_deadlines(&mut self, token: u64, slot: &mut Slot) {
        let now = Instant::now();
        if let Some(window) = self.config.read_deadline {
            if slot.conn.has_partial_frame() && !slot.conn.read_closed() {
                if slot.conn.read_deadline().is_none() {
                    let at = now + window;
                    slot.conn.arm_read_deadline(at);
                    self.wheel.schedule((token, TimerKind::Read), at);
                }
            } else {
                slot.conn.clear_read_deadline();
            }
        }
        if let Some(window) = self.config.write_deadline {
            if slot.conn.wants_write() {
                if slot.conn.write_deadline().is_none() {
                    let at = now + window;
                    slot.conn.arm_write_deadline(at);
                    self.wheel.schedule((token, TimerKind::Write), at);
                }
            } else {
                slot.conn.clear_write_deadline();
            }
        }
    }

    /// A timer entry fired; validate it against live state (lazy cancel).
    fn deadline_fired(&mut self, token: u64, kind: TimerKind, now: Instant) {
        let Some(idx) = self.resolve(token) else {
            return;
        };
        let due = {
            let Some(slot) = self.slots[idx as usize].as_ref() else {
                return;
            };
            let armed = match kind {
                TimerKind::Read => slot.conn.read_deadline(),
                TimerKind::Write => slot.conn.write_deadline(),
            };
            armed.is_some_and(|at| at <= now)
        };
        if due {
            ReactorMetrics::bump(&self.metrics.deadline_closes);
            self.close_conn(idx);
        }
    }

    // ---- completions ----

    fn apply_completions(&mut self) {
        let batch: Vec<Completion> = {
            let mut mailbox = lock_recover(&self.completions);
            std::mem::take(&mut *mailbox)
        };
        let mut touched: Vec<u32> = Vec::new();
        for completion in batch {
            let Some(idx) = self.resolve(completion.token) else {
                continue;
            };
            if let Some(slot) = self.slots[idx as usize].as_mut() {
                slot.conn.complete(completion.seq, completion.response);
                if !touched.contains(&idx) {
                    touched.push(idx);
                }
            }
        }
        for idx in touched {
            self.settle(idx);
        }
    }

    // ---- shutdown ----

    fn begin_drain(&mut self, now: Instant) {
        self.draining = true;
        self.drain_deadline_at = Some(now + self.config.drain_deadline);
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(listener.as_raw_fd());
        }
        // Refuse new work; queued jobs still drain through the workers.
        self.queue.close();
        // Frames already buffered but not yet dispatched arrived after the
        // drain began: answer them with a structured shutdown reject so
        // ordering stays intact, then let the flush finish.
        for idx in 0..self.slots.len() as u32 {
            let token = self.token_for(idx);
            let Some(mut slot) = self.slots[idx as usize].take() else {
                continue;
            };
            self.dispatch_lines(token, &mut slot.conn);
            self.slots[idx as usize] = Some(slot);
            self.settle(idx);
        }
    }

    fn drain_complete(&mut self, now: Instant) -> bool {
        if self.open == 0 {
            return true;
        }
        if self.drain_deadline_at.is_some_and(|at| at <= now) {
            for idx in 0..self.slots.len() as u32 {
                if self.slots[idx as usize].is_some() {
                    ReactorMetrics::bump(&self.metrics.drain_force_closes);
                    self.close_conn(idx);
                }
            }
            return true;
        }
        false
    }

    fn close_conn(&mut self, idx: u32) {
        if let Some(slot) = self.slots[idx as usize].take() {
            let _ = self.poller.deregister(slot.stream.as_raw_fd());
            drop(slot);
            self.gens[idx as usize] = self.gens[idx as usize].wrapping_add(1);
            self.free.push(idx);
            self.open = self.open.saturating_sub(1);
            ReactorMetrics::bump(&self.metrics.closed);
        }
    }
}

/// Writes pending response bytes until `WouldBlock`; returns `true` on a
/// fatal connection error.
fn write_pending(conn: &mut Conn, stream: &mut TcpStream) -> bool {
    while conn.wants_write() {
        match stream.write(conn.pending_write()) {
            Ok(0) => return true,
            Ok(n) => {
                conn.consume_written(n);
                if !conn.wants_write() {
                    conn.clear_write_deadline();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::sync::mpsc;

    /// Toy protocol: uppercase the line; rejects render as `ERR:<kind>`.
    struct Upper;

    impl LineHandler for Upper {
        fn handle(&self, line: &str) -> String {
            line.to_uppercase()
        }

        fn reject(&self, _line: Option<&str>, reject: Reject) -> String {
            match reject {
                Reject::Overloaded => "ERR:overloaded".to_string(),
                Reject::FrameTooLarge { .. } => "ERR:frame_too_large".to_string(),
                Reject::ShuttingDown => "ERR:shutting_down".to_string(),
                Reject::Internal => "ERR:internal".to_string(),
            }
        }
    }

    fn spawn_upper(config: ReactorConfig) -> ReactorHandle {
        spawn(config, Arc::new(Upper)).expect("spawn reactor")
    }

    /// [`Upper`] behind a gate: `handle` reports each frame on `started`
    /// and then parks until the test sends on `release`; `reject` reports
    /// each refusal on `rejected`.
    struct Gate {
        started: Mutex<mpsc::Sender<String>>,
        release: Mutex<mpsc::Receiver<()>>,
        rejected: Mutex<mpsc::Sender<Reject>>,
    }

    impl LineHandler for Gate {
        fn handle(&self, line: &str) -> String {
            let _ = lock_recover(&self.started).send(line.to_string());
            let _ = lock_recover(&self.release).recv();
            Upper.handle(line)
        }

        fn reject(&self, line: Option<&str>, reject: Reject) -> String {
            let _ = lock_recover(&self.rejected).send(reject);
            Upper.reject(line, reject)
        }
    }

    #[test]
    fn answers_pipelined_requests_in_order() {
        let handle = spawn_upper(ReactorConfig::default());
        let addr = handle.local_addr();
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(b"alpha\nbeta\n\ngamma\n").unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut line = String::new();
        let mut got = Vec::new();
        for _ in 0..3 {
            line.clear();
            reader.read_line(&mut line).unwrap();
            got.push(line.trim().to_string());
        }
        assert_eq!(got, vec!["ALPHA", "BETA", "GAMMA"]);
        handle.shutdown();
        handle.join().unwrap();
    }

    #[test]
    fn full_queue_rejects_overloaded_and_keeps_answer_order() {
        let wait = Duration::from_secs(10);
        let (started_tx, started) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let (rejected_tx, rejected) = mpsc::channel();
        let gate = Gate {
            started: Mutex::new(started_tx),
            release: Mutex::new(release_rx),
            rejected: Mutex::new(rejected_tx),
        };
        let config = ReactorConfig {
            workers: 1,
            queue_capacity: 1,
            ..ReactorConfig::default()
        };
        let handle = spawn(config, Arc::new(gate)).expect("spawn reactor");
        let mut client = TcpStream::connect(handle.local_addr()).unwrap();
        client.set_read_timeout(Some(wait)).unwrap();

        // Frame 1 occupies the only worker and leaves the queue empty.
        client.write_all(b"one\n").unwrap();
        assert_eq!(started.recv_timeout(wait).unwrap(), "one");
        // Frame 2 takes the single queue slot; frame 3 finds it full.
        client.write_all(b"two\nthree\n").unwrap();
        assert_eq!(rejected.recv_timeout(wait).unwrap(), Reject::Overloaded);
        assert_eq!(
            handle.metrics().rejected_overload.load(Ordering::Relaxed),
            1
        );

        release.send(()).unwrap();
        release.send(()).unwrap();
        let mut reader = BufReader::new(client);
        let mut got = Vec::new();
        for _ in 0..3 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            got.push(line.trim().to_string());
        }
        assert_eq!(got, vec!["ONE", "TWO", "ERR:overloaded"]);
        assert_eq!(started.recv_timeout(wait).unwrap(), "two");
        handle.shutdown();
        handle.join().unwrap();
    }

    #[test]
    fn oversized_frame_gets_structured_error_then_close() {
        let config = ReactorConfig {
            max_frame_len: 32,
            ..ReactorConfig::default()
        };
        let handle = spawn_upper(config);
        let mut client = TcpStream::connect(handle.local_addr()).unwrap();
        client.write_all(&[b'x'; 128]).unwrap();
        let mut reader = BufReader::new(client);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "ERR:frame_too_large");
        // The connection then closes.
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0);
        assert_eq!(handle.metrics().frame_too_large.load(Ordering::Relaxed), 1);
        handle.shutdown();
        handle.join().unwrap();
    }

    #[test]
    fn graceful_shutdown_answers_inflight_then_exits() {
        let handle = spawn_upper(ReactorConfig::default());
        let mut client = TcpStream::connect(handle.local_addr()).unwrap();
        client.write_all(b"drain-me\n").unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "DRAIN-ME");
        handle.shutdown();
        // After the drain the peer observes EOF.
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0);
        handle.join().unwrap();
    }

    #[test]
    fn read_deadline_reaps_stuck_partial_frames() {
        let config = ReactorConfig {
            read_deadline: Some(Duration::from_millis(150)),
            ..ReactorConfig::default()
        };
        let handle = spawn_upper(config);
        let mut client = TcpStream::connect(handle.local_addr()).unwrap();
        client.write_all(b"never-finished").unwrap(); // no newline
        let mut reader = BufReader::new(client);
        let mut line = String::new();
        // The server closes us without a response once the deadline hits.
        assert_eq!(reader.read_line(&mut line).unwrap(), 0);
        assert!(
            handle.metrics().deadline_closes.load(Ordering::Relaxed) >= 1,
            "close should be attributed to the read deadline"
        );
        handle.shutdown();
        handle.join().unwrap();
    }

    #[test]
    fn many_connections_interleave() {
        let handle = spawn_upper(ReactorConfig::default());
        let addr = handle.local_addr();
        let mut clients: Vec<TcpStream> =
            (0..32).map(|_| TcpStream::connect(addr).unwrap()).collect();
        for (i, c) in clients.iter_mut().enumerate() {
            c.write_all(format!("msg-{i}\n").as_bytes()).unwrap();
        }
        for (i, c) in clients.into_iter().enumerate() {
            let mut reader = BufReader::new(c);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim(), format!("MSG-{i}"));
        }
        handle.shutdown();
        handle.join().unwrap();
    }
}
