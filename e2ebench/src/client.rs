//! The load client: one thread, at most two connections, each keeping one
//! request in flight (a closed loop).

use crate::check::parse_reply;
use awb_reactor::{Interest, Poller};
use serde_json::Value;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Longest the client waits for any reply before it declares the server
/// stalled and stops, counting the rest as unanswered.
pub const STALL: Duration = Duration::from_secs(30);

/// One client connection.
pub struct Lane {
    stream: TcpStream,
}

impl Lane {
    /// Connects a blocking lane with Nagle off.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: SocketAddr) -> io::Result<Lane> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(STALL))?;
        Ok(Lane { stream })
    }

    /// Sends one request line (no trailing newline) and blocks for its reply.
    ///
    /// # Errors
    ///
    /// I/O failures, a close before the reply, or no reply within [`STALL`].
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        let mut reader = BufReader::new(&self.stream);
        let mut reply = String::new();
        if reader.read_line(&mut reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before replying",
            ));
        }
        if !reader.buffer().is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "server sent bytes beyond the one reply",
            ));
        }
        Ok(reply.trim_end().to_string())
    }

    /// The server's `stats` payload.
    ///
    /// # Errors
    ///
    /// I/O failures or an unparseable reply.
    pub fn stats(&mut self) -> Result<Value, String> {
        let reply = self
            .request(r#"{"query":"stats"}"#)
            .map_err(|e| format!("stats: {e}"))?;
        Ok(parse_reply(&reply)?["result"].clone())
    }
}

/// Sees each reply: `(op, reply line, sent, received)`.
pub type OnReply<'a> = dyn FnMut(usize, &[u8], Instant, Instant) + 'a;

/// How a closed-loop pass ended.
#[derive(Debug)]
pub struct Pass {
    /// Wall time from the first send to the last reply.
    pub elapsed: Duration,
    /// Ops that never got a reply (connection lost or server stalled).
    pub unanswered: usize,
}

struct Slot<'l> {
    lane: &'l mut Lane,
    inbuf: Vec<u8>,
    ops: Vec<usize>,
    next: usize,
    in_flight: bool,
    out: Vec<u8>,
    out_pos: usize,
    sent_at: Instant,
    interest: Interest,
    open: bool,
}

impl Slot<'_> {
    /// Ops this lane still owes a reply for.
    fn owed(&self) -> usize {
        self.ops.len() - self.next + usize::from(self.in_flight)
    }
}

/// Drives every lane through its op list, one request in flight per lane,
/// from this thread. `line(op)` is the request (with trailing newline);
/// `reply(op, bytes, started, finished)` sees each reply line. A reply is
/// timed from the first byte written to the full line read.
///
/// # Errors
///
/// Poller failures; lost connections and stalls are reported in
/// [`Pass::unanswered`] instead.
pub fn drive<'b>(
    lanes: Vec<(&mut Lane, Vec<usize>)>,
    line: &dyn Fn(usize) -> &'b [u8],
    reply: &mut OnReply<'_>,
) -> io::Result<Pass> {
    let poller = Poller::new()?;
    let started = Instant::now();
    let mut slots: Vec<Slot> = Vec::with_capacity(lanes.len());
    for (token, (lane, ops)) in lanes.into_iter().enumerate() {
        lane.stream.set_nonblocking(true)?;
        poller.register(lane.stream.as_raw_fd(), token as u64, Interest::READABLE)?;
        slots.push(Slot {
            lane,
            inbuf: Vec::new(),
            ops,
            next: 0,
            in_flight: false,
            out: Vec::new(),
            out_pos: 0,
            sent_at: started,
            interest: Interest::READABLE,
            open: true,
        });
    }
    let mut unanswered = 0;
    let mut open = 0;
    for (token, slot) in slots.iter_mut().enumerate() {
        slot.open = !slot.ops.is_empty() && send_next(slot, line).is_ok();
        if slot.open {
            open += 1;
            update_interest(&poller, token, slot)?;
        }
    }
    let mut events = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut last_progress = Instant::now();
    while open > 0 {
        events.clear();
        poller.wait(&mut events, Some(Duration::from_millis(500)))?;
        if events.is_empty() && last_progress.elapsed() >= STALL {
            break;
        }
        for ev in events.iter().copied() {
            let token = ev.token as usize;
            let slot = &mut slots[token];
            if !slot.open {
                continue;
            }
            let mut closed = ev.writable && flush(slot).is_err();
            if ev.readable || ev.hangup || ev.error {
                loop {
                    match slot.lane.stream.read(&mut chunk) {
                        Ok(0) => {
                            closed = true;
                            break;
                        }
                        Ok(n) => slot.inbuf.extend_from_slice(&chunk[..n]),
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(_) => {
                            closed = true;
                            break;
                        }
                    }
                }
            }
            if let Some(pos) = slot.inbuf.iter().position(|&b| b == b'\n') {
                let finished = Instant::now();
                last_progress = finished;
                slot.in_flight = false;
                reply(
                    slot.ops[slot.next - 1],
                    &slot.inbuf[..pos],
                    slot.sent_at,
                    finished,
                );
                slot.inbuf.drain(..=pos);
                if slot.next == slot.ops.len() {
                    slot.open = false;
                    open -= 1;
                    continue;
                }
                closed = closed || send_next(slot, line).is_err();
            }
            if closed {
                unanswered += slot.owed();
                slot.open = false;
                open -= 1;
                continue;
            }
            update_interest(&poller, token, slot)?;
        }
    }
    for slot in &slots {
        if slot.open {
            unanswered += slot.owed();
        }
        let _ = poller.deregister(slot.lane.stream.as_raw_fd());
        slot.lane.stream.set_nonblocking(false)?;
    }
    Ok(Pass {
        elapsed: started.elapsed(),
        unanswered,
    })
}

fn send_next<'b>(slot: &mut Slot<'_>, line: &dyn Fn(usize) -> &'b [u8]) -> io::Result<()> {
    let op = slot.ops[slot.next];
    slot.next += 1;
    slot.in_flight = true;
    slot.out.clear();
    slot.out.extend_from_slice(line(op));
    slot.out_pos = 0;
    slot.sent_at = Instant::now();
    flush(slot)
}

fn flush(slot: &mut Slot<'_>) -> io::Result<()> {
    while slot.out_pos < slot.out.len() {
        match slot.lane.stream.write(&slot.out[slot.out_pos..]) {
            Ok(n) => slot.out_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Asks for writability only while request bytes are pending (the poller
/// is level-triggered).
fn update_interest(poller: &Poller, token: usize, slot: &mut Slot<'_>) -> io::Result<()> {
    let want = Interest {
        readable: true,
        writable: slot.out_pos < slot.out.len(),
    };
    if want != slot.interest {
        poller.modify(slot.lane.stream.as_raw_fd(), token as u64, want)?;
        slot.interest = want;
    }
    Ok(())
}
