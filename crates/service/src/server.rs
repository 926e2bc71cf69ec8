//! The protocol entry points shared by every front end: [`handle_line`]
//! executes one request line, [`serve_stdio`] runs it over stdin/stdout,
//! and [`query_once`] is the matching one-shot TCP client. The TCP server
//! itself is the reactor in [`crate::reactor_server`].

use crate::engine::Engine;
use crate::protocol::{self, Request};
use crate::reactor_server::render_reject;
use awb_reactor::{FrameError, LineFramer, Reject};
use serde_json::Value;
use std::io::{self, BufRead, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// The `id` of a (possibly malformed) request line, so error responses
/// stay correlatable; `null` when the line is not a JSON object.
pub(crate) fn request_id(line: &str) -> Value {
    serde_json::from_str::<Value>(line)
        .ok()
        .and_then(|v| v.get("id").cloned())
        .unwrap_or(Value::Null)
}

/// Parses and executes one request line, rendering the response line.
pub fn handle_line(engine: &Engine, line: &str) -> String {
    let request = match Request::parse(line) {
        Ok(r) => r,
        Err(e) => {
            crate::metrics::Metrics::bump(&engine.metrics.requests_error);
            // Echo the id even when validation fails so clients can still
            // correlate the error; truly malformed JSON leaves it null.
            return protocol::error_response(&request_id(line), &e);
        }
    };
    let started = Instant::now();
    let deadline = request
        .deadline_ms
        .map(|ms| started + Duration::from_millis(ms));
    match engine.handle(&request, deadline) {
        Ok((result, cache)) => {
            crate::metrics::Metrics::bump(&engine.metrics.requests_ok);
            let elapsed_us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            protocol::ok_response(&request.id, request.query, result, cache, elapsed_us)
        }
        Err(e) => {
            crate::metrics::Metrics::bump(&engine.metrics.requests_error);
            protocol::error_response(&request.id, &e)
        }
    }
}

/// Single-shot mode: serves newline-delimited requests from `input` until
/// EOF, writing one response line each to `output`. Returns the number of
/// response lines written.
///
/// Input is framed as the reactor frames a connection: a [`LineFramer`]
/// capped at `max_frame_len` bytes, lossy UTF-8 decoding, surrounding
/// whitespace trimmed, blank frames skipped. A final line without its
/// `\n` is still answered at EOF. A frame that outgrows the cap is
/// answered with the reactor's `frame_too_large` error and ends the
/// session.
///
/// # Errors
///
/// Propagates write failures (read errors end the stream instead).
pub fn serve_stdio<R: Read, W: Write>(
    engine: &Engine,
    mut input: R,
    output: &mut W,
    max_frame_len: usize,
) -> io::Result<usize> {
    let mut framer = LineFramer::new(max_frame_len);
    let mut chunk = [0u8; 16 * 1024];
    let mut served = 0;
    loop {
        let n = match input.read(&mut chunk) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => 0,
        };
        // EOF terminates a pending partial line so it is answered too.
        let bytes: &[u8] = match n {
            0 if framer.has_partial() => b"\n",
            0 => return Ok(served),
            n => &chunk[..n],
        };
        // Push line by line, so every line completed before an oversized
        // one is answered however the reads happened to split the input.
        for piece in bytes.split_inclusive(|&b| b == b'\n') {
            if let Err(FrameError::TooLarge { limit }) = framer.push(piece) {
                let body = render_reject(engine, None, Reject::FrameTooLarge { limit });
                write_line(output, &body)?;
                return Ok(served + 1);
            }
            while let Some(raw) = framer.next_line() {
                let text = String::from_utf8_lossy(&raw);
                let line = text.trim();
                if line.is_empty() {
                    continue;
                }
                write_line(output, &handle_line(engine, line))?;
                served += 1;
            }
        }
        if n == 0 {
            return Ok(served);
        }
    }
}

fn write_line<W: Write>(output: &mut W, line: &str) -> io::Result<()> {
    output.write_all(line.as_bytes())?;
    output.write_all(b"\n")?;
    output.flush()
}

/// A minimal blocking client for one request/response exchange, used by the
/// CLI's `query` subcommand and the integration tests.
///
/// # Errors
///
/// Propagates connection and I/O failures; `ErrorKind::UnexpectedEof` when
/// the server closes without answering.
pub fn query_once<A: ToSocketAddrs>(addr: A, request_line: &str) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(request_line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()?;
    let mut reader = io::BufReader::new(stream);
    let mut line = String::new();
    let n = reader.read_line(&mut line)?;
    if n == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection without answering",
        ));
    }
    Ok(line.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use std::io::Cursor;

    // Single-line on purpose: the wire protocol is one request per line.
    const RELAY: &str = r#""topology": {"nodes": [[0,0],[50,0],[100,0]], "links": [[0,1],[1,2]], "alone_rates": [[54],[54]], "conflicts": [[0,1]]}"#;

    const MAX_FRAME: usize = 1 << 20;

    fn parse_lines(out: Vec<u8>) -> Vec<Value> {
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect()
    }

    #[test]
    fn stdio_round_trip() {
        let engine = Engine::new(EngineConfig::default());
        let input = format!(
            "{{\"query\": \"available_bandwidth\", \"id\": 1, {RELAY}, \"path\": [0,1]}}\n\
             not json\n\
             {{\"query\": \"stats\"}}\n"
        );
        let mut out = Vec::new();
        let served = serve_stdio(&engine, Cursor::new(input), &mut out, MAX_FRAME).unwrap();
        assert_eq!(served, 3);
        let lines = parse_lines(out);
        assert_eq!(lines[0].get("status").and_then(Value::as_str), Some("ok"));
        // Two conflicting 54 Mbps hops share the channel: 27 Mbps end to end.
        let bw = lines[0]["result"]["bandwidth_mbps"].as_f64().unwrap();
        assert!((bw - 27.0).abs() < 1e-6, "got {bw}");
        assert_eq!(
            lines[1].get("status").and_then(Value::as_str),
            Some("error")
        );
        assert_eq!(
            lines[2]["result"]["requests_ok"].as_u64(),
            Some(1),
            "stats sees the earlier success"
        );
    }

    #[test]
    fn stdio_frames_input_like_the_reactor() {
        // Invalid UTF-8 decodes lossily into a malformed request (an error
        // response, not the end of the session), the blank frame gets no
        // response, and the last line is answered without its `\n`.
        let engine = Engine::new(EngineConfig::default());
        let input: &[u8] =
            b"{\"query\": \"stats\", \"id\": 1}\n\xff\xfe garbage\n   \n {\"query\": \"stats\", \"id\": 2} ";
        let mut out = Vec::new();
        assert_eq!(serve_stdio(&engine, input, &mut out, MAX_FRAME).unwrap(), 3);
        let lines = parse_lines(out);
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0]["id"].as_u64(), Some(1));
        assert_eq!(lines[1]["status"].as_str(), Some("error"));
        assert_eq!(lines[1]["id"], Value::Null);
        assert_eq!(lines[2]["status"].as_str(), Some("ok"));
        assert_eq!(lines[2]["id"].as_u64(), Some(2));

        // The first read ends inside a 100-byte frame, past the 64-byte
        // cap: the frame is refused with the reactor's body and nothing
        // after it is answered.
        let engine = Engine::new(EngineConfig::default());
        let head = [&b"{\"query\": \"stats\", \"id\": 1}\n"[..], &[b'x'; 100]].concat();
        let input = head
            .as_slice()
            .chain(&b"\n{\"query\": \"stats\", \"id\": 3}\n"[..]);
        let mut out = Vec::new();
        assert_eq!(serve_stdio(&engine, input, &mut out, 64).unwrap(), 2);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let reference = Engine::new(EngineConfig::default());
        assert_eq!(
            lines[1],
            render_reject(&reference, None, Reject::FrameTooLarge { limit: 64 })
        );
        assert!(lines[1].contains("frame_too_large"), "{}", lines[1]);
    }

    #[test]
    fn deadline_zero_is_rejected_structurally() {
        let engine = Engine::new(EngineConfig::default());
        let line = format!(
            r#"{{"query": "available_bandwidth", {RELAY}, "path": [0,1], "deadline_ms": 0}}"#
        );
        let response: Value = serde_json::from_str(&handle_line(&engine, &line)).unwrap();
        assert_eq!(
            response["error"].get("code").and_then(Value::as_str),
            Some("deadline_exceeded")
        );
    }
}
