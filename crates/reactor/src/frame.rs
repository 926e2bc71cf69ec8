//! Incremental newline framing with partial-read buffering and a frame
//! size cap.
//!
//! The wire protocol is one JSON request per `\n`-terminated line. A
//! nonblocking read can deliver any prefix of that — half a line, three
//! lines and a half, one byte — so the framer accumulates bytes and yields
//! complete lines in arrival order, exactly the frames of splitting the
//! whole stream on `\n` at once: frames exclude the terminator, and the
//! unterminated tail is held until more bytes (or EOF) arrive. The
//! service's stdio mode frames stdin with the same type.
//!
//! The cap turns a slow-loris client (or a genuinely huge request) into a
//! structured [`FrameError::TooLarge`] instead of unbounded buffering; the
//! caller answers with a `frame_too_large` error and closes.

/// Framing failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// A line exceeded the configured cap before its `\n` arrived.
    TooLarge {
        /// The configured cap in bytes.
        limit: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLarge { limit } => {
                write!(f, "frame exceeds the {limit}-byte limit")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Accumulates bytes and yields complete `\n`-delimited lines.
#[derive(Debug)]
pub struct LineFramer {
    buf: Vec<u8>,
    /// Bytes of `buf` already scanned for `\n` (resume point, so repeated
    /// pushes of a long partial line stay O(new bytes)).
    scanned: usize,
    /// Bytes after the last `\n` in `buf` (the unterminated tail).
    tail: usize,
    /// Max bytes a single unterminated line may occupy.
    max_frame: usize,
    /// Set once [`FrameError::TooLarge`] fired; the framer stays poisoned.
    poisoned: bool,
}

impl LineFramer {
    /// Creates a framer with the given per-line byte cap.
    pub fn new(max_frame: usize) -> LineFramer {
        LineFramer {
            buf: Vec::new(),
            scanned: 0,
            tail: 0,
            max_frame,
            poisoned: false,
        }
    }

    /// Appends freshly read bytes.
    ///
    /// # Errors
    ///
    /// [`FrameError::TooLarge`] when the unterminated tail exceeds the cap
    /// before its `\n` arrives; the framer is poisoned afterwards and
    /// yields no further lines.
    // awb-audit: hot
    pub fn push(&mut self, bytes: &[u8]) -> Result<(), FrameError> {
        if self.poisoned {
            return Err(FrameError::TooLarge {
                limit: self.max_frame,
            });
        }
        match bytes.iter().rposition(|&b| b == b'\n') {
            Some(pos) => self.tail = bytes.len() - pos - 1,
            None => self.tail += bytes.len(),
        }
        self.buf.extend_from_slice(bytes);
        if self.tail > self.max_frame {
            self.poisoned = true;
            return Err(FrameError::TooLarge {
                limit: self.max_frame,
            });
        }
        Ok(())
    }

    /// Pops the next complete line (without its `\n`), if one is buffered.
    pub fn next_line(&mut self) -> Option<Vec<u8>> {
        if self.poisoned {
            return None;
        }
        match self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            Some(offset) => {
                let mut line: Vec<u8> = self.buf.drain(..=self.scanned + offset).collect();
                line.pop(); // the `\n`
                self.scanned = 0;
                Some(line)
            }
            None => {
                self.scanned = self.buf.len();
                None
            }
        }
    }

    /// Whether an unterminated partial line is buffered (drives the read
    /// deadline: a partial frame that never completes is a slow client).
    pub fn has_partial(&self) -> bool {
        !self.poisoned && self.tail > 0
    }

    /// Bytes currently buffered (complete lines not yet popped + tail).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(framer: &mut LineFramer) -> Vec<String> {
        let mut out = Vec::new();
        while let Some(line) = framer.next_line() {
            out.push(String::from_utf8(line).unwrap());
        }
        out
    }

    #[test]
    fn reassembles_lines_across_arbitrary_chunks() {
        let mut f = LineFramer::new(1024);
        f.push(b"hel").unwrap();
        assert!(lines(&mut f).is_empty());
        assert!(f.has_partial());
        f.push(b"lo\nwo").unwrap();
        assert_eq!(lines(&mut f), vec!["hello"]);
        f.push(b"rld\n\nx\n").unwrap();
        assert_eq!(lines(&mut f), vec!["world", "", "x"]);
        assert!(!f.has_partial());
    }

    #[test]
    fn one_byte_reads_work() {
        let mut f = LineFramer::new(16);
        for &b in b"a\nbc\n" {
            f.push(&[b]).unwrap();
        }
        assert_eq!(lines(&mut f), vec!["a", "bc"]);
    }

    #[test]
    fn partial_then_more_lines_interleave() {
        let mut f = LineFramer::new(64);
        f.push(b"first\nsec").unwrap();
        assert_eq!(lines(&mut f), vec!["first"]);
        f.push(b"ond\nthird\n").unwrap();
        assert_eq!(lines(&mut f), vec!["second", "third"]);
    }

    #[test]
    fn oversized_partial_line_poisons() {
        let mut f = LineFramer::new(4);
        f.push(b"ok\n").unwrap();
        assert_eq!(f.push(b"toolong"), Err(FrameError::TooLarge { limit: 4 }));
        // Poisoned: even the previously complete line is withheld (the
        // caller is about to error out and close).
        assert_eq!(f.next_line(), None);
        assert!(f.push(b"x").is_err());
        assert!(!f.has_partial());
    }

    #[test]
    fn exact_cap_line_is_fine() {
        let mut f = LineFramer::new(4);
        f.push(b"abcd\n").unwrap();
        assert_eq!(lines(&mut f), vec!["abcd"]);
    }
}
