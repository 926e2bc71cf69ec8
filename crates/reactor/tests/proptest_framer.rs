//! Property tests pinning the reactor's incremental [`LineFramer`] to
//! one-shot framing: however a byte stream is chunked across nonblocking
//! reads, the sequence of yielded frames must be byte-identical to
//! splitting the whole stream on `\n` at once.
//!
//! This is the contract the differential service tests build on — if the
//! framer ever diverged under some adversarial read pattern, the reactor
//! could answer the same client bytes differently from `handle_line` run
//! line by line.

use awb_reactor::{FrameError, LineFramer};
use proptest::prelude::*;

/// One-shot framing of the complete stream: frames are the
/// `\n`-separated segments, terminator excluded; an unterminated tail is
/// not a frame.
fn reference_frames(stream: &[u8]) -> (Vec<Vec<u8>>, Vec<u8>) {
    let mut frames = Vec::new();
    let mut rest = stream;
    while let Some(pos) = rest.iter().position(|&b| b == b'\n') {
        frames.push(rest[..pos].to_vec());
        rest = &rest[pos + 1..];
    }
    (frames, rest.to_vec())
}

/// Cuts `stream` into chunks whose sizes cycle through `cuts` (1-byte
/// reads, split newlines, multi-frame gulps — whatever the strategy drew).
fn chunked<'a>(stream: &'a [u8], cuts: &[usize]) -> Vec<&'a [u8]> {
    let mut chunks = Vec::new();
    let mut at = 0;
    let mut i = 0;
    while at < stream.len() {
        let step = cuts.get(i % cuts.len()).copied().unwrap_or(1).max(1);
        let end = (at + step).min(stream.len());
        chunks.push(&stream[at..end]);
        at = end;
        i += 1;
    }
    chunks
}

/// A byte stream biased toward framing edge cases: newline-heavy
/// alphabets, empty frames, and frames around the cap boundary.
fn stream_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![
            any::<u8>(),
            any::<u8>(),
            Just(b'\n'), // newline-heavy: empty and split frames
            Just(b'{'),
            Just(0xFFu8), // invalid UTF-8: framing is byte-level
        ],
        0..512,
    )
}

proptest! {
    /// Under any chunking, the incremental framer yields exactly the
    /// reference frame sequence, and afterwards holds exactly the
    /// reference's unterminated tail.
    #[test]
    fn incremental_framing_matches_one_shot_split(
        stream in stream_strategy(),
        cuts in proptest::collection::vec(1usize..64, 1..8),
    ) {
        let (expected, tail) = reference_frames(&stream);
        // Cap above the stream length: TooLarge cannot fire.
        let mut framer = LineFramer::new(stream.len() + 1);
        let mut got = Vec::new();
        for chunk in chunked(&stream, &cuts) {
            framer.push(chunk).expect("cap exceeds stream length");
            while let Some(line) = framer.next_line() {
                got.push(line);
            }
        }
        prop_assert_eq!(&got, &expected);
        prop_assert_eq!(framer.has_partial(), !tail.is_empty());
    }

    /// Draining lines between pushes (the event loop's actual pattern)
    /// and draining only at the end yield the same frames.
    #[test]
    fn drain_timing_is_irrelevant(
        stream in stream_strategy(),
        cuts in proptest::collection::vec(1usize..16, 1..4),
    ) {
        let mut eager = LineFramer::new(stream.len() + 1);
        let mut eager_lines = Vec::new();
        for chunk in chunked(&stream, &cuts) {
            eager.push(chunk).expect("cap exceeds stream length");
            while let Some(line) = eager.next_line() {
                eager_lines.push(line);
            }
        }
        let mut lazy = LineFramer::new(stream.len() + 1);
        lazy.push(&stream).expect("cap exceeds stream length");
        let mut lazy_lines = Vec::new();
        while let Some(line) = lazy.next_line() {
            lazy_lines.push(line);
        }
        prop_assert_eq!(eager_lines, lazy_lines);
    }

    /// With 1-byte reads (so the cap is checked after every byte), the
    /// framer errors exactly when some frame — or the unterminated tail —
    /// exceeds the cap, and every frame before the oversized one was
    /// already yielded byte-identically.
    #[test]
    fn cap_fires_exactly_on_oversized_frames(
        stream in stream_strategy(),
        cap in 1usize..32,
    ) {
        let (expected, tail) = reference_frames(&stream);
        let mut framer = LineFramer::new(cap);
        let mut got = Vec::new();
        let mut error = None;
        for &b in &stream {
            match framer.push(&[b]) {
                Ok(()) => {
                    while let Some(line) = framer.next_line() {
                        got.push(line);
                    }
                }
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
        }
        let oversized = expected.iter().position(|f| f.len() > cap);
        match (oversized, error) {
            (Some(i), Some(FrameError::TooLarge { limit })) => {
                prop_assert_eq!(limit, cap);
                prop_assert_eq!(&got, &expected[..i]);
            }
            (None, Some(FrameError::TooLarge { limit })) => {
                // No complete frame is oversized: the error must come from
                // the unterminated tail outgrowing the cap.
                prop_assert_eq!(limit, cap);
                prop_assert!(tail.len() > cap, "error without an oversized frame or tail");
                prop_assert_eq!(&got, &expected);
            }
            (None, None) => prop_assert_eq!(&got, &expected),
            (Some(i), None) => {
                prop_assert!(false, "frame {} exceeds cap {} but no error fired", i, cap);
            }
        }
    }
}
