//! `awb-reactor` — a dependency-free nonblocking service core for the
//! admission-control daemon.
//!
//! A server that parks one OS thread per connection spends its time on
//! thread stacks and context switches long before the Eq. 6 solver runs
//! once connections number in the thousands. `awb-service` therefore
//! serves TCP through this crate's classic readiness design:
//!
//! * **[`sys`]** — a minimal epoll / eventfd binding written against the raw
//!   Linux syscall ABI (no `libc` crate; the build environment vendors all
//!   dependencies). The only `unsafe` in the workspace lives there, behind
//!   safe [`sys::Poller`] / [`sys::Waker`] wrappers.
//! * **[`frame`]** — an incremental newline framer with partial-read
//!   buffers and a max-frame-size cap, yielding the same frames under any
//!   chunking of the input as splitting the whole stream on `\n`.
//! * **[`timer`]** — a hashed timer wheel driving per-connection read/write
//!   deadlines and the bounded shutdown drain.
//! * **[`queue`]** — a bounded MPMC job queue with non-blocking admission
//!   (full ⇒ the caller renders a structured `overloaded` error instead of
//!   buffering without bound).
//! * **[`server`]** — the event loop itself: per-connection state machines
//!   ([`conn`]), a small worker pool running the actual solves off the loop,
//!   in-order response delivery for pipelined requests, and graceful
//!   shutdown (stop accepting, drain in-flight and queued work within a
//!   deadline, then exit).
//!
//! The reactor is protocol-agnostic: it moves newline-delimited frames and
//! delegates both request execution and error rendering to a
//! [`LineHandler`], so `awb-service` keeps sole ownership of the wire
//! format.

// The epoll binding in `sys` requires FFI, so the crate denies (not
// forbids) unsafe code and re-allows it for that one module only.
// awb-audit: allow(lint-header) — unsafe is denied crate-wide and scoped to the sys FFI module; forbid would make the epoll binding impossible
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod conn;
pub mod frame;
pub mod metrics;
pub mod queue;
pub mod server;
#[allow(unsafe_code)]
pub mod sys;
pub mod timer;

pub use frame::{FrameError, LineFramer};
pub use metrics::ReactorMetrics;
pub use server::{spawn, LineHandler, ReactorConfig, ReactorHandle, Reject};
pub use sys::{Event, Interest, Poller, Waker};
pub use timer::TimerWheel;

/// Recovers a mutex guard even if a previous holder panicked; every critical
/// section in this crate leaves its data structurally consistent first.
pub(crate) fn lock_recover<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Condvar wait with the same poison recovery as [`lock_recover`].
pub(crate) fn wait_recover<'a, T>(
    cv: &std::sync::Condvar,
    guard: std::sync::MutexGuard<'a, T>,
) -> std::sync::MutexGuard<'a, T> {
    cv.wait(guard)
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}
