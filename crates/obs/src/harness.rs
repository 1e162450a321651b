//! Fault-tolerance primitives for the measurement harness: the
//! cooperative watchdog token campaigns poll between strike batches,
//! and the panic-payload formatter the engine uses to turn a worker
//! panic into a structured failure record.
//!
//! The paper's beam setup pairs every device with a hardware watchdog
//! that power-cycles a hung board; [`CancelToken`] is the simulator's
//! equivalent. A token either never fires ([`CancelToken::unlimited`])
//! or fires once its deadline passes ([`CancelToken::with_timeout`]).
//! Campaign workers poll [`CancelToken::is_cancelled`] at strike-batch
//! boundaries and exit their loop when it fires, so every thread is
//! always joined — nothing is ever detached or killed.
#![expect(
    clippy::disallowed_types,
    reason = "the watchdog deadline decides only whether a cell is abandoned; an abandoned cell yields no result bytes (the engine discards partial work and reports `Hung`), so clock reads here can never reach a campaign output"
)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cooperative cancellation flag with an optional deadline.
///
/// Cloning is cheap and shares the underlying flag: cancelling any
/// clone cancels them all. Without a deadline the token never reads
/// the clock, so the default (unlimited) path stays deterministic and
/// free.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

#[derive(Debug)]
struct TokenInner {
    cancelled: AtomicBool,
    /// Deadline after which [`CancelToken::is_cancelled`] trips the
    /// flag itself (lazily, on the next poll).
    deadline: Option<Instant>,
    /// The configured timeout, kept for failure reports.
    timeout: Option<Duration>,
    /// A parent token this one inherits cancellation from: a fired
    /// parent fires every descendant on its next poll. This is how a
    /// plan-level shutdown reaches per-cell watchdog tokens without
    /// the campaign drivers knowing about either.
    parent: Option<Arc<TokenInner>>,
}

impl TokenInner {
    /// Whether this token (or any ancestor) has fired. A hit anywhere
    /// up the chain is cached into this token's own flag so later
    /// polls stay a single atomic load.
    fn fired(&self) -> bool {
        if self.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        let tripped = self
            .deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
            || self.parent.as_deref().is_some_and(TokenInner::fired);
        if tripped {
            self.cancelled.store(true, Ordering::Relaxed);
        }
        tripped
    }
}

impl CancelToken {
    /// A token that only fires when [`CancelToken::cancel`] is called
    /// explicitly; it never reads the clock.
    pub fn unlimited() -> CancelToken {
        CancelToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                deadline: None,
                timeout: None,
                parent: None,
            }),
        }
    }

    /// A token whose deadline is `timeout` from now. The deadline is
    /// enforced cooperatively: it trips on the first
    /// [`CancelToken::is_cancelled`] poll at or after expiry.
    pub fn with_timeout(timeout: Duration) -> CancelToken {
        CancelToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                deadline: Instant::now().checked_add(timeout),
                timeout: Some(timeout),
                parent: None,
            }),
        }
    }

    /// A child token that fires when either its own (optional) timeout
    /// expires or this parent fires — whichever is observed first.
    /// Cancelling the child never touches the parent, so a per-cell
    /// watchdog can abandon one cell while the plan keeps running,
    /// while a plan-level [`CancelToken::cancel`] reaches every cell's
    /// child token on its next poll.
    pub fn child(&self, timeout: Option<Duration>) -> CancelToken {
        CancelToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                deadline: timeout.and_then(|t| Instant::now().checked_add(t)),
                timeout,
                parent: Some(Arc::clone(&self.inner)),
            }),
        }
    }

    /// Fires the token explicitly.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether the token has fired (explicitly, because its deadline
    /// passed, or because an ancestor fired). Pollers call this at
    /// batch granularity; the clock is read only when a deadline is
    /// configured somewhere in the chain and the flag has not already
    /// tripped.
    pub fn is_cancelled(&self) -> bool {
        self.inner.fired()
    }

    /// The configured timeout in seconds, if any.
    pub fn timeout_s(&self) -> Option<f64> {
        self.inner.timeout.map(|t| t.as_secs_f64())
    }
}

/// Renders a panic payload (as returned by `std::thread::JoinHandle::join`
/// or `std::panic::catch_unwind`) into the human-readable message the
/// failure reports carry. Panic macros produce `&str` or `String`
/// payloads; anything else is summarized by its type opacity.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_token_never_fires_on_its_own() {
        let t = CancelToken::unlimited();
        assert!(!t.is_cancelled());
        assert_eq!(t.timeout_s(), None);
        t.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn clones_share_the_flag() {
        let a = CancelToken::unlimited();
        let b = a.clone();
        b.cancel();
        assert!(a.is_cancelled());
    }

    #[test]
    fn deadline_trips_the_flag_lazily() {
        let t = CancelToken::with_timeout(Duration::from_millis(0));
        // The deadline has already passed; the first poll trips it.
        assert!(t.is_cancelled());
        assert!(t.is_cancelled(), "stays cancelled");
        assert_eq!(t.timeout_s(), Some(0.0));

        let far = CancelToken::with_timeout(Duration::from_secs(3600));
        assert!(!far.is_cancelled());
    }

    #[test]
    fn child_inherits_parent_cancellation() {
        let plan = CancelToken::unlimited();
        let cell = plan.child(None);
        assert!(!cell.is_cancelled());
        plan.cancel();
        assert!(cell.is_cancelled(), "parent fire reaches the child");
        // The cached flag keeps answering without re-walking the chain.
        assert!(cell.is_cancelled());
    }

    #[test]
    fn child_cancel_leaves_parent_alive() {
        let plan = CancelToken::unlimited();
        let cell = plan.child(Some(Duration::from_secs(3600)));
        assert_eq!(cell.timeout_s(), Some(3600.0));
        cell.cancel();
        assert!(cell.is_cancelled());
        assert!(!plan.is_cancelled(), "cell watchdog never stops the plan");
    }

    #[test]
    fn child_deadline_fires_independently() {
        let plan = CancelToken::unlimited();
        let cell = plan.child(Some(Duration::from_millis(0)));
        assert!(cell.is_cancelled(), "expired child deadline trips");
        assert!(!plan.is_cancelled());
    }

    #[test]
    fn panic_payloads_render() {
        let caught = std::panic::catch_unwind(|| panic!("boom {}", 7)).expect_err("must panic");
        assert_eq!(panic_message(caught), "boom 7");
        let caught =
            std::panic::catch_unwind(|| std::panic::panic_any(42u8)).expect_err("must panic");
        assert_eq!(panic_message(caught), "opaque panic payload");
    }
}
