//! Cooperative interruption of running jobs.
//!
//! A [`CancelToken`] is a cheap, cloneable flag shared between whoever
//! controls a job (an HTTP `DELETE`, a draining server, a test) and the job
//! body itself. Jobs never stop mid-round: the job body polls
//! [`CancelToken::interrupt`] only at round boundaries, after the
//! round's checkpoint has been persisted — so an interrupted job is always
//! resumable (suspend) or cleanly terminal (cancel), never corrupt.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

/// What a job should do at its next round boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupt {
    /// Keep running.
    None,
    /// Persist the round checkpoint and stop *resumably*: the job stays
    /// queued and a later run continues bit-identically. Used by graceful
    /// server drain.
    Suspend,
    /// Persist a terminal `cancelled` state and stop for good.
    Cancel,
}

const RUN: u8 = 0;
const SUSPEND: u8 = 1;
const CANCEL: u8 = 2;

/// A shared, cloneable interruption flag checked at job round boundaries.
///
/// Escalation is one-way: `Suspend` can be upgraded to `Cancel`, but a
/// requested cancellation is never downgraded back to a suspend.
///
/// # Example
///
/// ```
/// use clapton_runtime::{CancelToken, Interrupt};
///
/// let token = CancelToken::new();
/// assert_eq!(token.interrupt(), Interrupt::None);
/// token.suspend();
/// assert_eq!(token.interrupt(), Interrupt::Suspend);
/// token.cancel();
/// assert_eq!(token.interrupt(), Interrupt::Cancel);
/// token.suspend(); // cannot downgrade
/// assert_eq!(token.clone().interrupt(), Interrupt::Cancel);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    state: Arc<AtomicU8>,
}

impl CancelToken {
    /// A fresh token in the running state.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests a resumable stop at the next round boundary (no-op if a
    /// cancellation was already requested).
    pub fn suspend(&self) {
        let _ = self
            .state
            .compare_exchange(RUN, SUSPEND, Ordering::SeqCst, Ordering::SeqCst);
    }

    /// Requests a terminal cancellation at the next round boundary.
    pub fn cancel(&self) {
        self.state.store(CANCEL, Ordering::SeqCst);
    }

    /// The currently requested interruption, if any.
    pub fn interrupt(&self) -> Interrupt {
        match self.state.load(Ordering::SeqCst) {
            CANCEL => Interrupt::Cancel,
            SUSPEND => Interrupt::Suspend,
            _ => Interrupt::None,
        }
    }

    /// Whether a terminal cancellation was requested.
    pub fn is_cancelled(&self) -> bool {
        self.interrupt() == Interrupt::Cancel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let a = CancelToken::new();
        let b = a.clone();
        assert_eq!(b.interrupt(), Interrupt::None);
        a.cancel();
        assert!(b.is_cancelled());
    }

    #[test]
    fn suspend_does_not_downgrade_cancel() {
        let token = CancelToken::new();
        token.cancel();
        token.suspend();
        assert_eq!(token.interrupt(), Interrupt::Cancel);
    }
}
