//! `tokio::sync::Notify`, single-waiter.

use std::future::poll_fn;
use std::sync::Mutex;
use std::task::{Poll, Waker};

#[derive(Debug, Default)]
struct State {
    /// A notification nobody has consumed yet.
    permit: bool,
    /// The parked waiter, if any.
    waiter: Option<Waker>,
}

/// Wake one waiting task; a notification sent while nobody waits is kept
/// for the next `notified().await` (at most one is stored).
#[derive(Debug, Default)]
pub struct Notify {
    state: Mutex<State>,
}

impl Notify {
    pub fn new() -> Notify {
        Notify::default()
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Store a permit and wake the waiter, from any thread.
    pub fn notify_one(&self) {
        let waiter = {
            let mut s = self.state();
            s.permit = true;
            s.waiter.take()
        };
        if let Some(w) = waiter {
            w.wake();
        }
    }

    /// Wait for a permit and consume it.
    pub async fn notified(&self) {
        poll_fn(|cx| {
            let mut s = self.state();
            if std::mem::take(&mut s.permit) {
                s.waiter = None;
                return Poll::Ready(());
            }
            s.waiter = Some(cx.waker().clone());
            Poll::Pending
        })
        .await
    }
}
