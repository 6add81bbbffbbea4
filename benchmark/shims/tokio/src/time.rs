//! `tokio::time`: `sleep`, at millisecond granularity.

use crate::reactor::register_deadline;
use std::future::poll_fn;
use std::task::Poll;
use std::time::{Duration, Instant};

/// Complete no earlier than `duration` from now.
pub async fn sleep(duration: Duration) {
    sleep_until(Instant::now() + duration).await
}

/// Complete no earlier than `deadline`.
pub async fn sleep_until(deadline: Instant) {
    poll_fn(|_cx| {
        if Instant::now() >= deadline {
            return Poll::Ready(());
        }
        register_deadline(deadline);
        Poll::Pending
    })
    .await
}
