//! `tokio::runtime`: the current-thread runtime only.

use std::future::Future;

/// Builds a [`Runtime`].
#[derive(Debug, Default)]
pub struct Builder(());

impl Builder {
    /// A runtime that runs everything on the calling thread.
    pub fn new_current_thread() -> Builder {
        Builder(())
    }
    /// I/O and time are always on here.
    pub fn enable_all(&mut self) -> &mut Builder {
        self
    }
    pub fn build(&mut self) -> std::io::Result<Runtime> {
        Ok(Runtime(()))
    }
}

/// A current-thread runtime.
#[derive(Debug)]
pub struct Runtime(());

impl Runtime {
    /// Run `future` to completion on this thread.
    pub fn block_on<F: Future>(&self, future: F) -> F::Output {
        crate::reactor::block_on(future).expect("runtime parking failed")
    }
}
