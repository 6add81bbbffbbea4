//! The per-thread parking spot behind `Runtime::block_on`.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::os::fd::RawFd;
use std::pin::pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
}

/// Which readiness a pending socket future waits for.
#[derive(Clone, Copy)]
pub enum Interest {
    Read,
    Write,
}

/// What the pending leaf futures of the current poll round wait for.
#[derive(Default)]
struct Registrations {
    /// `(fd, interest, flag to set when ready)`.
    fds: Vec<(RawFd, Interest, Rc<Cell<bool>>)>,
    deadline: Option<Instant>,
}

thread_local! {
    static REGISTRATIONS: RefCell<Option<Registrations>> = const { RefCell::new(None) };
}

fn with_registrations<R>(f: impl FnOnce(&mut Registrations) -> R) -> R {
    REGISTRATIONS.with(|r| {
        let mut r = r.borrow_mut();
        f(r.as_mut().expect("this future must be polled inside Runtime::block_on"))
    })
}

/// Park until `fd` is ready for `interest`; `ready` is set when it is.
pub fn register_fd(fd: RawFd, interest: Interest, ready: Rc<Cell<bool>>) {
    with_registrations(|r| r.fds.push((fd, interest, ready)));
}

/// Park no later than `deadline`.
pub fn register_deadline(deadline: Instant) {
    with_registrations(|r| {
        r.deadline = Some(r.deadline.map_or(deadline, |d| d.min(deadline)));
    });
}

/// Cross-thread wakeups: a waker writes to the eventfd the parked thread
/// polls.
struct Unparker {
    fd: RawFd,
}

impl Wake for Unparker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }
    fn wake_by_ref(self: &Arc<Self>) {
        let one = 1u64.to_ne_bytes();
        // SAFETY: `fd` is an eventfd owned by this Unparker; the buffer is
        // eight valid bytes. A full counter (EAGAIN) already means "wake".
        unsafe { write(self.fd, one.as_ptr(), one.len()) };
    }
}

impl Drop for Unparker {
    fn drop(&mut self) {
        // SAFETY: closing the fd this value opened, once.
        unsafe { close(self.fd) };
    }
}

/// Drive `fut` to completion on this thread.
pub fn block_on<F: Future>(fut: F) -> std::io::Result<F::Output> {
    // SAFETY: plain syscall; the result is checked.
    let efd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
    if efd < 0 {
        return Err(std::io::Error::last_os_error());
    }
    let waker = Waker::from(Arc::new(Unparker { fd: efd }));
    let mut cx = Context::from_waker(&waker);
    let mut fut = pin!(fut);

    let nested = REGISTRATIONS.with(|r| r.borrow_mut().replace(Registrations::default()));
    assert!(nested.is_none(), "block_on called inside block_on");
    // Leave the thread-local clean even if `fut` panics.
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            REGISTRATIONS.with(|r| r.borrow_mut().take());
        }
    }
    let _reset = Reset;

    let mut pollfds: Vec<PollFd> = Vec::new();
    loop {
        if let Poll::Ready(v) = fut.as_mut().poll(&mut cx) {
            return Ok(v);
        }
        let regs = with_registrations(std::mem::take);
        pollfds.clear();
        pollfds.push(PollFd {
            fd: efd,
            events: POLLIN,
            revents: 0,
        });
        for (fd, interest, _) in &regs.fds {
            let events = match interest {
                Interest::Read => POLLIN,
                Interest::Write => POLLOUT,
            };
            pollfds.push(PollFd {
                fd: *fd,
                events,
                revents: 0,
            });
        }
        // Millisecond timer granularity, rounded up: never early.
        let timeout_ms = match regs.deadline {
            None => -1,
            Some(d) => {
                let left = d.saturating_duration_since(Instant::now());
                let ms = left.as_nanos().div_ceil(Duration::from_millis(1).as_nanos());
                ms.min(i32::MAX as u128) as i32
            }
        };
        // SAFETY: `pollfds` is a live, correctly sized array of `repr(C)`
        // pollfd records.
        let n = unsafe { poll(pollfds.as_mut_ptr(), pollfds.len() as u64, timeout_ms) };
        if n < 0 {
            let err = std::io::Error::last_os_error();
            if err.kind() == std::io::ErrorKind::Interrupted {
                continue;
            }
            return Err(err);
        }
        if pollfds[0].revents != 0 {
            let mut counter = [0u8; 8];
            // SAFETY: eight writable bytes; the eventfd is non-blocking.
            unsafe { read(efd, counter.as_mut_ptr(), counter.len()) };
        }
        for (p, (_, _, ready)) in pollfds[1..].iter().zip(&regs.fds) {
            // Errors and hang-ups count as ready: the retried operation
            // reports them.
            if p.revents != 0 {
                ready.set(true);
            }
        }
    }
}
