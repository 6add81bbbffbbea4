//! Offline stand-in for `tokio`, sized to what `neobft::runtime` uses: a
//! current-thread runtime (`runtime::Builder::new_current_thread()
//! .enable_all().build()?.block_on(fut)`), `net::UdpSocket`,
//! `sync::Notify`, `time::sleep` and `select!`.
//!
//! `block_on` polls the one future; when it is pending the thread parks in
//! `poll(2)` on the file descriptors and the earliest deadline that the
//! pending leaf futures registered, plus an `eventfd` that cross-thread
//! wakers write to. Like tokio's I/O driver, socket readiness is cached
//! (cleared by a `WouldBlock`, set by the poller), and like tokio's time
//! driver, timers have millisecond granularity — a `sleep(100µs)` parks
//! for 1 ms. Linux only.

pub mod net;
pub mod runtime;
pub mod sync;
pub mod time;

mod reactor;

#[doc(hidden)]
pub mod macros {
    pub use std::future::{poll_fn, Future};
    pub use std::pin::pin;
    pub use std::task::Poll;

    pub enum Sel1<A> {
        A(A),
    }
    pub enum Sel2<A, B> {
        A(A),
        B(B),
    }
    pub enum Sel3<A, B, C> {
        A(A),
        B(B),
        C(C),
    }
    pub enum Sel4<A, B, C, D> {
        A(A),
        B(B),
        C(C),
        D(D),
    }
}

/// Wait on up to four futures at once and run the handler of the first
/// that completes: `pattern = future [, if condition] => { handler }`.
/// Branches are polled in the order written; a branch whose condition is
/// false is never polled. All handlers must have the same type.
#[macro_export]
macro_rules! select {
    (
        $p0:pat = $f0:expr $(, if $c0:expr)? => $h0:block $(,)?
    ) => {{
        let __c0 = true $(&& $c0)?;
        let mut __f0 = $crate::macros::pin!($f0);
        match $crate::macros::poll_fn(|__cx| {
            if __c0 {
                if let $crate::macros::Poll::Ready(v) =
                    $crate::macros::Future::poll(__f0.as_mut(), __cx)
                {
                    return $crate::macros::Poll::Ready($crate::macros::Sel1::A(v));
                }
            }
            $crate::macros::Poll::Pending
        })
        .await
        {
            $crate::macros::Sel1::A($p0) => $h0,
        }
    }};
    (
        $p0:pat = $f0:expr $(, if $c0:expr)? => $h0:block $(,)?
        $p1:pat = $f1:expr $(, if $c1:expr)? => $h1:block $(,)?
    ) => {{
        let __c0 = true $(&& $c0)?;
        let __c1 = true $(&& $c1)?;
        let mut __f0 = $crate::macros::pin!($f0);
        let mut __f1 = $crate::macros::pin!($f1);
        match $crate::macros::poll_fn(|__cx| {
            if __c0 {
                if let $crate::macros::Poll::Ready(v) =
                    $crate::macros::Future::poll(__f0.as_mut(), __cx)
                {
                    return $crate::macros::Poll::Ready($crate::macros::Sel2::A(v));
                }
            }
            if __c1 {
                if let $crate::macros::Poll::Ready(v) =
                    $crate::macros::Future::poll(__f1.as_mut(), __cx)
                {
                    return $crate::macros::Poll::Ready($crate::macros::Sel2::B(v));
                }
            }
            $crate::macros::Poll::Pending
        })
        .await
        {
            $crate::macros::Sel2::A($p0) => $h0,
            $crate::macros::Sel2::B($p1) => $h1,
        }
    }};
    (
        $p0:pat = $f0:expr $(, if $c0:expr)? => $h0:block $(,)?
        $p1:pat = $f1:expr $(, if $c1:expr)? => $h1:block $(,)?
        $p2:pat = $f2:expr $(, if $c2:expr)? => $h2:block $(,)?
    ) => {{
        let __c0 = true $(&& $c0)?;
        let __c1 = true $(&& $c1)?;
        let __c2 = true $(&& $c2)?;
        let mut __f0 = $crate::macros::pin!($f0);
        let mut __f1 = $crate::macros::pin!($f1);
        let mut __f2 = $crate::macros::pin!($f2);
        match $crate::macros::poll_fn(|__cx| {
            if __c0 {
                if let $crate::macros::Poll::Ready(v) =
                    $crate::macros::Future::poll(__f0.as_mut(), __cx)
                {
                    return $crate::macros::Poll::Ready($crate::macros::Sel3::A(v));
                }
            }
            if __c1 {
                if let $crate::macros::Poll::Ready(v) =
                    $crate::macros::Future::poll(__f1.as_mut(), __cx)
                {
                    return $crate::macros::Poll::Ready($crate::macros::Sel3::B(v));
                }
            }
            if __c2 {
                if let $crate::macros::Poll::Ready(v) =
                    $crate::macros::Future::poll(__f2.as_mut(), __cx)
                {
                    return $crate::macros::Poll::Ready($crate::macros::Sel3::C(v));
                }
            }
            $crate::macros::Poll::Pending
        })
        .await
        {
            $crate::macros::Sel3::A($p0) => $h0,
            $crate::macros::Sel3::B($p1) => $h1,
            $crate::macros::Sel3::C($p2) => $h2,
        }
    }};
    (
        $p0:pat = $f0:expr $(, if $c0:expr)? => $h0:block $(,)?
        $p1:pat = $f1:expr $(, if $c1:expr)? => $h1:block $(,)?
        $p2:pat = $f2:expr $(, if $c2:expr)? => $h2:block $(,)?
        $p3:pat = $f3:expr $(, if $c3:expr)? => $h3:block $(,)?
    ) => {{
        let __c0 = true $(&& $c0)?;
        let __c1 = true $(&& $c1)?;
        let __c2 = true $(&& $c2)?;
        let __c3 = true $(&& $c3)?;
        let mut __f0 = $crate::macros::pin!($f0);
        let mut __f1 = $crate::macros::pin!($f1);
        let mut __f2 = $crate::macros::pin!($f2);
        let mut __f3 = $crate::macros::pin!($f3);
        match $crate::macros::poll_fn(|__cx| {
            if __c0 {
                if let $crate::macros::Poll::Ready(v) =
                    $crate::macros::Future::poll(__f0.as_mut(), __cx)
                {
                    return $crate::macros::Poll::Ready($crate::macros::Sel4::A(v));
                }
            }
            if __c1 {
                if let $crate::macros::Poll::Ready(v) =
                    $crate::macros::Future::poll(__f1.as_mut(), __cx)
                {
                    return $crate::macros::Poll::Ready($crate::macros::Sel4::B(v));
                }
            }
            if __c2 {
                if let $crate::macros::Poll::Ready(v) =
                    $crate::macros::Future::poll(__f2.as_mut(), __cx)
                {
                    return $crate::macros::Poll::Ready($crate::macros::Sel4::C(v));
                }
            }
            if __c3 {
                if let $crate::macros::Poll::Ready(v) =
                    $crate::macros::Future::poll(__f3.as_mut(), __cx)
                {
                    return $crate::macros::Poll::Ready($crate::macros::Sel4::D(v));
                }
            }
            $crate::macros::Poll::Pending
        })
        .await
        {
            $crate::macros::Sel4::A($p0) => $h0,
            $crate::macros::Sel4::B($p1) => $h1,
            $crate::macros::Sel4::C($p2) => $h2,
            $crate::macros::Sel4::D($p3) => $h3,
        }
    }};
}
