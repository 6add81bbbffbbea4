use std::sync::Arc;
use std::time::{Duration, Instant};
use tokio::net::UdpSocket;
use tokio::sync::Notify;

fn runtime() -> tokio::runtime::Runtime {
    tokio::runtime::Builder::new_current_thread()
        .enable_all()
        .build()
        .unwrap()
}

fn socket() -> UdpSocket {
    let s = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    s.set_nonblocking(true).unwrap();
    UdpSocket::from_std(s).unwrap()
}

#[test]
fn sleep_is_never_early_and_rounds_up_to_a_millisecond() {
    runtime().block_on(async {
        let t0 = Instant::now();
        tokio::time::sleep(Duration::from_micros(100)).await;
        let waited = t0.elapsed();
        assert!(waited >= Duration::from_micros(100));
        assert!(waited < Duration::from_millis(500), "{waited:?}");
    });
}

#[test]
fn datagram_wakes_readable_and_select_prefers_the_ready_branch() {
    runtime().block_on(async {
        let a = socket();
        let b = socket();
        let b_addr = b.local_addr().unwrap();
        let mut buf = [0u8; 64];
        // Nothing queued: WouldBlock clears the cached readiness.
        assert!(b.try_recv_from(&mut buf).is_err());
        a.send_to(b"ping", b_addr).await.unwrap();
        let which = tokio::select! {
            r = b.readable() => { r.unwrap(); "packet" }
            _ = tokio::time::sleep(Duration::from_secs(5)) => { "timer" }
        };
        assert_eq!(which, "packet");
        let (len, from) = b.try_recv_from(&mut buf).unwrap();
        assert_eq!((&buf[..len], from), (&b"ping"[..], a.local_addr().unwrap()));

        // Disabled branch is skipped; the timer wins with nothing queued.
        assert!(b.try_recv_from(&mut buf).is_err());
        let which = tokio::select! {
            _ = b.readable(), if false => { "packet" }
            _ = tokio::time::sleep(Duration::from_millis(2)) => { "timer" }
        };
        assert_eq!(which, "timer");
    });
}

#[test]
fn notify_from_another_thread_unparks_the_runtime() {
    let notify = Arc::new(Notify::new());
    let n2 = notify.clone();
    let t = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(20));
        n2.notify_one();
    });
    let woke = runtime().block_on(async {
        tokio::select! {
            _ = notify.notified() => { true }
            _ = tokio::time::sleep(Duration::from_secs(5)) => { false }
        }
    });
    assert!(woke);
    t.join().unwrap();
    // A permit stored before anyone waits is consumed by the next wait.
    notify.notify_one();
    runtime().block_on(notify.notified());
    let woke = runtime().block_on(async {
        tokio::select! {
            _ = notify.notified() => { true }
            _ = tokio::time::sleep(Duration::from_millis(2)) => { false }
        }
    });
    assert!(!woke);
}
