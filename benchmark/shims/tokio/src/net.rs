//! `tokio::net::UdpSocket` over a non-blocking `std::net::UdpSocket`.

use crate::reactor::{register_fd, Interest};
use std::cell::Cell;
use std::future::poll_fn;
use std::io;
use std::net::SocketAddr;
use std::os::fd::AsRawFd;
use std::rc::Rc;
use std::task::Poll;

/// A UDP socket whose readiness is cached the way tokio's is: assumed
/// ready until an operation returns `WouldBlock`, then not ready until the
/// runtime's poller sees the descriptor fire.
#[derive(Debug)]
pub struct UdpSocket {
    inner: std::net::UdpSocket,
    readable: Rc<Cell<bool>>,
    writable: Rc<Cell<bool>>,
}

impl UdpSocket {
    /// Adopt a bound socket; it must already be non-blocking.
    pub fn from_std(socket: std::net::UdpSocket) -> io::Result<UdpSocket> {
        Ok(UdpSocket {
            inner: socket,
            readable: Rc::new(Cell::new(true)),
            writable: Rc::new(Cell::new(true)),
        })
    }

    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }

    /// Receive one datagram if one is queued; `WouldBlock` otherwise.
    pub fn try_recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
        let r = self.inner.recv_from(buf);
        if matches!(&r, Err(e) if e.kind() == io::ErrorKind::WouldBlock) {
            self.readable.set(false);
        }
        r
    }

    /// Send one datagram if the socket buffer has room; `WouldBlock` otherwise.
    pub fn try_send_to(&self, buf: &[u8], target: SocketAddr) -> io::Result<usize> {
        let r = self.inner.send_to(buf, target);
        if matches!(&r, Err(e) if e.kind() == io::ErrorKind::WouldBlock) {
            self.writable.set(false);
        }
        r
    }

    /// Wait until a datagram may be queued.
    pub async fn readable(&self) -> io::Result<()> {
        poll_fn(|_cx| {
            if self.readable.get() {
                return Poll::Ready(Ok(()));
            }
            register_fd(self.inner.as_raw_fd(), Interest::Read, self.readable.clone());
            Poll::Pending
        })
        .await
    }

    /// Wait until the socket buffer may have room.
    pub async fn writable(&self) -> io::Result<()> {
        poll_fn(|_cx| {
            if self.writable.get() {
                return Poll::Ready(Ok(()));
            }
            register_fd(self.inner.as_raw_fd(), Interest::Write, self.writable.clone());
            Poll::Pending
        })
        .await
    }

    /// Send one datagram, waiting for buffer room if there is none.
    pub async fn send_to(&self, buf: &[u8], target: SocketAddr) -> io::Result<usize> {
        loop {
            match self.try_send_to(buf, target) {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => self.writable().await?,
                r => return r,
            }
        }
    }
}
