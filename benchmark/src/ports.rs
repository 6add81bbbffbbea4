//! Finding a free run of loopback UDP ports.
//!
//! `AddressBook::builder()` lays a deployment out on consecutive ports from
//! a base. The tier-1 tests own fixed ports in 45000–47399, so the
//! benchmark never names a port: it asks the kernel for an ephemeral one,
//! tests that the whole run above it binds, and the spawn code retries
//! from a fresh range if a bind still loses a race (`RuntimeError::Bind`).

use std::net::{Ipv4Addr, UdpSocket};

/// Attempts before giving up.
const PROBES: usize = 64;

/// The first port of `len` consecutive UDP ports on 127.0.0.1 that were
/// all free a moment ago.
pub fn free_range(len: usize) -> std::io::Result<u16> {
    let mut last_err = None;
    for _ in 0..PROBES {
        let anchor = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
        let base = anchor.local_addr()?.port();
        drop(anchor);
        if usize::from(u16::MAX - base) < len {
            continue;
        }
        // Hold every socket until the whole range is known to bind.
        let held: Result<Vec<UdpSocket>, _> = (0..len as u16)
            .map(|i| UdpSocket::bind((Ipv4Addr::LOCALHOST, base + i)))
            .collect();
        match held {
            Ok(_) => return Ok(base),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or_else(|| std::io::Error::other("no free loopback port range found")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_probed_range_binds_and_avoids_the_fixed_test_ports() {
        let base = free_range(8).unwrap();
        // Ephemeral ports start at 32768 on Linux and the tier-1 tests sit
        // in 45000–47399; a probed range may fall inside by chance only if
        // those ports are free, which is all that matters.
        let held: Vec<UdpSocket> = (0..8)
            .map(|i| UdpSocket::bind((Ipv4Addr::LOCALHOST, base + i)).unwrap())
            .collect();
        assert_eq!(held.len(), 8);
        // With the range held, a new probe must land elsewhere.
        let other = free_range(8).unwrap();
        assert!(other >= base + 8 || other + 8 <= base, "{base} vs {other}");
    }
}
