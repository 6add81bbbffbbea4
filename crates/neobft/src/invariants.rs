//! Global safety-invariant checking.
//!
//! The chaos harness (and any test) hands the checker read-only views of
//! the *correct* replicas and asks whether the protocol's safety
//! guarantees still hold. Crashed replicas may be included — a frozen
//! state is still a valid state — but Byzantine replicas must not be:
//! their state is allowed to be arbitrary.
//!
//! Five invariants, from the paper's correctness argument (§5, §B) plus
//! the recovery design (DESIGN.md §17):
//!
//! 1. **Committed-prefix agreement** — any two replicas agree on the log
//!    prefix both have finalized (compared by the hash-chained log hash,
//!    so one comparison covers every slot below the point).
//! 2. **Monotone delivery** — each replica's aom layer hands the protocol
//!    a dense, strictly increasing `(epoch, seq)` stream (one that
//!    continues from wherever the receiver was moved to when a
//!    checkpoint, the WAL or a peer supplied the slots in between).
//! 3. **Execution agreement** — two replicas that both executed the same
//!    finalized slot produced the same `(client, request, result)`.
//! 4. **Sync ≤ commit** — no replica's sync point (§B.2) runs ahead of
//!    everything the cluster has actually resolved.
//! 5. **Recovered-prefix agreement** — a replica that rejoined from a
//!    certified checkpoint carries its chain anchor at `base - 1`; every
//!    peer whose finalized prefix covers that slot must hold the same
//!    hash there.
//!
//! Plus a per-replica sanity check: no slot executes twice without an
//! intervening rollback (`double_executions == 0`).
//!
//! Checks are pure reads: running them mid-simulation is safe and is how
//! the chaos explorer catches transient violations that later healing
//! would mask.

use crate::replica::Replica;
use neo_crypto::Digest;
use neo_wire::SlotNum;
use std::fmt;

/// A detected safety violation, carrying enough context to debug from
/// the report alone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Two replicas disagree on a log prefix both have finalized.
    PrefixDivergence {
        /// First replica id.
        a: u32,
        /// Second replica id.
        b: u32,
        /// Length of the common finalized prefix that was compared.
        prefix: u64,
        /// `a`'s log hash at the last common slot.
        hash_a: Digest,
        /// `b`'s log hash at the last common slot.
        hash_b: Digest,
    },
    /// A replica's aom deliveries skipped or repeated a sequence
    /// number.
    NonMonotoneDelivery {
        /// Replica id.
        replica: u32,
        /// Which delivery (counting from 0) broke the order.
        index: usize,
        /// The delivery before the break, as `(epoch, seq)`.
        prev: (u64, u64),
        /// The offending next entry.
        next: (u64, u64),
    },
    /// Two replicas executed the same finalized slot with different
    /// outcomes.
    ExecutionMismatch {
        /// First replica id.
        a: u32,
        /// Second replica id.
        b: u32,
        /// The slot both executed.
        slot: u64,
        /// `a`'s execution digest.
        digest_a: u64,
        /// `b`'s execution digest.
        digest_b: u64,
    },
    /// A replica's sync point is past everything the cluster resolved.
    SyncBeyondCommit {
        /// Replica id.
        replica: u32,
        /// Its sync point.
        sync_point: u64,
        /// The highest resolved watermark across all checked replicas.
        max_resolved: u64,
    },
    /// A replica executed some slot twice without rolling back first.
    DoubleExecution {
        /// Replica id.
        replica: u32,
        /// How many times it happened.
        count: u64,
    },
    /// A restarted replica's certified recovery anchor disagrees with a
    /// peer's finalized log at the same slot.
    RecoveredPrefixMismatch {
        /// The recovered replica.
        replica: u32,
        /// The peer it disagrees with.
        peer: u32,
        /// The recovered replica's log base (its checkpoint slot).
        base: u64,
        /// The recovered replica's certified anchor hash at `base - 1`.
        hash_replica: Digest,
        /// The peer's chained log hash at `base - 1`.
        hash_peer: Digest,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::PrefixDivergence {
                a,
                b,
                prefix,
                hash_a,
                hash_b,
            } => write!(
                f,
                "prefix divergence: replicas {a} and {b} disagree on the \
                 finalized prefix of length {prefix} ({hash_a} vs {hash_b})"
            ),
            Violation::NonMonotoneDelivery {
                replica,
                index,
                prev,
                next,
            } => write!(
                f,
                "non-monotone delivery: replica {replica} trace[{index}] \
                 jumps from (epoch {}, seq {}) to (epoch {}, seq {})",
                prev.0, prev.1, next.0, next.1
            ),
            Violation::ExecutionMismatch {
                a,
                b,
                slot,
                digest_a,
                digest_b,
            } => write!(
                f,
                "execution mismatch: replicas {a} and {b} executed slot \
                 {slot} differently ({digest_a:#018x} vs {digest_b:#018x})"
            ),
            Violation::SyncBeyondCommit {
                replica,
                sync_point,
                max_resolved,
            } => write!(
                f,
                "sync beyond commit: replica {replica} sync point \
                 {sync_point} exceeds the cluster-wide resolved watermark \
                 {max_resolved}"
            ),
            Violation::DoubleExecution { replica, count } => write!(
                f,
                "double execution: replica {replica} executed {count} \
                 slot(s) twice without an intervening rollback"
            ),
            Violation::RecoveredPrefixMismatch {
                replica,
                peer,
                base,
                hash_replica,
                hash_peer,
            } => write!(
                f,
                "recovered prefix mismatch: replica {replica} rejoined at \
                 base {base} with certified anchor {hash_replica}, but peer \
                 {peer}'s finalized log hash there is {hash_peer}"
            ),
        }
    }
}

/// Accumulates violations across repeated checks, deduplicating so a
/// persistent violation observed at every checkpoint reports once.
#[derive(Default)]
pub struct InvariantChecker {
    violations: Vec<Violation>,
}

impl InvariantChecker {
    /// An empty checker.
    pub fn new() -> Self {
        InvariantChecker::default()
    }

    /// Run every invariant over `replicas` (correct replicas only — see
    /// the module docs), recording any violation not already recorded.
    /// Returns how many *new* violations this pass found.
    pub fn check(&mut self, replicas: &[&Replica]) -> usize {
        let found = check_replicas(replicas);
        let before = self.violations.len();
        for v in found {
            if !self.violations.contains(&v) {
                self.violations.push(v);
            }
        }
        self.violations.len() - before
    }

    /// Everything recorded so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// True when no check has ever failed.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// One stateless pass over all invariants.
pub fn check_replicas(replicas: &[&Replica]) -> Vec<Violation> {
    let mut out = Vec::new();
    check_monotone_delivery(replicas, &mut out);
    check_prefix_agreement(replicas, &mut out);
    check_execution_agreement(replicas, &mut out);
    check_sync_vs_commit(replicas, &mut out);
    check_double_execution(replicas, &mut out);
    check_recovered_prefix(replicas, &mut out);
    out
}

/// The log prefix a replica has finalized: everything at or below its
/// sync point that it has also locally resolved. (A replica may learn a
/// sync point from a 2f quorum before its own log catches up; the
/// not-yet-resolved part cannot be hash-compared.)
fn finalized_prefix(r: &Replica) -> SlotNum {
    let resolved = r.log().resolved_prefix_len();
    if r.sync_point() < resolved {
        r.sync_point()
    } else {
        resolved
    }
}

fn check_prefix_agreement(replicas: &[&Replica], out: &mut Vec<Violation>) {
    for (i, ra) in replicas.iter().enumerate() {
        for rb in replicas.iter().skip(i + 1) {
            let fa = finalized_prefix(ra);
            let fb = finalized_prefix(rb);
            let common = if fa < fb { fa } else { fb };
            if common.0 == 0 {
                continue;
            }
            let last = SlotNum(common.0 - 1);
            // The log hash is chained (§5.3): equality at the last slot
            // of the prefix implies equality of every slot below it.
            let (Some(ha), Some(hb)) = (ra.log().hash_at(last), rb.log().hash_at(last)) else {
                continue;
            };
            if ha != hb {
                out.push(Violation::PrefixDivergence {
                    a: ra.id().0,
                    b: rb.id().0,
                    prefix: common.0,
                    hash_a: ha,
                    hash_b: hb,
                });
            }
        }
    }
}

fn check_monotone_delivery(replicas: &[&Replica], out: &mut Vec<Violation>) {
    // The replica checks each delivery against the one before it as it
    // is made; one break per replica is enough to debug.
    for r in replicas {
        if let Some(broken) = r.delivery_break() {
            out.push(Violation::NonMonotoneDelivery {
                replica: r.id().0,
                index: broken.index,
                prev: broken.prev,
                next: broken.next,
            });
        }
    }
}

fn check_execution_agreement(replicas: &[&Replica], out: &mut Vec<Violation>) {
    for (i, ra) in replicas.iter().enumerate() {
        for rb in replicas.iter().skip(i + 1) {
            let fa = finalized_prefix(ra);
            let fb = finalized_prefix(rb);
            let common = (if fa < fb { fa } else { fb }).index();
            let da = ra.exec_digests();
            let db = rb.exec_digests();
            let upto = common.min(da.len()).min(db.len());
            for (slot, (xa, xb)) in da[..upto].iter().zip(&db[..upto]).enumerate() {
                // `None` on one side is legal (no-op slot, or execution
                // lagging behind the finalized prefix on that replica);
                // only a Some/Some mismatch is a divergence.
                if let (Some(xa), Some(xb)) = (xa, xb) {
                    if xa != xb {
                        out.push(Violation::ExecutionMismatch {
                            a: ra.id().0,
                            b: rb.id().0,
                            slot: slot as u64,
                            digest_a: *xa,
                            digest_b: *xb,
                        });
                        break;
                    }
                }
            }
        }
    }
}

fn check_sync_vs_commit(replicas: &[&Replica], out: &mut Vec<Violation>) {
    // Cluster-level: an individual replica may legally trail the sync
    // quorum, but a sync point past *everything* the cluster resolved
    // would mean finalizing slots nobody committed.
    let max_resolved = replicas
        .iter()
        .map(|r| r.resolved_watermark().0)
        .max()
        .unwrap_or(0);
    for r in replicas {
        if r.sync_point().0 > max_resolved {
            out.push(Violation::SyncBeyondCommit {
                replica: r.id().0,
                sync_point: r.sync_point().0,
                max_resolved,
            });
        }
    }
}

/// `recovered-prefix-matches`: a non-zero log base proves the replica
/// rejoined from a certified checkpoint, whose chain anchor sits at
/// `base - 1`. Any peer that has *finalized* through that slot must hold
/// the identical hash — a mismatch means state transfer installed a
/// prefix the cluster never finalized. (Chained hashes make the single
/// anchor comparison cover every compacted slot below it.)
fn check_recovered_prefix(replicas: &[&Replica], out: &mut Vec<Violation>) {
    for ra in replicas {
        let base = ra.log().base();
        if base.0 == 0 {
            continue; // never recovered, or an empty-disk restart
        }
        let anchor = SlotNum(base.0 - 1);
        let Some(ha) = ra.log().hash_at(anchor) else {
            continue;
        };
        for rb in replicas {
            if rb.id() == ra.id() || finalized_prefix(rb) < base {
                continue;
            }
            let Some(hb) = rb.log().hash_at(anchor) else {
                continue;
            };
            if ha != hb {
                out.push(Violation::RecoveredPrefixMismatch {
                    replica: ra.id().0,
                    peer: rb.id().0,
                    base: base.0,
                    hash_replica: ha,
                    hash_peer: hb,
                });
            }
        }
    }
}

fn check_double_execution(replicas: &[&Replica], out: &mut Vec<Violation>) {
    for r in replicas {
        if r.stats.double_executions > 0 {
            out.push(Violation::DoubleExecution {
                replica: r.id().0,
                count: r.stats.double_executions,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NeoConfig;
    use neo_app::EchoApp;
    use neo_crypto::{CostModel, SystemKeys};
    use neo_wire::ReplicaId;

    fn replica(id: u32) -> Replica {
        let cfg = NeoConfig::new(1);
        let keys = SystemKeys::new(7, cfg.n, cfg.f);
        Replica::new(
            ReplicaId(id),
            cfg,
            &keys,
            CostModel::FREE,
            Box::new(EchoApp::new()),
        )
    }

    #[test]
    fn fresh_replicas_satisfy_every_invariant() {
        let rs: Vec<Replica> = (0..4).map(replica).collect();
        let views: Vec<&Replica> = rs.iter().collect();
        assert!(check_replicas(&views).is_empty());
    }

    #[test]
    fn recovered_prefix_anchor_must_match_peers() {
        use crate::log::Log;
        use neo_crypto::sha256;
        // Two replicas rejoined at base 4 from the same certified
        // anchor: every check is silent.
        let mut a = replica(0);
        let mut b = replica(1);
        a.set_log_for_tests(Log::with_base(SlotNum(4), sha256(b"anchor")));
        b.set_log_for_tests(Log::with_base(SlotNum(4), sha256(b"anchor")));
        assert!(check_replicas(&[&a, &b]).is_empty());

        // A third replica claims the same base with a different anchor:
        // the recovered-prefix check names it and the disagreeing peer.
        let mut c = replica(2);
        c.set_log_for_tests(Log::with_base(SlotNum(4), sha256(b"forged")));
        let found = check_replicas(&[&a, &b, &c]);
        assert!(
            found.iter().any(|v| matches!(
                v,
                Violation::RecoveredPrefixMismatch {
                    replica: 2,
                    base: 4,
                    ..
                }
            )),
            "expected a recovered-prefix mismatch for replica 2: {found:?}"
        );
        let msg = found
            .iter()
            .find(|v| matches!(v, Violation::RecoveredPrefixMismatch { .. }))
            .map(ToString::to_string)
            .unwrap_or_default();
        assert!(msg.contains("recovered prefix mismatch"));

        // A fresh (base-0) replica that has finalized nothing is never
        // compared against — no false positives on genesis starts.
        let d = replica(3);
        assert!(check_replicas(&[&a, &d]).is_empty());
    }

    #[test]
    fn checker_deduplicates_persistent_violations() {
        let mut r = replica(0);
        r.stats.double_executions = 2;
        let mut chk = InvariantChecker::new();
        assert_eq!(chk.check(&[&r]), 1);
        assert_eq!(chk.check(&[&r]), 0, "same violation reports once");
        assert!(!chk.ok());
        assert_eq!(chk.violations().len(), 1);
        assert!(chk.violations()[0].to_string().contains("double execution"));
    }
}
