//! What the clients and replicas of a finished run say about it: the
//! completions inside the measured window, and the output checks every
//! workload shares.

use crate::report::RunReport;
use crate::stats::{ClientOutcome, Sample};
use neobft::app::Workload;
use neobft::core::{Client, Replica};

/// A client that completes nothing for this long at the end of the window
/// (or in the whole window, if that is shorter) has stalled.
const STALL_NS: u64 = 1_000_000_000;

/// The clients' side of a finished run.
#[derive(Clone, Debug, Default)]
pub struct Completions {
    /// Completions of every client inside the window.
    pub samples: Vec<Sample>,
    pub outcomes: Vec<ClientOutcome>,
    /// Completions over the whole run (warm-up included), and how many of
    /// them rode a retransmitted batch.
    pub total_completed: u64,
    pub total_retries: u64,
}

/// Gather each client's completions in `[window.0, window.1)` of its own
/// clock and run `Workload::check` on every completion of the whole run.
/// Each client comes with a replay of its seeded operation stream: request
/// ids count from 1 in issue order, so the replay gives each completion
/// its operation back.
pub fn check_clients<'a>(
    clients: impl Iterator<Item = (&'a Client, Box<dyn Workload>)>,
    window: (u64, u64),
    report: &mut RunReport,
) -> Completions {
    let (from, to) = window;
    let stall_from = to - STALL_NS.min(to - from);
    let mut out = Completions::default();
    let mut rejected_total = 0u64;
    for (client, mut stream) in clients {
        let issued = client.completed.last().map_or(0, |op| op.request_id.0);
        let ops = stream.next_ops(issued as usize);
        let mut outcome = ClientOutcome {
            outstanding: client.outstanding() as u64,
            stalled: true,
            ..ClientOutcome::default()
        };
        for done in &client.completed {
            let accepted = ops
                .get(done.request_id.0 as usize - 1)
                .is_some_and(|op| stream.check(op, &done.result));
            rejected_total += u64::from(!accepted);
            out.total_retries += u64::from(done.retries);
            if done.completed_at >= from && done.completed_at < to {
                outcome.completed += 1;
                outcome.rejected += u64::from(!accepted);
                outcome.stalled &= done.completed_at < stall_from;
                out.samples.push(Sample {
                    completed_at: done.completed_at,
                    latency_ns: done.latency_ns(),
                });
            }
        }
        out.total_completed += client.completed.len() as u64;
        out.outcomes.push(outcome);
    }
    report.check(
        "workload_check",
        rejected_total == 0 && out.total_completed > 0,
        format!("{} completions checked, {rejected_total} rejected", out.total_completed),
    );
    let stalled = out.outcomes.iter().filter(|o| o.stalled).count();
    report.check(
        "no_stalled_client",
        stalled == 0,
        format!("{stalled} of {} clients stalled", out.outcomes.len()),
    );
    out
}

/// Replicas executed the same operations in the same order, none twice.
pub fn check_replicas<'a>(replicas: impl Iterator<Item = &'a Replica>, expected: usize, report: &mut RunReport) {
    let replicas: Vec<&Replica> = replicas.collect();
    let digests: Vec<&[Option<u64>]> = replicas.iter().map(|r| r.exec_digests()).collect();
    let common = digests.iter().map(|d| d.len()).min().unwrap_or(0);
    let diverging = (0..common).find(|&slot| {
        let mut seen = digests.iter().filter_map(|d| d[slot]);
        seen.next().is_some_and(|first| seen.any(|other| other != first))
    });
    report.check(
        "replica_digests_agree",
        diverging.is_none() && replicas.len() == expected && common > 0,
        match diverging {
            Some(slot) => format!("replicas disagree at slot {slot}"),
            None => format!("{} replicas agree on {common} common slots", replicas.len()),
        },
    );
    let doubles: u64 = replicas.iter().map(|r| r.stats.double_executions).sum();
    report.check(
        "no_double_execution",
        doubles == 0,
        format!("{doubles} double executions"),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use neobft::app::EchoWorkload;
    use neobft::core::{CompletedOp, NeoConfig};
    use neobft::crypto::{CostModel, SystemKeys};
    use neobft::wire::{ClientId, RequestId};
    use std::collections::BTreeMap;

    fn report() -> RunReport {
        RunReport {
            workload: "t".into(),
            seed: 0,
            seconds: 3,
            traced: false,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            checks: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// A client that completed requests 1..=n of the salted echo stream at
    /// the given times; `corrupt` names one request whose result is wrong.
    fn client(salt: u64, times: &[u64], corrupt: Option<u64>) -> Client {
        let keys = SystemKeys::new(1, 4, 1);
        let workload = Box::new(EchoWorkload::new(16, salt));
        let mut c = Client::new(ClientId(0), NeoConfig::new(1), &keys, CostModel::FREE, workload);
        let ops = EchoWorkload::new(16, salt).next_ops(times.len());
        for (i, (at, op)) in times.iter().zip(ops).enumerate() {
            let id = i as u64 + 1;
            c.completed.push(CompletedOp {
                request_id: RequestId(id),
                issued_at: at - 10,
                completed_at: *at,
                result: if corrupt == Some(id) { b"garbage".to_vec() } else { op },
                retries: u32::from(id == 2),
            });
        }
        c
    }

    #[test]
    fn window_rejections_and_stalls_are_accounted_per_client() {
        const S: u64 = 1_000_000_000;
        // Window [1 s, 4 s). Client A is healthy; B returns one wrong result
        // inside the window and stops completing 1.5 s before its end.
        let a = client(5, &[S / 2, 2 * S, 3 * S + S / 2], None);
        let b = client(6, &[S + 1, 2 * S, 2 * S + S / 2], Some(2));
        let stream = |salt| Box::new(EchoWorkload::new(16, salt)) as Box<dyn Workload>;
        let mut r = report();
        let done = check_clients([(&a, stream(5)), (&b, stream(6))].into_iter(), (S, 4 * S), &mut r);
        assert_eq!(done.samples.len(), 5);
        assert_eq!((done.total_completed, done.total_retries), (6, 2));
        assert_eq!(
            done.outcomes[0],
            ClientOutcome {
                completed: 2,
                rejected: 0,
                outstanding: 0,
                stalled: false
            }
        );
        assert_eq!(
            done.outcomes[1],
            ClientOutcome {
                completed: 3,
                rejected: 1,
                outstanding: 0,
                stalled: true
            }
        );
        let failed: Vec<&str> = r.checks.iter().filter(|c| !c.ok).map(|c| c.name.as_str()).collect();
        assert_eq!(failed, ["workload_check", "no_stalled_client"]);

        // A replayed stream with the wrong salt rejects everything.
        let mut r = report();
        check_clients([(&a, stream(99))].into_iter(), (0, 4 * S), &mut r);
        assert!(!r.checks[0].ok);
    }
}
