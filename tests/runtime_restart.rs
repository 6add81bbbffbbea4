//! Real-runtime crash/restart test: four loopback UDP replicas, each
//! running over a durable [`FileStore`] data directory. Mid-workload one
//! replica is killed (its process-local state and socket die; the WAL and
//! certified checkpoint survive on disk), then restarted against the
//! *same* directory. The restarted replica must rejoin from its certified
//! checkpoint — never a slot-0 replay once a checkpoint exists — catch up
//! via state transfer from its peers, and converge on the same execution
//! digests, while the client's replies stay byte-identical to the serial
//! echo baseline.

use neobft::aom::{AuthMode, ConfigService, SequencerHw, SequencerNode};
use neobft::app::{EchoApp, EchoWorkload, Workload};
use neobft::core::{Client, NeoConfig, RecoveryPhase, Replica};
use neobft::crypto::{CostModel, SystemKeys};
use neobft::runtime::AddressBook;
use neobft::store::FileStore;
use neobft::wire::{ClientId, GroupId, ReplicaId};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const GROUP: GroupId = GroupId(0);
const N: usize = 4;
const VICTIM: usize = 3;
const OPS: usize = 60;
/// Short sync interval so the victim certifies checkpoints well inside
/// the first third of the op budget.
const SYNC_INTERVAL: u64 = 8;

fn data_dir(r: usize) -> PathBuf {
    std::env::temp_dir().join(format!("neo-runtime-restart-{}-r{r}", std::process::id()))
}

fn durable_replica(r: usize, cfg: &NeoConfig, keys: &SystemKeys) -> Replica {
    Replica::with_store(
        ReplicaId(r as u32),
        cfg.clone(),
        keys,
        CostModel::FREE,
        Box::new(EchoApp::new()),
        Box::new(FileStore::open(data_dir(r))),
    )
}

fn commits(h: &neobft::runtime::NodeHandle) -> u64 {
    h.metrics_snapshot()
        .event(neobft::sim::obs::EventKind::Commit)
}

/// The execution cursor (`NodeHealth::last_exec`, an absolute slot) in
/// the node's report. Read after the node has shut down it is the loop's
/// final publication, i.e. the replica's state as it stopped.
fn exec_cursor(node: &neobft::runtime::NodeReporter) -> u64 {
    node.report(neobft::sim::TraceRead::Copy)
        .health
        .and_then(|h| h.protocol)
        .expect("a replica reports its protocol health")
        .last_exec
}

/// Poll until `done` returns true or the deadline passes; panics with
/// `what` on timeout so failures name the phase that hung.
fn await_phase(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn killed_replica_rejoins_from_certified_checkpoint_over_loopback() {
    for r in 0..N {
        let _ = std::fs::remove_dir_all(data_dir(r));
    }
    let keys = SystemKeys::new(11, N, 1);
    let mut cfg = NeoConfig::new(1);
    cfg.sync_interval = SYNC_INTERVAL;
    let dep = AddressBook::builder()
        .replicas(N)
        .clients(1)
        .group(GROUP)
        .base_port(47320)
        .build()
        .expect("deployment fits the port space");

    let mut config = ConfigService::new();
    config.register_group(GROUP, dep.replica_ids(), 1);
    let config_h = dep
        .spawn(Box::new(config), dep.config_service())
        .expect("config service spawns");
    let seq = SequencerNode::new(
        GROUP,
        dep.replica_ids(),
        AuthMode::HmacVector,
        SequencerHw::Software(CostModel::FREE),
        &keys,
    );
    let seq_h = dep
        .spawn(Box::new(seq), dep.sequencer())
        .expect("sequencer spawns");
    let mut replica_hs: Vec<Option<_>> = (0..N)
        .map(|r| {
            Some(
                dep.spawn(Box::new(durable_replica(r, &cfg, &keys)), dep.replica(r))
                    .expect("replica spawns"),
            )
        })
        .collect();
    let mut client = Client::new(
        ClientId(0),
        cfg.clone(),
        &keys,
        CostModel::FREE,
        Box::new(EchoWorkload::new(32, 7)),
    );
    client.max_ops = Some(OPS as u64);
    let client_h = dep
        .spawn(Box::new(client), dep.client(0))
        .expect("client spawns");

    // Phase 1: run until the victim has certified at least one
    // checkpoint on disk and a third of the budget has committed.
    await_phase("a certified checkpoint on the victim", || {
        let committed = commits(replica_hs[0].as_ref().unwrap());
        let certified = replica_hs[VICTIM]
            .as_ref()
            .unwrap()
            .metrics()
            .counter("replica.checkpoints_certified");
        committed >= (OPS / 3) as u64 && certified >= 1
    });

    // Kill the victim. Dropping the node loop closes its socket; the
    // surviving trio is exactly the 2f + 1 quorum, so commits continue.
    let victim_reports = replica_hs[VICTIM].as_ref().unwrap().reporter();
    let node = replica_hs[VICTIM]
        .take()
        .unwrap()
        .try_shutdown()
        .expect("victim joins");
    let victim = node.as_any().downcast_ref::<Replica>().unwrap();
    assert!(
        victim.stats.checkpoints_certified >= 1,
        "victim certified a checkpoint before the crash"
    );
    assert!(
        victim.stable_checkpoint_slot().is_some(),
        "victim holds a stable checkpoint at crash time"
    );
    // What survives a restart is the cursor, an absolute slot:
    // `stats.executed` counts the operations one `Replica` object ran and
    // starts from zero again, at a later base, in the restarted one.
    let cursor_at_crash = exec_cursor(&victim_reports);
    assert_eq!(cursor_at_crash, victim.exec_cursor().0);
    drop(node);

    // Phase 2: the remaining three replicas make progress while the
    // victim is down, so its log is genuinely stale at restart.
    await_phase("progress during the outage", || {
        commits(replica_hs[0].as_ref().unwrap()) >= (2 * OPS / 3) as u64
    });

    // Phase 3: restart over the same data directory. `with_store`
    // replays the durable WAL suffix above the on-disk checkpoint, then
    // the recovery state machine fetches the rest from peers.
    let h = dep
        .spawn(
            Box::new(durable_replica(VICTIM, &cfg, &keys)),
            dep.replica(VICTIM),
        )
        .expect("victim restarts on the same port");
    replica_hs[VICTIM] = Some(h);

    // Recovery completion is observable: the replica times its state
    // transfer into the `replica.recovery_ns` histogram when it
    // re-enters `Active`.
    await_phase("the restarted victim to finish recovery", || {
        replica_hs[VICTIM]
            .as_ref()
            .unwrap()
            .metrics_snapshot()
            .histograms
            .get("replica.recovery_ns")
            .map(|h| h.count > 0)
            .unwrap_or(false)
    });

    // Phase 4: the client drains its full budget with the victim back.
    await_phase("the full op budget to commit", || {
        commits(replica_hs[0].as_ref().unwrap()) >= OPS as u64
    });
    std::thread::sleep(Duration::from_millis(200));

    // Replies are byte-identical to the serial baseline: the echo app
    // returns each request verbatim, and the workload stream is a pure
    // function of (size, salt), so replaying it serially regenerates the
    // expected reply for every request id in issue order.
    let node = client_h.try_shutdown().expect("client joins");
    let client = node.as_any().downcast_ref::<Client>().unwrap();
    assert_eq!(
        client.completed.len(),
        OPS,
        "all ops commit despite the crash"
    );
    let mut completed = client.completed.clone();
    completed.sort_by_key(|op| op.request_id.0);
    let mut baseline = EchoWorkload::new(32, 7);
    for op in &completed {
        let expected = baseline.next_op();
        assert_eq!(
            op.result, expected,
            "request {} echoes the serial baseline",
            op.request_id.0
        );
    }

    // Inspect the restarted victim: it resumed from its certified
    // checkpoint (base > 0 — never a slot-0 replay once a checkpoint
    // exists), finished the state machine, and caught up past its
    // pre-crash execution point.
    let recovery_ns = replica_hs[VICTIM]
        .as_ref()
        .unwrap()
        .metrics_snapshot()
        .histograms
        .get("replica.recovery_ns")
        .map(|h| h.sum)
        .unwrap_or(0);
    let rejoined_reports = replica_hs[VICTIM].as_ref().unwrap().reporter();
    let node = replica_hs[VICTIM]
        .take()
        .unwrap()
        .try_shutdown()
        .expect("restarted victim joins");
    let rejoined = node.as_any().downcast_ref::<Replica>().unwrap();
    assert_eq!(
        rejoined.recovery_phase(),
        Some(RecoveryPhase::Active),
        "victim completed the recovery state machine"
    );
    let base = rejoined
        .recovery_base()
        .expect("restarted-from-store replica records its recovery base");
    assert!(
        base.0 > 0,
        "victim resumed from its certified checkpoint, not slot 0"
    );
    assert!(
        rejoined.stable_checkpoint_slot().is_some(),
        "victim holds a stable checkpoint after rejoining"
    );
    let cursor_after_rejoin = exec_cursor(&rejoined_reports);
    assert!(
        cursor_after_rejoin >= cursor_at_crash,
        "rejoined victim is at least as far as it was at crash time \
         ({cursor_after_rejoin} < {cursor_at_crash})"
    );
    println!(
        "restart: base slot {}, cursor {cursor_at_crash} -> {cursor_after_rejoin}, \
         recovery {recovery_ns} ns",
        base.0
    );

    // Safety: wherever the rejoined victim and replica 0 both executed a
    // slot, their digests agree — and they overlap on a non-trivial
    // suffix, proving the victim really caught up.
    let node = replica_hs[0]
        .take()
        .unwrap()
        .try_shutdown()
        .expect("r0 joins");
    let r0 = node.as_any().downcast_ref::<Replica>().unwrap();
    let mut overlap = 0usize;
    for (slot, (a, b)) in r0
        .exec_digests()
        .iter()
        .zip(rejoined.exec_digests().iter())
        .enumerate()
    {
        if let (Some(a), Some(b)) = (a, b) {
            assert_eq!(a, b, "digest divergence at slot {slot}");
            overlap += 1;
        }
    }
    assert!(
        overlap > 0,
        "victim and replica 0 share at least one executed slot"
    );

    for h in replica_hs.into_iter().flatten() {
        h.try_shutdown().expect("replica joins");
    }
    seq_h.try_shutdown().expect("sequencer joins");
    config_h.try_shutdown().expect("config service joins");
    for r in 0..N {
        let _ = std::fs::remove_dir_all(data_dir(r));
    }
}
