#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

//! The log stops growing (DESIGN.md §17): every replica certifies
//! checkpoints, keeps its log one slot window below the stable one, and
//! answers a message about a slot it let go of with that checkpoint —
//! which a live replica stuck below it adopts in place. Simulator tests:
//! the bound while a group runs, the laggard drills (a follower, the
//! leader), and a view change between replicas whose bases differ by a
//! window.

mod common;

use common::{Cluster, ClusterSpec, GROUP};
use neo_aom::Behavior;
use neo_core::Replica;
use neo_sim::{FaultPlan, FaultRule, NetConfig, FOREVER, MICROS, MILLIS, SECS};
use neo_wire::{Addr, ReplicaId, SlotNum};

/// `Replica::SLOT_WINDOW`: how far below its stable checkpoint a replica
/// keeps its log.
const SLOT_WINDOW: u64 = 4096;
const INTERVAL: u64 = 64;
const CLIENTS: usize = 4;
const N: u32 = 4;

fn spec(ops_per_client: u64) -> ClusterSpec {
    let mut spec = ClusterSpec::small();
    spec.n_clients = CLIENTS;
    spec.ops_per_client = ops_per_client;
    spec.cfg.sync_interval = INTERVAL;
    spec
}

fn replica_addr(r: u32) -> Addr {
    Addr::Replica(ReplicaId(r))
}

/// What a replica holds in memory: `len − base`.
fn held(r: &Replica) -> u64 {
    r.log_len().0 - r.log().base().0
}

/// The bound on [`held`]: the window below the stable checkpoint, the
/// interval being voted on and the one filling up, and the requests in
/// flight (one per closed-loop client, and its retransmission).
const HELD_MAX: u64 = SLOT_WINDOW + 2 * INTERVAL + 2 * CLIENTS as u64;

/// Run in steps of `step` ns until `done` (at most `steps` of them).
fn run_until(cluster: &mut Cluster, step: u64, steps: u64, mut done: impl FnMut(&Cluster) -> bool) {
    for _ in 0..steps {
        if done(cluster) {
            return;
        }
        let now = cluster.sim.now();
        cluster.sim.run_until(now + step);
    }
    assert!(done(cluster), "condition not reached in {steps} steps");
}

/// Every slot at or above `from` that both replicas executed, they
/// executed alike; returns how many such slots there are.
fn agreeing_digests(a: &Replica, b: &Replica, from: SlotNum) -> usize {
    let both = a.exec_digests().iter().zip(b.exec_digests());
    let mut agreed = 0;
    for (slot, (da, db)) in both.enumerate().skip(from.index()) {
        if let (Some(da), Some(db)) = (da, db) {
            assert_eq!(da, db, "replicas {} and {} at slot {slot}", a.id(), b.id());
            agreed += 1;
        }
    }
    agreed
}

#[test]
fn the_log_stays_bounded_while_the_group_runs() {
    // More than three windows of slots, every 32nd message lost to all:
    // gap rounds, no-ops and their certificates in every sync vote.
    let ops = 3 * SLOT_WINDOW / CLIENTS as u64 + 200;
    let mut cluster = Cluster::build(spec(ops));
    cluster
        .sequencer_mut()
        .set_behavior(Behavior::DropEvery(32));
    let total = ops * CLIENTS as u64;
    // Bytes on the wire per window of committed operations: a sync vote
    // carries the no-op certificates of held slots only, so the traffic
    // of one window is that of the next.
    let mut bytes_at_window: Vec<u64> = Vec::new();
    run_until(&mut cluster, MILLIS, 20_000, |c| {
        for r in 0..N {
            let replica = c.replica(r);
            assert!(
                held(replica) <= HELD_MAX,
                "replica {r} holds {} slots ({} to {})",
                held(replica),
                replica.log().base(),
                replica.log_len()
            );
            assert!(replica.gap_votes_held() <= 8 * N as usize * INTERVAL as usize);
        }
        let done = c.total_completed();
        if done >= (bytes_at_window.len() as u64 + 1) * SLOT_WINDOW {
            bytes_at_window.push(c.sim.stats().bytes_delivered);
        }
        done == total
    });
    for r in 0..N {
        let replica = cluster.replica(r);
        assert!(replica.log().base().0 >= 2 * SLOT_WINDOW, "replica {r}");
        assert_eq!(replica.stats.slots_trimmed, replica.log().base().0);
        assert_eq!(replica.exec_digests().len() as u64, replica.log_len().0);
        assert!(replica.stats.noops_committed > 0);
        assert_eq!(replica.stats.view_changes, 0);
        assert_eq!(replica.stats.checkpoints_offered, 0, "nobody fell behind");
        assert!(agreeing_digests(cluster.replica(0), replica, SlotNum(0)) as u64 >= total);
    }
    let [first, second, third] = bytes_at_window[..] else {
        panic!("three windows of operations: {bytes_at_window:?}");
    };
    let (second, third) = (second - first, third - second);
    assert!(
        third * 10 <= second * 11,
        "traffic per window grows: {second} then {third} bytes"
    );
}

/// Cut every link between `laggard` and the other replicas (both ways):
/// it still hears the sequencer and still answers clients.
fn cut_from_peers(laggard: u32, from: u64) -> FaultPlan {
    let mut plan = FaultPlan::none();
    for peer in (0..N).filter(|p| *p != laggard) {
        for (src, dst) in [(laggard, peer), (peer, laggard)] {
            plan = plan.with(FaultRule::CutLink {
                src: replica_addr(src),
                dst: replica_addr(dst),
                from,
                until: FOREVER,
            });
        }
    }
    plan
}

/// The sequencer's packets to `replica` are lost for 40 µs — some ten
/// sequence numbers it will find missing as soon as the next arrives.
fn lose_a_few_packets(plan: FaultPlan, replica: u32, from: u64) -> FaultPlan {
    plan.with(FaultRule::CutLink {
        src: Addr::Sequencer(GROUP),
        dst: replica_addr(replica),
        from,
        until: from + 40 * MICROS,
    })
}

/// The end of a drill: the laggard adopted a checkpoint while live, took
/// no other way out, and executes what the others execute from there on.
fn assert_rejoined(cluster: &Cluster, laggard: u32, stuck_at: SlotNum, total: u64) {
    assert_eq!(cluster.total_completed(), total);
    let lag = cluster.replica(laggard);
    assert!(lag.stats.checkpoints_adopted_live >= 1);
    assert_eq!(lag.stats.state_transfer_rejected, 0);
    assert_eq!((lag.stats.rollbacks, lag.stats.protocol_errors), (0, 0));
    assert_eq!(lag.recovery_phase(), None, "never left normal operation");
    let adopted_at = lag.log().base();
    assert!(
        adopted_at > stuck_at,
        "rebased at the checkpoint it adopted"
    );
    assert!(lag.exec_cursor() > adopted_at);
    let offered: u64 = (0..N)
        .map(|r| cluster.replica(r).stats.checkpoints_offered)
        .sum();
    assert!(offered >= 1);
    for r in 0..N {
        let replica = cluster.replica(r);
        assert_eq!(replica.stats.view_changes, 0, "replica {r}");
        assert_eq!(replica.log_len(), lag.log_len(), "replica {r}");
        assert_eq!(replica.exec_cursor(), lag.exec_cursor(), "replica {r}");
        assert!(held(replica) <= HELD_MAX, "replica {r}");
        assert_eq!(replica.exec_digests().len() as u64, replica.log_len().0);
        // What it skipped is `None`; everything from the checkpoint on
        // it executed, and executed like the others.
        let after = (replica.log_len().0 - adopted_at.0) as usize;
        assert!(agreeing_digests(lag, replica, adopted_at) >= after * 9 / 10);
    }
}

#[test]
fn laggard_drill_a_follower_stuck_for_more_than_a_window_adopts_a_checkpoint() {
    // Replica 3 is partitioned from the other replicas and misses a few
    // aom packets: its cursor stops at the first of them while its tail
    // keeps up, and its queries to the leader go nowhere. (The agreement
    // timeout is out of the way: a partition that outlasts it is the
    // view change's business, not this drill's.)
    const LAGGARD: u32 = 3;
    let ops = 1_800;
    let total = ops * CLIENTS as u64;
    let mut spec = spec(ops);
    spec.cfg.gap_agreement_timeout_ns = 60 * SECS;
    let mut cluster = Cluster::build(spec);
    run_until(&mut cluster, MILLIS / 10, 1_000, |c| {
        c.total_completed() >= 300
    });
    let now = cluster.sim.now();
    *cluster.sim.faults_mut() = lose_a_few_packets(cut_from_peers(LAGGARD, now), LAGGARD, now);
    run_until(&mut cluster, MILLIS / 10, 100, |c| {
        c.replica(LAGGARD).log().first_pending().is_some()
    });
    let stuck_at = cluster.replica(LAGGARD).log().first_pending().unwrap();

    // The others move on by more than the window and two intervals: the
    // slot it is stuck at is gone from their logs.
    run_until(&mut cluster, MILLIS, 1_000, |c| {
        (0..N)
            .filter(|r| *r != LAGGARD)
            .all(|r| c.replica(r).log().base() > stuck_at)
    });
    let lag = cluster.replica(LAGGARD);
    assert_eq!(lag.exec_cursor(), stuck_at);
    assert!(lag.log_len().0 > stuck_at.0 + SLOT_WINDOW + 2 * INTERVAL);
    assert_eq!(lag.stats.checkpoints_adopted_live, 0);

    // Heal: its next query retry names a slot the leader let go of, the
    // leader answers with its stable checkpoint, and that is that.
    *cluster.sim.faults_mut() = FaultPlan::none();
    run_until(&mut cluster, MILLIS, 20_000, |c| {
        c.total_completed() == total
    });
    assert_rejoined(&cluster, LAGGARD, stuck_at, total);
    assert_eq!(
        cluster.replica(0).stats.checkpoints_offered,
        1,
        "once per peer"
    );
}

#[test]
fn laggard_drill_the_leader_stuck_for_more_than_a_window_adopts_a_checkpoint() {
    // The leader misses a few aom packets and its uplink stalls: what it
    // sends — its gap-finds first of all — arrives 25 ms late, by when
    // the others are more than a window further. (A gap-find is sent
    // once: a leader whose gap-find is *lost* waits for its agreement
    // timer, so the drill delays the link instead of cutting it.)
    const LEADER: u32 = 0;
    let ops = 2_400;
    let total = ops * CLIENTS as u64;
    let mut spec = spec(ops);
    spec.cfg.gap_agreement_timeout_ns = 60 * SECS;
    let mut cluster = Cluster::build(spec);
    run_until(&mut cluster, MILLIS / 10, 1_000, |c| {
        c.total_completed() >= 300
    });
    let now = cluster.sim.now();
    let stall = FaultPlan::none().delay_spike(replica_addr(LEADER), 25 * MILLIS, now, now + MILLIS);
    *cluster.sim.faults_mut() = lose_a_few_packets(stall, LEADER, now);
    run_until(&mut cluster, MILLIS / 10, 100, |c| {
        c.replica(LEADER).log().first_pending().is_some()
    });
    let stuck_at = cluster.replica(LEADER).log().first_pending().unwrap();

    // While its gap-finds are on their way the group commits without it.
    run_until(&mut cluster, MILLIS, 1_000, |c| {
        (1..N).all(|r| c.replica(r).log().base() > stuck_at)
    });
    assert_eq!(cluster.replica(LEADER).exec_cursor(), stuck_at);
    assert_eq!(cluster.replica(LEADER).stats.checkpoints_adopted_live, 0);

    // They arrive, name a slot nobody holds, and each peer answers with
    // its stable checkpoint; the leader adopts the first.
    run_until(&mut cluster, MILLIS, 20_000, |c| {
        c.total_completed() == total
    });
    assert_rejoined(&cluster, LEADER, stuck_at, total);
    assert_eq!(cluster.replica(LEADER).stats.checkpoints_adopted_live, 1);
}

#[test]
fn a_view_change_between_replicas_whose_bases_differ_by_a_window_merges_and_commits() {
    // Replica 3 hears nothing from its peers for more than a window of
    // slots: it executes and answers clients, but its sync point — and
    // so its base — stays where it was while the others' moves on.
    let ops = 2_600;
    let total = ops * CLIENTS as u64;
    let mut spec = spec(ops);
    // A fabric that keeps two messages of one sender in order whatever
    // their size: the new leader's gap-find, sent once, must not overtake
    // the view-start that carries three logs (a race this test is not
    // about; ROADMAP item 3c).
    spec.net = NetConfig {
        jitter_ns: 0,
        ns_per_128_bytes: 0,
        ..NetConfig::DATACENTER
    };
    let mut cluster = Cluster::build(spec);
    run_until(&mut cluster, MILLIS, 1_000, |c| {
        c.total_completed() >= SLOT_WINDOW + 4 * INTERVAL
    });
    assert!(cluster.replica(3).log().base().0 > 0);
    let now = cluster.sim.now();
    let mut deaf = FaultPlan::none();
    for peer in 0..3 {
        deaf = deaf.with(FaultRule::CutLink {
            src: replica_addr(peer),
            dst: replica_addr(3),
            from: now,
            until: FOREVER,
        });
    }
    *cluster.sim.faults_mut() = deaf;
    // (Votes already on the wire still arrive.)
    cluster.sim.run_until(now + MILLIS);
    let base_3 = cluster.replica(3).log().base();
    run_until(&mut cluster, MILLIS, 1_000, |c| {
        c.replica(1).log().base().0 >= base_3.0 + SLOT_WINDOW
    });
    assert_eq!(cluster.replica(3).log().base(), base_3);

    // The links heal as the leader crashes and the sequencer loses a
    // message for everyone: the gap agreement nobody drives times out,
    // and replicas 1, 2 and 3 — the whole quorum — change view.
    let now = cluster.sim.now();
    *cluster.sim.faults_mut() = FaultPlan::none().crash(replica_addr(0), now);
    // (One message, two sequence numbers from now: a second pending slot
    // would wait for a round the new view starts only for the first.)
    let lost = cluster.sequencer_mut().stamped + 2;
    cluster
        .sequencer_mut()
        .set_behavior(Behavior::DropEvery(lost));
    run_until(&mut cluster, MILLIS / 100, 1_000, |c| {
        c.replica(1).log().first_pending().is_some()
    });
    cluster.sequencer_mut().set_behavior(Behavior::Correct);
    assert_eq!(
        cluster.replica(3).log().base(),
        base_3,
        "still a window apart"
    );
    assert!(cluster.replica(1).log().base().0 >= base_3.0 + SLOT_WINDOW);

    run_until(&mut cluster, MILLIS, 20_000, |c| {
        c.total_completed() == total
    });
    for r in 1..N {
        let replica = cluster.replica(r);
        assert!(replica.stats.view_changes >= 1, "replica {r}");
        assert_eq!(replica.view().leader_num, 1, "replica {r}");
        assert_eq!(replica.log_len(), cluster.replica(1).log_len());
        assert_eq!(replica.exec_cursor(), replica.log_len(), "replica {r}");
        assert_eq!(replica.stats.protocol_errors, 0, "replica {r}");
        agreeing_digests(cluster.replica(1), replica, SlotNum(0));
    }
    // Back in step, replica 3 certifies and cuts like the others.
    assert!(cluster.replica(3).log().base() > base_3);
    assert!(held(cluster.replica(3)) <= HELD_MAX);
}
