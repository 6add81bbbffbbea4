//! Allocation regression test for the disabled-registry hot path.
//!
//! Every `ctx.emit(..)` / `metrics.incr(..)` in protocol code funnels
//! through [`Metrics`] even when observability is off, so the disabled
//! path sits on the per-message fast path of both runtimes. It must
//! stay a branch on a plain bool — no heap traffic. A global allocator
//! that counts per thread catches any regression (an eager `to_string`,
//! a record built before the enabled check, ...) that the type system
//! cannot.

use neo_sim::obs::{Event, Metrics, ObsConfig};
use neo_wire::{Addr, ClientId, GroupId, ReplicaId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Per thread: the sibling test allocates on the runner's other
    // thread. Const-initialised and without a destructor, so touching it
    // from inside the allocator neither allocates nor registers a dtor.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn disabled_registry_hot_path_does_not_allocate() {
    // First call initializes the OnceLock'd registry — pay that before
    // the measurement window.
    let m = Metrics::disabled();
    assert!(!m.enabled());

    let payload = [0u8; 1024];
    let before = allocs_on_this_thread();
    for i in 0..10_000u64 {
        m.incr("runtime.rx_packets");
        m.add("runtime.rx_bytes", 1024);
        m.set_gauge("runtime.backlog", i as i64);
        m.observe("handler_ns", i);
        m.record_event(
            i,
            Addr::Replica(ReplicaId(0)),
            Event::Commit {
                slot: i,
                client: 3,
                request: i,
            },
        );
        m.record_event(
            i,
            Addr::Client(ClientId(3)),
            Event::ClientSend {
                client: 3,
                request: i,
            },
        );
        m.record_packet(
            i,
            Addr::Sequencer(GroupId(0)),
            Addr::Replica(ReplicaId(1)),
            &payload,
        );
        assert!(!m.records_packets());
    }
    let after = allocs_on_this_thread();
    assert_eq!(
        after - before,
        0,
        "disabled-registry hot path allocated {} time(s) over 70k calls",
        after - before
    );
}

#[test]
fn enabled_registry_records_what_the_disabled_one_ignores() {
    // Control for the test above: the same call sequence against an
    // enabled registry must observably land, proving the zero-alloc
    // assertion is exercising real entry points and not dead stubs.
    let m = Metrics::new(ObsConfig::flight_recorder());
    m.incr("runtime.rx_packets");
    m.observe("handler_ns", 42);
    m.record_event(
        7,
        Addr::Replica(ReplicaId(0)),
        Event::SpeculativeExecute { slot: 1 },
    );
    m.record_packet(
        8,
        Addr::Client(ClientId(0)),
        Addr::Replica(ReplicaId(0)),
        b"x",
    );
    let snap = m.snapshot();
    assert_eq!(snap.counters["runtime.rx_packets"], 1);
    assert_eq!(snap.histograms["handler_ns"].count, 1);
    assert_eq!(snap.events["speculative_execute"], 1);
    assert_eq!(m.packet_snapshot().len(), 1);
}
