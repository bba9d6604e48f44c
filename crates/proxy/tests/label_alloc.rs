//! The per-packet observation paths allocate nothing once warm: the pair
//! tracker counting packets per state, and the baseline timeline's pass-1
//! recording. A counting global allocator checks it; counts are per
//! thread, so tests running side by side do not see each other's
//! allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use snake_netsim::{Addr, NodeId, SimTime};
use snake_proxy::{Endpoint, InjectContext, ProtocolAdapter, StateTimeline, TcpAdapter};
use snake_statemachine::{tcp_state_machine, Label, PairTracker};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers every call to `System`; the counter is a const-initialised
// thread-local `Cell`, which neither allocates nor runs a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` made on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// A connection's packet types as the proxy classifies them: handshake,
/// data and acks, teardown. `true` is client → server.
fn connection() -> Vec<(bool, Label)> {
    let l = Label::seeded;
    let mut script = vec![(true, l("SYN")), (false, l("SYN+ACK")), (true, l("ACK"))];
    for _ in 0..8 {
        script.push((false, l("DATA")));
        script.push((true, l("ACK")));
    }
    script.extend([
        (false, l("PSH+ACK")),
        (true, l("FIN+ACK")),
        (false, l("ACK")),
        (false, l("FIN+ACK")),
        (true, l("ACK")),
    ]);
    script
}

#[test]
fn warm_pair_tracker_observes_10k_packets_without_allocating() {
    let script = connection();
    let mut tracker = PairTracker::new(tcp_state_machine(), "CLOSED", "LISTEN").unwrap();
    // Warm-up: every (state, type, direction) the loop below can reach
    // gets its counter — and the allocator sees that happen.
    let warm_up = allocations_in(|| {
        for _ in 0..2 {
            for &(from_client, ptype) in &script {
                tracker.observe_packet_label(from_client, ptype, 0);
            }
        }
    });
    assert!(warm_up > 0);
    let mut packets = 0u64;
    let allocations = allocations_in(|| {
        while packets < 10_000 {
            for &(from_client, ptype) in &script {
                tracker.observe_packet_label(from_client, ptype, packets * 1_000);
                packets += 1;
            }
        }
    });
    assert_eq!(allocations, 0, "{packets} packets observed");
    assert!(
        tracker
            .client()
            .stats(tracker.client().current())
            .packet_count()
            > 0
    );
}

#[test]
fn pass_one_timeline_records_packets_without_allocating() {
    let adapter = TcpAdapter;
    let spec = adapter.spec();
    let header = adapter
        .build_inject(
            "ACK",
            InjectContext {
                src: Addr::new(NodeId::from_index(0), 40_000),
                dst: Addr::new(NodeId::from_index(1), 80),
                seq: 1,
            },
        )
        .unwrap()
        .header;
    let keys: Vec<(Endpoint, Label, Label)> = connection()
        .into_iter()
        .flat_map(|(from_client, ptype)| {
            let sender = if from_client {
                Endpoint::Client
            } else {
                Endpoint::Server
            };
            ["CLOSED", "SYN_SENT", "ESTABLISHED", "FIN_WAIT_1"]
                .map(|state| (sender, Label::seeded(state), ptype))
        })
        .collect();
    let mut timeline = StateTimeline::default();
    let record = |timeline: &mut StateTimeline, index: u64| {
        let key = keys[index as usize % keys.len()];
        let now = SimTime::from_nanos(index * 1_000);
        timeline.record_packet(key, now, index, &spec, &header);
        timeline.record_state((key.0, key.1), now, index);
        timeline.record_state((key.0.peer(), key.1), now, index);
    };
    let warm_up = allocations_in(|| {
        for index in 0..keys.len() as u64 {
            record(&mut timeline, index);
        }
    });
    assert!(warm_up > 0);
    let allocations = allocations_in(|| {
        for index in 0..10_000 {
            record(&mut timeline, index);
        }
    });
    assert_eq!(allocations, 0);
    // 3 client and 5 server packet types, under each of 4 states.
    assert_eq!(timeline.packets.len(), 32);
}
