//! Hot-path hygiene guard: in steady state, moving a DCCP packet through
//! the simulator — build, route, queue, deliver, parse, engine, reply —
//! touches neither the allocator nor the shared header spec's refcount.
//!
//! Both were measured costs (a `Vec` per built header; two refcount
//! round trips on a cache line every worker shares per parsed header), and
//! both are the kind of thing a harmless-looking edit brings back without
//! any functional test noticing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use snake_dccp::{DccpHost, DccpProfile, DccpServerApp};
use snake_netsim::{Addr, LinkSpec, SimDuration, SimTime, Simulator};
use snake_packet::dccp::dccp_spec;

/// Counts allocations made by threads that opted in (the test's own), so
/// the harness's bookkeeping on other threads cannot blur the figure.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter has no effect on the
// memory handed out.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: as for `dealloc`; size and layout obligations pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_transfer_neither_allocates_nor_touches_the_spec_refcount() {
    // One bulk flow on a clean link: CCID-2 settles into its sawtooth, and
    // nothing in that steady state — losses included — may allocate.
    let mut sim = Simulator::new(7);
    let client = sim.add_node("client");
    let server = sim.add_node("server");
    sim.add_link(
        client,
        server,
        LinkSpec::new(100_000_000, SimDuration::from_millis(1), 128),
    );
    let mut host = DccpHost::new(DccpProfile::linux_3_13());
    host.listen(5001, DccpServerApp::bulk_sender(u64::MAX));
    sim.set_agent(server, host);
    let mut host = DccpHost::new(DccpProfile::linux_3_13());
    host.connect_at(SimTime::ZERO, Addr::new(server, 5001));
    sim.set_agent(client, host);

    let received = |sim: &Simulator| {
        let host = sim.agent::<DccpHost>(client).expect("client host");
        host.conn_metrics()[0].packets_received
    };

    // Warm-up: queues, the arena and the hosts' scratch buffers reach
    // their working sizes within a second; the timer wheel needs one full
    // rotation of level 2 (64 slots of 268 ms ≈ 17.2 s), where the
    // retransmission timers park, before every slot they land in has been
    // grown once and keeps its capacity from then on.
    sim.run_until(SimTime::from_secs(18));
    let spec = dccp_spec();
    let handles_before = Arc::strong_count(&spec);
    let packets_before = received(&sim);

    ALLOCATIONS.store(0, Ordering::Relaxed);
    COUNTED.with(|c| c.set(true));
    sim.run_until(SimTime::from_secs(19));
    COUNTED.with(|c| c.set(false));
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);

    let packets = received(&sim) - packets_before;
    assert!(
        packets > 1_000,
        "the measured second must carry a real transfer, saw {packets} packets"
    );
    assert_eq!(
        allocations, 0,
        "{allocations} heap allocations while delivering {packets} packets"
    );
    assert_eq!(
        Arc::strong_count(&spec),
        handles_before,
        "the run kept (or leaked) handles on the shared DCCP spec"
    );
}
