//! State-machine inference from traffic — SNAKE without a specification.
//!
//! The paper needs a state machine as input and points at inference work
//! for proprietary protocols (§I). This example closes that loop inside
//! the reproduction: it records several TCP connections with the
//! simulator's packet capture, converts them into per-endpoint event
//! traces, infers a machine with k-tails
//! (`snake_statemachine::infer_machine`), prints it as dot, and shows a
//! tracker following a fresh connection on the *inferred* machine.
//!
//! ```sh
//! cargo run --release --example infer_machine
//! ```

use snake_netsim::{Addr, Dumbbell, DumbbellSpec, SimTime, Simulator};
use snake_proxy::{ProtocolAdapter, TcpAdapter};
use snake_statemachine::{infer_machine, Dir, Event, InferenceConfig, Tracker};
use snake_tcp::{Profile, ServerApp, TcpHost};

/// Runs one bounded download and returns the client's event trace
/// (classified packet types, send/recv) extracted from the capture.
fn record_trace(seed: u64, bytes: u64) -> Vec<Event> {
    let mut sim = Simulator::new(seed);
    let d = Dumbbell::build(&mut sim, DumbbellSpec::evaluation_default());
    let mut server = TcpHost::new(Profile::linux_3_13());
    server.listen(80, ServerApp::bulk_sender(bytes));
    sim.set_agent(d.server1, server);
    let mut client = TcpHost::new(Profile::linux_3_13());
    client.connect_at(SimTime::ZERO, Addr::new(d.server1, 80));
    sim.set_agent(d.client1, client);
    sim.enable_trace(100_000);
    sim.run_until(SimTime::from_secs(5));
    // The transfer finished; the client application closes.
    sim.schedule_control(SimTime::from_secs(5), d.client1, |agent, ctx| {
        let any: &mut dyn std::any::Any = agent;
        any.downcast_mut::<TcpHost>().unwrap().close_all(ctx);
    });
    sim.run_until(SimTime::from_secs(10));

    let adapter = TcpAdapter;
    let mut events = Vec::new();
    for r in sim.trace().expect("tracing enabled").records() {
        // Only the client's access link, deduplicated per packet id: each
        // packet is captured once per hop.
        if r.link != d.proxy_link {
            continue;
        }
        let Some(ptype) = adapter.classify(&r.header, r.payload_len) else {
            continue;
        };
        let dir = if r.src.node == d.client1 {
            Dir::Send
        } else {
            Dir::Recv
        };
        events.push(Event::new(dir, ptype.as_str()));
    }
    events
}

fn main() {
    // Record five connections of different lengths.
    let traces: Vec<Vec<Event>> = (0..5)
        .map(|i| record_trace(100 + i, 50_000 + 200_000 * i))
        .collect();
    let total: usize = traces.iter().map(Vec::len).sum();
    println!(
        "recorded {} connections, {} events total",
        traces.len(),
        total
    );

    let machine =
        infer_machine("inferred_tcp_client", &traces, InferenceConfig::default()).unwrap();
    println!(
        "\ninferred machine: {} states, {} transitions\n",
        machine.state_count(),
        machine.transitions().len()
    );
    println!("{}", machine.to_dot());

    // Track a sixth, unseen connection with the inferred machine.
    let fresh = record_trace(999, 400_000);
    let mut tracker = Tracker::new(machine.clone(), "S0").unwrap();
    let mut t = 0u64;
    for e in &fresh {
        tracker.observe(e.dir, &e.packet_type, t);
        t += 1_000_000;
    }
    println!(
        "tracked an unseen connection: {} transitions followed, final state {}",
        tracker.transitions_taken(),
        tracker.current_name()
    );
    println!(
        "\nThe inferred machine keys the same (state, packet type) strategy\n\
         space SNAKE uses with a specification-provided machine — the paper's\n\
         path to testing proprietary protocols."
    );
}
