use crate::packet::Packet;
use crate::sim::{Command, NodeId};
use crate::time::{SimDuration, SimTime};

/// A packet interceptor attached to a link — the attach point for SNAKE's
/// attack proxy, mirroring the paper's modified NS-3 tap-bridge (§V-B).
///
/// Every packet about to traverse the tapped link in either direction is
/// handed to the tap *instead of* being transmitted. The tap decides the
/// packet's fate through its [`TapCtx`]: forward it (possibly delayed),
/// forward copies, send it back where it came from, inject brand-new
/// packets, or do nothing (drop). Taps can also set timers, which is how
/// time-triggered injection attacks and batching are implemented.
///
/// The `Send + Sync` supertraits let a paused simulator snapshot be shared
/// across executor worker threads, which fork their own copies from it.
pub trait Tap: std::any::Any + Send + Sync {
    /// Called once at simulation start (before any packets flow).
    fn on_start(&mut self, ctx: &mut TapCtx<'_>) {
        let _ = ctx;
    }

    /// Called for every packet entering the tapped link.
    ///
    /// `toward_b` is true when the packet is travelling from the link's `a`
    /// side to its `b` side (as passed to `attach_tap`). Not forwarding the
    /// packet drops it.
    fn on_packet(&mut self, ctx: &mut TapCtx<'_>, packet: Packet, toward_b: bool);

    /// Called when a timer set with [`TapCtx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut TapCtx<'_>, tag: u64) {
        let _ = (ctx, tag);
    }

    /// Called when the simulation finishes (for final accounting).
    fn on_finish(&mut self, now: SimTime) {
        let _ = now;
    }

    /// Deep-clones this tap as a boxed trait object, for
    /// [`Simulator::fork`](crate::Simulator::fork). The default returns
    /// `None` (not forkable); production taps override it with
    /// `Some(Box::new(self.clone()))`.
    fn boxed_clone(&self) -> Option<Box<dyn Tap>> {
        None
    }
}

/// The tap's window into the simulator during a callback.
#[derive(Debug)]
pub struct TapCtx<'a> {
    pub(crate) now: SimTime,
    pub(crate) link_a: NodeId,
    pub(crate) link_b: NodeId,
    pub(crate) commands: &'a mut Vec<Command>,
}

impl TapCtx<'_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The two endpoints of the tapped link.
    pub fn link_nodes(&self) -> (NodeId, NodeId) {
        (self.link_a, self.link_b)
    }

    /// Forwards a packet onward in the direction it was travelling.
    pub fn forward(&mut self, packet: Packet, toward_b: bool) {
        self.commands.push(Command::TapEmit {
            packet,
            toward_b,
            delay: SimDuration::ZERO,
        });
    }

    /// Forwards a packet after an extra delay (the *delay* and *batch*
    /// basic attacks). Like every emission, the packet is parked in the
    /// simulator's packet arena; a delayed one waits there for its
    /// `ChanEnqueue` event, a zero-delay one reaches the channel at once.
    pub fn forward_delayed(&mut self, packet: Packet, toward_b: bool, delay: SimDuration) {
        self.commands.push(Command::TapEmit {
            packet,
            toward_b,
            delay,
        });
    }

    /// Sends a packet back toward the side of the link it came from
    /// (the *reflect* basic attack; the caller is responsible for first
    /// rewriting addresses/ports so the victim processes it).
    pub fn send_back(&mut self, packet: Packet, came_from_a: bool) {
        // Reflection emits on the opposite channel: packets that arrived
        // from the `a` side leave toward `a`.
        self.commands.push(Command::TapEmit {
            packet,
            toward_b: !came_from_a,
            delay: SimDuration::ZERO,
        });
    }

    /// Injects a new packet at the tap, emitting it toward `toward_b`
    /// (the *inject* and *hitseqwindow* off-path attacks).
    pub fn inject(&mut self, packet: Packet, toward_b: bool, delay: SimDuration) {
        self.commands.push(Command::TapEmit {
            packet,
            toward_b,
            delay,
        });
    }

    /// Sets a one-shot tap timer `after` from now.
    pub fn set_timer(&mut self, after: SimDuration, tag: u64) {
        self.commands.push(Command::TapTimer {
            at: self.now + after,
            tag,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Addr, Protocol};

    fn packet() -> Packet {
        Packet::new(
            Addr::new(NodeId::from_index(0), 1),
            Addr::new(NodeId::from_index(1), 2),
            Protocol::Tcp,
            vec![0u8; 20],
            0,
        )
    }

    #[test]
    fn send_back_reverses_direction() {
        let mut commands = Vec::new();
        let mut ctx = TapCtx {
            now: SimTime::ZERO,
            link_a: NodeId::from_index(0),
            link_b: NodeId::from_index(1),
            commands: &mut commands,
        };
        ctx.send_back(packet(), true);
        match &commands[0] {
            Command::TapEmit { toward_b, .. } => assert!(!toward_b),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn forward_preserves_direction() {
        let mut commands = Vec::new();
        let mut ctx = TapCtx {
            now: SimTime::ZERO,
            link_a: NodeId::from_index(0),
            link_b: NodeId::from_index(1),
            commands: &mut commands,
        };
        ctx.forward(packet(), true);
        match &commands[0] {
            Command::TapEmit {
                toward_b, delay, ..
            } => {
                assert!(toward_b);
                assert_eq!(*delay, SimDuration::ZERO);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
