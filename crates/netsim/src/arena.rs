//! Slab-style recycling arena for in-flight [`Packet`] storage.
//!
//! A packet is parked here once, when an agent's send or a tap's emission
//! hands it to the simulator, and stays put for its whole journey: channel
//! queues and in-flight slots, delivery FIFOs and scheduled events all
//! carry its 4-byte [`PacketRef`] instead of the ~90-byte `Packet`. It
//! leaves only when an agent or a tap receives it by value
//! ([`take`](PacketArena::take)); a drop anywhere on the path
//! ([`free`](PacketArena::free)) just vacates the slot. Vacated slots go
//! to a free list, so steady-state traffic recycles a small working set of
//! `Packet` (and, transitively, inline
//! [`HeaderBuf`](crate::smallbuf::HeaderBuf)) storage instead of
//! allocating. Slots are handed out deterministically (LIFO free list,
//! then append), so the arena's layout — and therefore a forked clone of
//! it — is a pure function of the event history.

use crate::packet::Packet;

/// Index of a packet parked in a [`PacketArena`]. Events, channel queues
/// and delivery FIFOs carry this instead of the packet, so heap sifts,
/// wheel cascades and queue shifts move small `Copy` entries.
pub(crate) type PacketRef = u32;

/// Recycling store for every packet the simulator holds. Cloning clones
/// the slots verbatim, which is exactly what the snapshot-fork path needs:
/// outstanding `PacketRef`s in the cloned queue and channels resolve to
/// identical packet bytes in the cloned arena.
#[derive(Debug, Clone, Default)]
pub(crate) struct PacketArena {
    /// `None` while vacated.
    slots: Vec<Option<Packet>>,
    /// Indices of vacated slots, reused LIFO.
    free: Vec<u32>,
    /// Slots created because the free list was empty.
    allocs: u64,
    /// Slots recycled from the free list.
    reuses: u64,
}

impl PacketArena {
    /// Parks a packet, returning its ref.
    pub(crate) fn insert(&mut self, packet: Packet) -> PacketRef {
        match self.free.pop() {
            Some(idx) => {
                self.reuses += 1;
                self.slots[idx as usize] = Some(packet);
                idx
            }
            None => {
                self.allocs += 1;
                let idx = self.slots.len() as u32;
                self.slots.push(Some(packet));
                idx
            }
        }
    }

    /// The packet behind a live ref.
    pub(crate) fn get(&self, packet: PacketRef) -> &Packet {
        self.slots[packet as usize]
            .as_ref()
            .expect("live packet ref")
    }

    /// Parks a copy of a live packet (the duplication impairment).
    pub(crate) fn duplicate(&mut self, packet: PacketRef) -> PacketRef {
        let copy = self.get(packet).clone();
        self.insert(copy)
    }

    /// Removes and returns the packet, vacating its slot. Each ref is
    /// taken or freed exactly once — its holder owns it uniquely.
    pub(crate) fn take(&mut self, packet: PacketRef) -> Packet {
        self.free.push(packet);
        self.slots[packet as usize].take().expect("live packet ref")
    }

    /// Drops a packet where it is parked, vacating its slot.
    pub(crate) fn free(&mut self, packet: PacketRef) {
        self.free.push(packet);
        self.slots[packet as usize] = None;
    }

    /// Slots ever created (the arena's high-water occupancy).
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total insertions that grew the arena.
    pub(crate) fn allocs(&self) -> u64 {
        self.allocs
    }

    /// Total insertions served from the free list.
    pub(crate) fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Packets currently parked (slots not on the free list).
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Addr, Protocol};
    use crate::sim::NodeId;

    fn pkt(payload_len: u32) -> Packet {
        Packet::new(
            Addr::new(NodeId::from_index(0), 1),
            Addr::new(NodeId::from_index(1), 2),
            Protocol::Other(9),
            vec![0xAB; 8],
            payload_len,
        )
    }

    #[test]
    fn free_list_recycles_lifo() {
        let mut arena = PacketArena::default();
        let a = arena.insert(pkt(1));
        let b = arena.insert(pkt(2));
        assert_eq!((a, b), (0, 1));
        assert_eq!(arena.allocs(), 2);
        assert_eq!(arena.take(a).payload_len, 1);
        assert_eq!(arena.take(b).payload_len, 2);
        // LIFO: last-freed slot (b's) is reused first.
        assert_eq!(arena.insert(pkt(3)), 1);
        assert_eq!(arena.insert(pkt(4)), 0);
        assert_eq!(arena.reuses(), 2);
        assert_eq!(arena.capacity(), 2);
    }

    #[test]
    fn clone_preserves_slots_and_free_list() {
        let mut arena = PacketArena::default();
        let a = arena.insert(pkt(7));
        let _b = arena.insert(pkt(8));
        arena.take(a);
        let mut fork = arena.clone();
        // Both sides hand out the same slot next and resolve b equally.
        assert_eq!(arena.insert(pkt(9)), fork.insert(pkt(9)));
        assert_eq!(arena.take(1).payload_len, fork.take(1).payload_len);
    }

    #[test]
    fn duplicates_and_frees_keep_the_live_count() {
        let mut arena = PacketArena::default();
        let a = arena.insert(pkt(5));
        let copy = arena.duplicate(a);
        assert_eq!(arena.get(copy), arena.get(a));
        assert_eq!(arena.live(), 2);
        arena.free(a);
        assert_eq!(arena.live(), 1);
        // The freed slot is the next one handed out.
        assert_eq!(arena.insert(pkt(6)), a);
        assert_eq!(arena.take(copy).payload_len, 5);
        assert_eq!(arena.live(), 1);
    }
}
