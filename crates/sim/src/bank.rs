//! Input buffer banks, their upstream credit mirrors, and the packet
//! arena the banks queue into.
//!
//! The same [`Occupancy`] accounting is used for the physical bank at the
//! downstream router and for the credit counters at the upstream router, so
//! the two views can never disagree about whether a packet fits — the
//! essential property of credit-based flow control.
//!
//! Two organizations are modelled (paper §II, Fig. 2):
//!
//! * **Statically partitioned** — every VC owns a private FIFO of fixed
//!   capacity.
//! * **DAMQ** — the port's memory is a shared pool with a per-VC private
//!   reservation. A VC may always use its reservation; beyond it, phits
//!   consume the shared pool. With 0% private reservation a single VC can
//!   absorb the whole port and deadlock the network (Fig. 10); the paper's
//!   reference DAMQ reserves 75% privately.
//!
//! Packets themselves live in one [`PacketArena`] per engine instance: a
//! slab written once per packet, with a LIFO free list. A bank's per-VC
//! FIFOs link 4-byte handles through the arena, so a bank costs a few
//! words per VC no matter how deep it is, and the arena grows only to the
//! engine's high-water mark of live packets.

use crate::packet::Packet;
use flexvc_core::{CreditClass, SplitOccupancy};

/// Pure occupancy accounting for one port's VCs (static or DAMQ).
#[derive(Debug, Clone)]
pub struct Occupancy {
    /// Phits resident per VC.
    occ: Vec<u32>,
    /// Private reservation per VC (equals per-VC capacity for static banks).
    resv: Vec<u32>,
    /// Shared pool capacity (0 for static banks).
    shared_cap: u32,
    /// Per-routing-type split per VC (minCred).
    split: Vec<SplitOccupancy>,
    /// Probe size registered via [`Occupancy::register_probe`] (0 when the
    /// ready mask is not maintained).
    probe: u32,
    /// Bit `v` set iff `can_accept(v, probe)` — maintained incrementally by
    /// `add`/`remove`, valid only while `probe != 0`.
    ready: u32,
}

impl Occupancy {
    /// Statically partitioned: `vcs` private FIFOs of `per_vc` phits.
    pub fn new_static(vcs: usize, per_vc: u32) -> Self {
        Occupancy {
            occ: vec![0; vcs],
            resv: vec![per_vc; vcs],
            shared_cap: 0,
            split: vec![SplitOccupancy::new(); vcs],
            probe: 0,
            ready: 0,
        }
    }

    /// DAMQ: total port memory `total`, of which `private_per_vc` phits are
    /// reserved for each of the `vcs` VCs and the remainder is shared.
    pub fn new_damq(vcs: usize, total: u32, private_per_vc: u32) -> Self {
        let reserved = private_per_vc * vcs as u32;
        assert!(
            reserved <= total,
            "private reservation {reserved} exceeds port memory {total}"
        );
        Occupancy {
            occ: vec![0; vcs],
            resv: vec![private_per_vc; vcs],
            shared_cap: total - reserved,
            split: vec![SplitOccupancy::new(); vcs],
            probe: 0,
            ready: 0,
        }
    }

    /// Number of VCs.
    pub fn vcs(&self) -> usize {
        self.occ.len()
    }

    /// Shared-pool phits currently in use.
    fn shared_used(&self) -> u32 {
        self.occ
            .iter()
            .zip(&self.resv)
            .map(|(&o, &r)| o.saturating_sub(r))
            .sum()
    }

    /// Can `size` phits enter VC `vc` right now?
    pub fn can_accept(&self, vc: usize, size: u32) -> bool {
        // Static banks (no shared pool) keep `occ <= resv` per VC, so the
        // general shared-overflow scan below reduces to one comparison —
        // this is the allocator's hottest check.
        if self.shared_cap == 0 {
            return self.occ[vc] + size <= self.resv[vc];
        }
        let new_occ = self.occ[vc] + size;
        let new_over = new_occ.saturating_sub(self.resv[vc]);
        let others: u32 = self
            .occ
            .iter()
            .zip(&self.resv)
            .enumerate()
            .filter(|(i, _)| *i != vc)
            .map(|(_, (&o, &r))| o.saturating_sub(r))
            .sum();
        others + new_over <= self.shared_cap
    }

    /// Free space available to VC `vc` (private headroom plus remaining
    /// shared pool) — the JSQ metric.
    pub fn free_for(&self, vc: usize) -> u32 {
        let private_head = self.resv[vc].saturating_sub(self.occ[vc]);
        if self.shared_cap == 0 {
            return private_head;
        }
        let shared_free = self.shared_cap - self.shared_used();
        private_head + shared_free
    }

    /// Maintain a ready-VC bitmask for a fixed probe size: after this call
    /// (and incrementally across every `add`/`remove`),
    /// [`Occupancy::ready_mask`] has bit `v` set iff
    /// `can_accept(v, probe)`. Only meaningful for static banks — DAMQ
    /// admission depends on the *other* VCs' shared-pool use, so a per-VC
    /// bit cannot be maintained by that VC's mutations alone — and banks of
    /// at most 32 VCs; the call is a no-op otherwise and `ready_mask` keeps
    /// reporting `None`.
    pub fn register_probe(&mut self, probe: u32) {
        if self.shared_cap != 0 || self.occ.len() > 32 || probe == 0 {
            return;
        }
        self.probe = probe;
        self.ready = 0;
        for vc in 0..self.occ.len() {
            if self.occ[vc] + probe <= self.resv[vc] {
                self.ready |= 1 << vc;
            }
        }
    }

    /// The maintained ready-VC bitmask (bit `v` iff the registered probe
    /// size fits VC `v`), or `None` when no probe is registered.
    #[inline]
    pub fn ready_mask(&self) -> Option<u32> {
        (self.probe != 0).then_some(self.ready)
    }

    /// Re-derive VC `vc`'s ready bit after an occupancy mutation.
    #[inline]
    fn refresh_ready(&mut self, vc: usize) {
        if self.probe != 0 {
            let bit = 1u32 << vc;
            if self.occ[vc] + self.probe <= self.resv[vc] {
                self.ready |= bit;
            } else {
                self.ready &= !bit;
            }
        }
    }

    /// Record `size` phits entering VC `vc`.
    pub fn add(&mut self, vc: usize, size: u32, class: CreditClass) {
        debug_assert!(self.can_accept(vc, size), "overflow on VC {vc}");
        self.occ[vc] += size;
        self.split[vc].add(class, size);
        self.refresh_ready(vc);
    }

    /// Record `size` phits leaving VC `vc`.
    pub fn remove(&mut self, vc: usize, size: u32, class: CreditClass) {
        debug_assert!(self.occ[vc] >= size, "underflow on VC {vc}");
        self.occ[vc] -= size;
        self.split[vc].remove(class, size);
        self.refresh_ready(vc);
    }

    /// Phits resident in VC `vc`.
    pub fn occupancy(&self, vc: usize) -> u32 {
        self.occ[vc]
    }

    /// Total phits resident in the port.
    pub fn total(&self) -> u32 {
        self.occ.iter().sum()
    }

    /// Min/non-min split of VC `vc` (minCred sensing).
    pub fn split(&self, vc: usize) -> &SplitOccupancy {
        &self.split[vc]
    }

    /// Aggregated min/non-min split over the whole port.
    pub fn split_total(&self) -> SplitOccupancy {
        let mut s = SplitOccupancy::new();
        for v in &self.split {
            s.merge(v);
        }
        s
    }
}

/// Handle of a packet in its engine's [`PacketArena`]. Handles are
/// storage only: they are recycled LIFO and never order anything.
pub type PktHandle = u32;

/// Sentinel for "no packet" in the intrusive FIFO links.
const NIL: PktHandle = u32::MAX;

/// One engine instance's packet store.
///
/// A packet is written here once, when it is generated (or when it
/// crosses into this engine's shard), and stays in its slot until it is
/// ejected or leaves across a shard cut. Banks, output queues and link
/// rings hold 4-byte [`PktHandle`]s instead of packets, so a hop moves a
/// handle rather than copying the packet. Freed slots are recycled through
/// a LIFO free list, so the slab grows only to the engine's high-water
/// mark of live packets.
#[derive(Debug, Default)]
pub struct PacketArena {
    /// Packet slab; a freed slot keeps its stale packet until reused.
    slots: Vec<Packet>,
    /// Intrusive FIFO link per slot: the next packet in the same bank VC
    /// (a packet sits in at most one bank at a time).
    next: Vec<PktHandle>,
    /// Recycled slots, reused last-in first-out.
    free: Vec<PktHandle>,
    /// Live packets (slots not on the free list).
    live: usize,
    /// Per-slot liveness, catching use-after-free in debug builds.
    #[cfg(debug_assertions)]
    is_live: Vec<bool>,
}

impl PacketArena {
    /// Store `pkt` and return its handle.
    pub fn insert(&mut self, pkt: Packet) -> PktHandle {
        self.live += 1;
        match self.free.pop() {
            Some(h) => {
                self.slots[h as usize] = pkt;
                #[cfg(debug_assertions)]
                {
                    self.is_live[h as usize] = true;
                }
                h
            }
            None => {
                let h = self.slots.len() as PktHandle;
                self.slots.push(pkt);
                self.next.push(NIL);
                #[cfg(debug_assertions)]
                self.is_live.push(true);
                h
            }
        }
    }

    /// Free `h` and return its packet by value.
    pub fn remove(&mut self, h: PktHandle) -> Packet {
        #[cfg(debug_assertions)]
        {
            assert!(self.is_live[h as usize], "double free of packet slot {h}");
            self.is_live[h as usize] = false;
        }
        self.live -= 1;
        self.free.push(h);
        self.slots[h as usize].clone()
    }

    /// Packets currently stored.
    pub fn live(&self) -> usize {
        self.live
    }
}

impl std::ops::Index<PktHandle> for PacketArena {
    type Output = Packet;
    #[inline]
    fn index(&self, h: PktHandle) -> &Packet {
        #[cfg(debug_assertions)]
        debug_assert!(self.is_live[h as usize], "read of freed packet slot {h}");
        &self.slots[h as usize]
    }
}

impl std::ops::IndexMut<PktHandle> for PacketArena {
    #[inline]
    fn index_mut(&mut self, h: PktHandle) -> &mut Packet {
        #[cfg(debug_assertions)]
        debug_assert!(self.is_live[h as usize], "write of freed packet slot {h}");
        &mut self.slots[h as usize]
    }
}

/// One VC's FIFO: head and tail handles plus its length.
#[derive(Debug, Clone, Copy)]
struct Fifo {
    head: PktHandle,
    tail: PktHandle,
    len: u32,
}

/// A physical input bank: occupancy accounting plus per-VC packet FIFOs.
///
/// The FIFOs are intrusive lists of [`PktHandle`]s threaded through the
/// engine's [`PacketArena`] (its `next` links), so a bank stores only a
/// head/tail/length triple per VC: pushes and pops are O(1) relinks and a
/// bank holds no packet storage of its own, whatever its capacity.
#[derive(Debug)]
pub struct BufferBank {
    /// Occupancy view (identical accounting to the upstream mirror).
    pub occ: Occupancy,
    /// Per-VC FIFOs.
    fifo: Vec<Fifo>,
    /// Total queued packets (hot-path skip test for the allocator).
    total: u32,
}

impl BufferBank {
    /// Build a bank around an occupancy model.
    pub fn new(occ: Occupancy) -> Self {
        let vcs = occ.vcs();
        BufferBank {
            occ,
            fifo: vec![
                Fifo {
                    head: NIL,
                    tail: NIL,
                    len: 0,
                };
                vcs
            ],
            total: 0,
        }
    }

    /// Enqueue the arriving packet `h` into VC `vc` (space was guaranteed
    /// by the upstream credit check). Stamps the packet's `buffered_class`
    /// so the eventual release matches this add even if the packet's
    /// routing type changes while buffered.
    pub fn push(&mut self, vc: usize, h: PktHandle, arena: &mut PacketArena) {
        let pkt = &mut arena[h];
        pkt.buffered_class = pkt.credit_class();
        // New buffer, new position: any cached lookahead is stale, and the
        // per-router transit decision (DAL / adaptive copies) re-arms.
        pkt.flex_opts = None;
        pkt.hop_decided = false;
        let (size, class) = (pkt.size, pkt.buffered_class);
        self.occ.add(vc, size, class);
        arena.next[h as usize] = NIL;
        let f = &mut self.fifo[vc];
        if f.tail == NIL {
            f.head = h;
        } else {
            arena.next[f.tail as usize] = h;
        }
        f.tail = h;
        f.len += 1;
        self.total += 1;
    }

    /// Head packet of VC `vc`.
    #[inline]
    pub fn head(&self, vc: usize) -> Option<PktHandle> {
        match self.fifo[vc].head {
            NIL => None,
            h => Some(h),
        }
    }

    /// Dequeue the head of VC `vc`. Occupancy is *not* released here — the
    /// phits drain over the transfer duration; the caller schedules the
    /// release at transfer completion.
    pub fn pop(&mut self, vc: usize, arena: &PacketArena) -> PktHandle {
        let f = &mut self.fifo[vc];
        let h = f.head;
        assert_ne!(h, NIL, "pop on empty VC");
        f.head = arena.next[h as usize];
        if f.head == NIL {
            f.tail = NIL;
        }
        f.len -= 1;
        self.total -= 1;
        h
    }

    /// Release `size` phits of VC `vc` after the transfer completes.
    pub fn release(&mut self, vc: usize, size: u32, class: CreditClass) {
        self.occ.remove(vc, size, class);
    }

    /// Number of VCs.
    pub fn vcs(&self) -> usize {
        self.fifo.len()
    }

    /// Queued packets in VC `vc` (the active-set engine's skip test).
    pub fn vc_len(&self, vc: usize) -> usize {
        self.fifo[vc].len as usize
    }

    /// Total queued packets across VCs (O(1); the allocator's port-level
    /// skip test).
    pub fn queued_packets(&self) -> usize {
        debug_assert_eq!(
            self.total as usize,
            self.fifo.iter().map(|f| f.len as usize).sum::<usize>()
        );
        self.total as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use CreditClass::*;

    #[test]
    fn static_bank_private_capacity() {
        let mut o = Occupancy::new_static(2, 32);
        assert!(o.can_accept(0, 32));
        assert!(!o.can_accept(0, 33));
        o.add(0, 32, MinRouted);
        assert!(!o.can_accept(0, 8));
        assert!(o.can_accept(1, 32), "VC1 unaffected by VC0 fill");
        assert_eq!(o.free_for(0), 0);
        assert_eq!(o.free_for(1), 32);
        o.remove(0, 8, MinRouted);
        assert!(o.can_accept(0, 8));
        assert_eq!(o.total(), 24);
    }

    #[test]
    fn damq_shares_pool() {
        // 2 VCs, 64 total, 16 private each => 32 shared.
        let mut o = Occupancy::new_damq(2, 64, 16);
        // VC0 can take its 16 private + all 32 shared.
        assert!(o.can_accept(0, 48));
        assert!(!o.can_accept(0, 49));
        o.add(0, 48, MinRouted);
        // VC1 still has its private 16, but no shared.
        assert!(o.can_accept(1, 16));
        assert!(!o.can_accept(1, 17));
        assert_eq!(o.free_for(1), 16);
    }

    #[test]
    fn damq_zero_private_lets_one_vc_hog_everything() {
        let mut o = Occupancy::new_damq(2, 64, 0);
        o.add(0, 64, NonMinRouted);
        // The pathological state behind Fig. 10's deadlock:
        assert!(!o.can_accept(1, 8));
        assert_eq!(o.free_for(1), 0);
    }

    #[test]
    fn damq_full_private_equals_static() {
        let damq = Occupancy::new_damq(2, 64, 32);
        let stat = Occupancy::new_static(2, 32);
        for vc in 0..2 {
            for size in [1, 8, 32, 33] {
                assert_eq!(damq.can_accept(vc, size), stat.can_accept(vc, size));
            }
            assert_eq!(damq.free_for(vc), stat.free_for(vc));
        }
    }

    #[test]
    fn mincred_split_tracks_classes() {
        let mut o = Occupancy::new_static(1, 64);
        o.add(0, 8, MinRouted);
        o.add(0, 16, NonMinRouted);
        assert_eq!(o.split(0).min_occupancy(), 8);
        assert_eq!(o.split(0).nonmin_occupancy(), 16);
        assert_eq!(o.split_total().total(), 24);
        o.remove(0, 8, NonMinRouted);
        assert_eq!(o.split(0).nonmin_occupancy(), 8);
    }

    #[test]
    #[should_panic(expected = "exceeds port memory")]
    fn damq_overreservation_rejected() {
        let _ = Occupancy::new_damq(4, 64, 32);
    }

    fn mk_packet(id: u64, size: u32) -> Packet {
        use crate::packet::PlannedPath;
        Packet {
            id,
            src: 0,
            dst: 1,
            dst_router: 0,
            class: flexvc_core::MessageClass::Request,
            tclass: flexvc_core::TrafficClass::Bulk,
            size,
            gen_cycle: 0,
            head_arrival: 0,
            tail_arrival: size as u64 - 1,
            position: None,
            plan: PlannedPath::empty(),
            min_routed: true,
            derouted: false,
            buffered_class: CreditClass::MinRouted,
            planned: true,
            par_evaluated: false,
            hop_decided: false,
            flex_opts: None,
            opp_blocked: 0,
            hops: 0,
            reverts: 0,
        }
    }

    #[test]
    fn bank_push_pop_release() {
        let mut arena = PacketArena::default();
        let mut bank = BufferBank::new(Occupancy::new_static(2, 32));
        let (a, b) = (arena.insert(mk_packet(1, 8)), arena.insert(mk_packet(2, 8)));
        bank.push(0, a, &mut arena);
        bank.push(0, b, &mut arena);
        assert_eq!(arena[bank.head(0).unwrap()].id, 1);
        assert_eq!(bank.occ.occupancy(0), 16);
        let p = bank.pop(0, &arena);
        assert_eq!(arena.remove(p).id, 1);
        // Occupancy stays until the transfer completes.
        assert_eq!(bank.occ.occupancy(0), 16);
        bank.release(0, 8, MinRouted);
        assert_eq!(bank.occ.occupancy(0), 8);
        assert_eq!(arena[bank.head(0).unwrap()].id, 2);
        assert_eq!(bank.queued_packets(), 1);
        assert_eq!(bank.vc_len(0), 1);
        assert_eq!(bank.vc_len(1), 0);
        assert_eq!(arena.live(), 1);
    }

    #[test]
    fn slab_interleaves_vcs_and_recycles_slots() {
        // Two banks share one arena and each bank's two VCs interleave in
        // it; FIFO order per VC must survive arbitrary interleaving, slot
        // reuse and hand-over between banks.
        let mut arena = PacketArena::default();
        let mut bank = BufferBank::new(Occupancy::new_static(2, 64));
        let mut next_bank = BufferBank::new(Occupancy::new_static(1, 64));
        for round in 0u64..50 {
            for (vc, id) in [(0, 1), (1, 2), (0, 3)] {
                let h = arena.insert(mk_packet(round * 10 + id, 8));
                bank.push(vc, h, &mut arena);
            }
            assert_eq!(arena[bank.head(0).unwrap()].id, round * 10 + 1);
            assert_eq!(arena[bank.head(1).unwrap()].id, round * 10 + 2);
            // The first packet hops into the next bank by handle.
            let hop = bank.pop(0, &arena);
            next_bank.push(0, hop, &mut arena);
            assert_eq!(arena.remove(bank.pop(0, &arena)).id, round * 10 + 3);
            assert_eq!(arena.remove(bank.pop(1, &arena)).id, round * 10 + 2);
            bank.release(0, 16, MinRouted);
            bank.release(1, 8, MinRouted);
            assert_eq!(bank.queued_packets(), 0);
            assert!(bank.head(0).is_none() && bank.head(1).is_none());
            assert_eq!(arena.remove(next_bank.pop(0, &arena)).id, round * 10 + 1);
            next_bank.release(0, 8, MinRouted);
            assert_eq!(arena.live(), 0);
        }
        // The slab never grew past the peak live count.
        assert_eq!(arena.slots.len(), 3, "slab grew past the peak live count");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double free")]
    fn arena_double_free_is_caught() {
        let mut arena = PacketArena::default();
        let h = arena.insert(mk_packet(1, 8));
        let _ = arena.remove(h);
        let _ = arena.remove(h);
    }

    #[test]
    #[should_panic(expected = "pop on empty VC")]
    fn pop_empty_vc_panics() {
        let mut bank = BufferBank::new(Occupancy::new_static(1, 32));
        let _ = bank.pop(0, &PacketArena::default());
    }
}
