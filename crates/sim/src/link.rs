//! Directed link pipelines: in-flight packets and returning credits.
//!
//! Each directed link is owned by its transmitting router. Phits serialize
//! at one per cycle; a packet transmitted from cycle `t0` delivers its head
//! at `t0 + latency` and its tail at `t0 + latency + size − 1`. Credits flow
//! on the reverse direction with the same latency.
//!
//! A link's packet ring holds [`PktHandle`]s into the packet arena of the
//! engine that receives them, not packets, and both rings start empty and
//! grow to their own high-water mark. A packet whose receiver lives on
//! another shard leaves the sender's arena at transmit and travels by
//! value (see `crate::shard`).

use crate::bank::PktHandle;
use flexvc_core::{CreditClass, TrafficClass};
use std::collections::VecDeque;

/// A packet in flight on a link.
#[derive(Debug, Clone, Copy)]
pub struct InFlight {
    /// The packet's handle in the owning engine's arena.
    pub pkt: PktHandle,
    /// Destination VC at the receiving input port.
    pub vc: u8,
    /// Cycle the head phit arrives downstream.
    pub head_arrival: u64,
    /// Cycle the tail phit arrives downstream.
    pub tail_arrival: u64,
}

/// A credit message returning upstream.
#[derive(Debug, Clone, Copy)]
pub struct CreditMsg {
    /// Arrival cycle at the upstream router.
    pub arrival: u64,
    /// VC whose space is released.
    pub vc: u8,
    /// Phits released.
    pub phits: u32,
    /// Routing type of the released packet (minCred flag).
    pub class: CreditClass,
    /// QoS class of the released packet (per-class occupancy accounting
    /// for the dynamic buffer repartitioner).
    pub tclass: TrafficClass,
}

/// State of one directed link (plus its reverse credit flow).
#[derive(Debug, Default)]
pub struct LinkState {
    /// Packets in flight, ordered by arrival.
    pub packets: VecDeque<InFlight>,
    /// Credits in flight on the reverse direction, ordered by arrival.
    pub credits: VecDeque<CreditMsg>,
    /// The link is serializing a packet until this cycle (exclusive).
    pub busy_until: u64,
}

impl LinkState {
    /// Begin transmitting packet `pkt` of `size` phits at cycle `now`
    /// toward input VC `vc` downstream. Returns the tail-arrival cycle.
    pub fn transmit(&mut self, now: u64, latency: u32, vc: u8, pkt: PktHandle, size: u32) -> u64 {
        let flight = self.transmit_boundary(now, latency, vc, pkt, size);
        self.packets.push_back(flight);
        flight.tail_arrival
    }

    /// Begin transmitting `pkt` at cycle `now` across a shard boundary.
    ///
    /// Identical to [`LinkState::transmit`] except the [`InFlight`] record is
    /// *returned* instead of queued locally: the transmitting shard keeps only
    /// the serialization state (`busy_until`), and the record travels to the
    /// receiving shard's replica of this link as a boundary event, where
    /// [`LinkState::receive_flight`] enqueues it.
    pub fn transmit_boundary(
        &mut self,
        now: u64,
        latency: u32,
        vc: u8,
        pkt: PktHandle,
        size: u32,
    ) -> InFlight {
        debug_assert!(self.busy_until <= now, "link already serializing");
        let size = size as u64;
        self.busy_until = now + size;
        let head_arrival = now + latency as u64;
        InFlight {
            pkt,
            vc,
            head_arrival,
            tail_arrival: head_arrival + size - 1,
        }
    }

    /// Enqueue an in-flight record produced by [`LinkState::transmit_boundary`]
    /// on the transmitting shard. Each link has a single transmitter, and
    /// boundary events are applied in emission order, so a back-push keeps the
    /// queue arrival-sorted exactly as local `transmit` calls would.
    pub fn receive_flight(&mut self, flight: InFlight) {
        debug_assert!(
            self.packets
                .back()
                .is_none_or(|f| f.head_arrival <= flight.head_arrival),
            "boundary packets must arrive in order per link"
        );
        self.packets.push_back(flight);
    }

    /// Enqueue a credit that was emitted by a foreign shard's router on the
    /// downstream end of this link. Mirrors [`LinkState::send_credit`] with a
    /// pre-computed arrival cycle; the same single-source monotonicity
    /// argument applies because boundary events are applied in emission order.
    pub fn receive_credit(
        &mut self,
        arrival: u64,
        vc: u8,
        phits: u32,
        class: CreditClass,
        tclass: TrafficClass,
    ) {
        debug_assert!(
            self.credits.back().is_none_or(|c| c.arrival <= arrival),
            "credit departures must be monotonic per link"
        );
        self.credits.push_back(CreditMsg {
            arrival,
            vc,
            phits,
            class,
            tclass,
        });
    }

    /// Pop the next packet whose head has arrived by `now`.
    pub fn pop_arrived(&mut self, now: u64) -> Option<InFlight> {
        if self.packets.front().is_some_and(|f| f.head_arrival <= now) {
            self.packets.pop_front()
        } else {
            None
        }
    }

    /// Queue a credit return departing at `departs`, arriving after
    /// `latency`.
    pub fn send_credit(
        &mut self,
        departs: u64,
        latency: u32,
        vc: u8,
        phits: u32,
        class: CreditClass,
        tclass: TrafficClass,
    ) {
        let msg = CreditMsg {
            arrival: departs + latency as u64,
            vc,
            phits,
            class,
            tclass,
        };
        // Credit departures on one link are strictly monotonic: they all
        // originate from the single downstream input port feeding this
        // link, whose `in_busy` serialization guarantees each transfer
        // completes (and thus departs its credit) after the previous one.
        // A plain back-push therefore keeps the queue arrival-sorted — no
        // O(n) sorted insert needed.
        debug_assert!(
            self.credits.back().is_none_or(|c| c.arrival <= msg.arrival),
            "credit departures must be monotonic per link"
        );
        self.credits.push_back(msg);
    }

    /// Pop the next credit arrived by `now`.
    pub fn pop_credit(&mut self, now: u64) -> Option<CreditMsg> {
        if self.credits.front().is_some_and(|c| c.arrival <= now) {
            self.credits.pop_front()
        } else {
            None
        }
    }

    /// Whether the link can start a new serialization at `now`.
    pub fn is_free(&self, now: u64) -> bool {
        self.busy_until <= now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transmit_timing() {
        let mut link = LinkState::default();
        assert!(link.is_free(0));
        let tail = link.transmit(10, 100, 0, 1, 8);
        assert_eq!(tail, 10 + 100 + 7);
        assert!(!link.is_free(10));
        assert!(!link.is_free(17));
        assert!(link.is_free(18)); // 8 phits serialized
        assert!(link.pop_arrived(109).is_none());
        let f = link.pop_arrived(110).unwrap();
        assert_eq!(f.pkt, 1);
        assert_eq!(f.head_arrival, 110);
        assert_eq!(f.tail_arrival, 117);
    }

    #[test]
    fn packets_arrive_in_order() {
        let mut link = LinkState::default();
        link.transmit(0, 10, 0, 1, 8);
        link.transmit(8, 10, 1, 2, 8);
        assert_eq!(link.pop_arrived(10).unwrap().pkt, 1);
        assert!(link.pop_arrived(17).is_none());
        assert_eq!(link.pop_arrived(18).unwrap().pkt, 2);
    }

    #[test]
    fn credits_pop_in_arrival_order() {
        let mut link = LinkState::default();
        link.send_credit(5, 10, 0, 8, CreditClass::NonMinRouted, TrafficClass::Bulk);
        link.send_credit(20, 10, 1, 8, CreditClass::MinRouted, TrafficClass::Control);
        assert!(link.pop_credit(14).is_none());
        assert_eq!(link.pop_credit(15).unwrap().vc, 0);
        assert!(link.pop_credit(29).is_none());
        assert_eq!(link.pop_credit(30).unwrap().vc, 1);
        assert!(link.pop_credit(100).is_none());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "monotonic")]
    fn out_of_order_credit_departure_is_a_bug() {
        let mut link = LinkState::default();
        link.send_credit(20, 10, 1, 8, CreditClass::MinRouted, TrafficClass::Bulk);
        link.send_credit(5, 10, 0, 8, CreditClass::NonMinRouted, TrafficClass::Bulk);
    }
}
