//! The cycle-accurate network engine.
//!
//! One [`Network`] owns every router, link, and node generator of a
//! simulation. Each cycle proceeds in phases:
//!
//! 1. **Deliver** — packets whose head phit reaches a router enter its input
//!    VC buffers; returning credits update the upstream mirrors.
//! 2. **Release** — scheduled input/output buffer releases take effect.
//! 3. **Generate** — node generators produce new packets into injection
//!    queues (dropped when full); consumed requests spawn staged replies.
//! 4. **Plan** — unplanned injection-queue heads receive their route
//!    (adaptive decisions use fresh congestion state).
//! 5. **Allocate** ×speedup — iterative input-first separable allocation:
//!    per input port a round-robin arbiter picks one requesting VC, per
//!    output port another arbiter picks one winning input; grants move
//!    packets toward output buffers through a fixed-latency pipeline.
//!    Ejection requests are granted against per-(node, class) consumption
//!    channels.
//! 6. **Serialize** — output-buffer heads start on free links at one phit
//!    per cycle.
//! 7. **Sense** — Piggyback saturation flags are recomputed and published.
//! 8. **Watchdog** — genuine deadlock (no movement with packets stuck) is
//!    detected and flagged rather than hanging the process.
//!
//! Virtual cut-through is modelled with packet-granularity occupancy and
//! phit-accurate timing: a packet may be forwarded as soon as its head has
//! arrived, a hop is only granted when the downstream VC can hold the whole
//! packet, and transfers respect both crossbar bandwidth
//! (`speedup` phits/cycle) and the arrival of the packet's own tail.
//!
//! # Active-set scheduling
//!
//! The phases above define *what* happens each cycle; since the active-set
//! rewrite they no longer sweep every router × port × VC to find it.
//! Instead the engine maintains behavior-neutral worklists:
//!
//! * **timing wheels** for link events — packet heads and credits are
//!   scheduled at their arrival cycle when they enter a link, so `deliver`
//!   touches exactly the links with something due *now*;
//! * **router worklists** for allocation (`queued > 0`), route planning
//!   (injection pushes/pops may expose an unplanned head), and scheduled
//!   releases (`pending` non-empty);
//! * **port worklists** for output serialization (non-empty output queue)
//!   and Piggyback sensing (global-port credit state changed since the
//!   last publish).
//!
//! Every worklist is conservative (a listed router may turn out to have no
//! eligible work — identical to the old sweep visiting it) and complete
//! (state only becomes eligible through events that mark the list), and
//! iteration order across routers is independent by construction: routers
//! only touch their own state, their own links, and credits of upstream
//! links no other router writes in the same phase. The engine is therefore
//! *bit-identical* to the full-sweep original — proven by
//! `tests/engine_equivalence.rs` against recorded pre-refactor snapshots —
//! while skipping idle state entirely, which is what makes paper-scale
//! (h = 8, 2,064 routers) Dragonfly runs tractable.

#![allow(clippy::needless_range_loop)] // parallel arrays indexed by port/vc
#![allow(clippy::type_complexity)]

use crate::arbiter::RrArbiter;
use crate::bank::{BufferBank, Occupancy, PacketArena, PktHandle};
use crate::config::{BufferOrg, SensingMode, SimConfig};
use crate::link::LinkState;
use crate::metrics::{Metrics, SimResult};
use crate::packet::{Packet, PlannedPath, MAX_PLAN};
use crate::plan::{min_plan, RoutePolicy, SenseView};
use crate::sensing::{saturated_flags_into, GroupBoard};
use crate::shard::{BoundaryEvent, BoundaryPayload};
use flexvc_core::classify::NetworkFamily;
use flexvc_core::policy::{baseline_vc, flexvc_options_lookahead};
use flexvc_core::{
    Arrangement, CreditClass, HopKind, LinkClass, MessageClass, TrafficClass, VcPolicy,
};
use flexvc_topology::Topology;
use flexvc_traffic::flow::{random_permutation, FlowPattern};
use flexvc_traffic::generator::NodeSpace;
use flexvc_traffic::NodeTraffic;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::sync::Arc;

/// A power-of-two timing wheel mapping future cycles to link ids with an
/// event due. Slots are reused (taken, drained, put back) so the steady
/// state allocates nothing. Events may be scheduled at most `len` cycles
/// ahead — the wheel is sized from the worst-case link event horizon
/// (`max latency + packet size + slack`) at construction.
#[derive(Debug)]
struct Wheel<T> {
    slots: Vec<Vec<T>>,
    mask: u64,
}

impl<T> Wheel<T> {
    fn new(horizon: u64) -> Self {
        let n = horizon.max(4).next_power_of_two();
        Wheel {
            slots: (0..n).map(|_| Vec::new()).collect(),
            mask: n - 1,
        }
    }

    /// Schedule an event for cycle `at` (clamped to `now + 1`: an event
    /// created during cycle `now` is observable at the next matching phase
    /// at the earliest, exactly like the original per-cycle sweep).
    #[inline]
    fn schedule(&mut self, now: u64, at: u64, ev: T) {
        let at = at.max(now + 1);
        debug_assert!(at - now <= self.mask + 1, "event beyond wheel horizon");
        self.slots[(at & self.mask) as usize].push(ev);
    }

    /// Take the slot due at `now` (return it with [`Wheel::put_back`]).
    #[inline]
    fn take(&mut self, now: u64) -> Vec<T> {
        std::mem::take(&mut self.slots[(now & self.mask) as usize])
    }

    /// Return a drained slot buffer, keeping its capacity.
    #[inline]
    fn put_back(&mut self, now: u64, mut slot: Vec<T>) {
        slot.clear();
        self.slots[(now & self.mask) as usize] = slot;
    }
}

/// Append `id` to a worklist unless already a member.
#[inline]
fn mark(list: &mut Vec<u32>, in_set: &mut [bool], id: usize) {
    if !in_set[id] {
        in_set[id] = true;
        list.push(id as u32);
    }
}

/// A packet queued at an output buffer awaiting link serialization.
#[derive(Debug)]
struct OutPkt {
    pkt: PktHandle,
    /// Head reaches the output buffer after the router pipeline.
    ready_at: u64,
    /// Landing VC at the downstream input port.
    vc: u8,
}

/// Scheduled buffer releases.
#[derive(Debug, Clone, Copy)]
enum Pending {
    /// Input VC occupancy release at transfer completion.
    Input {
        at: u64,
        in_idx: u32,
        vc: u8,
        phits: u32,
        class: CreditClass,
    },
    /// Output buffer release when the tail leaves on the link.
    OutBuf { at: u64, port: u16, phits: u32 },
}

/// Per-router state, built only for the routers an engine instance owns.
struct Router {
    /// Network input banks (one per network port).
    inputs: Vec<BufferBank>,
    /// Injection banks (one per attached node).
    inj: Vec<BufferBank>,
    /// Per-input-port VC arbiters.
    in_arb: Vec<RrArbiter>,
    /// Per-output-port arbiters over the unified input space.
    out_arb: Vec<RrArbiter>,
    /// Credit mirrors of the downstream input banks per network output port.
    out_credit: Vec<Occupancy>,
    /// Output queues awaiting serialization.
    out_queue: Vec<VecDeque<OutPkt>>,
    /// Router-local RNG (Valiant picks, random VC selection).
    rng: SmallRng,
}

/// A forwarding decision for an input VC head.
#[derive(Debug, Clone, Copy)]
enum Decision {
    Forward { port: u16, vc: u8, pos: u16 },
    Eject { channel: u16 },
}

/// Classification of a head-evaluation rejection by its *first failing
/// gate* — the only gate whose state change can alter the outcome, since
/// every gate behind it was never consulted and every gate moves
/// monotonically against acceptance between events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EvalBlock {
    /// Not classifiable (unexpected empty VC, or a gate with no tracked
    /// improvement event): never memoized.
    Never,
    /// Time-pure gate (crossbar or ejector busy-until, head phit not yet
    /// arrived, unplanned head awaiting next cycle's planning pass, reply
    /// queue full until next cycle's generation pass): `None` is
    /// guaranteed strictly before the deadline.
    Until(u64),
    /// Event gate on an output port (credits exhausted or output buffer
    /// full): `None` is guaranteed while the port's epoch is unchanged.
    Event(u16),
}

/// The simulation network.
pub struct Network {
    cfg: SimConfig,
    topo: Arc<dyn Topology>,
    /// Classification family (read by the debug-build baseline-table
    /// cross-check; release builds use the precomputed table alone).
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    family: NetworkFamily,
    arr: Arrangement,
    /// The per-hop routing-decision pipeline: injection planning and
    /// in-transit decisions (PAR / DAL / adaptive copies) all route
    /// through this one object — the engine has no mode special cases.
    policy: RoutePolicy,
    /// Cached [`RoutePolicy::decides_in_transit`] for the allocator's hot
    /// path (also disables the evaluation-skip memo, whose soundness
    /// argument assumes evaluations do not mutate state).
    transit_decisions: bool,
    /// Cached [`RoutePolicy::is_static_min`]: injection planning bypasses
    /// the policy object (no `SenseView` setup, no dispatch) and calls
    /// [`min_plan`] directly — the monomorphized MIN fast path.
    fast_min: bool,
    /// Network ports per router.
    pp: usize,
    /// Nodes per router.
    pn: usize,
    /// Flat adjacency: `r*pp + port -> (router, port)`.
    adj: Vec<Option<(u32, u16)>>,
    /// First node id of each router ([`Topology::node_base`], flattened):
    /// `r * pn` on uniformly-populated topologies; Dragonfly+ spines carry
    /// no nodes and leaves are numbered group-major.
    node_base: Vec<u32>,
    /// Class per port index (uniform across routers for our topologies).
    port_class: Vec<LinkClass>,
    /// Ports whose occupancy Piggyback sensing publishes: the global ports
    /// of a Dragonfly, or *every* network port on single-class topologies
    /// (flattened butterfly, HyperX — there is no global/local split to
    /// narrow the signal to).
    sense_ports: Vec<usize>,
    /// `true` when every port is a sense port (single-class topology).
    sense_all: bool,
    /// Owned routers, indexed by *local* router id `r - r0`.
    routers: Vec<Router>,
    /// Every packet this instance holds; banks, output queues and link
    /// rings carry handles into it.
    arena: PacketArena,
    links: Vec<LinkState>,
    /// Generators of the owned nodes, indexed by local node id `n - n0`.
    gens: Vec<NodeTraffic>,
    /// Per-owned-node staged replies: `(destination, ready_at)`.
    staging: Vec<VecDeque<(u32, u64)>>,
    /// Per-owned-node injection VC round-robin (non-reactive traffic).
    inj_rr: Vec<u8>,
    /// Per-group Piggyback boards (empty unless PB routing).
    boards: Vec<GroupBoard>,
    metrics: Metrics,
    cycle: u64,
    next_id: u64,
    offered: f64,
    in_flight: i64,
    last_progress: u64,
    /// `true` while [`Network::drain`] runs: pattern generators stop
    /// producing new requests (staged replies still flush, so reactive
    /// traffic conservation closes too).
    draining: bool,
    /// Routers this engine instance steps (the full range unless it is one
    /// shard of a [`crate::shard::ShardedNetwork`]). Only owned routers get
    /// per-router and per-port state; every such array is indexed by the
    /// local id `r - r0` (ports `(r - r0) * pp + port`, which is also the
    /// local form of a flat link id). Link ids, adjacency and `node_base`
    /// stay global.
    owned_r: std::ops::Range<u32>,
    /// `owned_r.start`: global id of local router 0.
    r0: usize,
    /// Global id of local node 0. The nodes attached to owned routers are
    /// contiguous because node numbering is router-major (see `node_base`).
    n0: usize,
    /// `true` when this instance is a shard: effects that cross the
    /// ownership boundary (packet transmits, credit returns, PB board
    /// publishes) are emitted into `outbox` instead of applied locally.
    sharded: bool,
    /// Boundary events emitted this cycle, in emission order (drained and
    /// routed to their owning shard by the shard driver each cycle).
    outbox: Vec<BoundaryEvent>,
    // --- active-set scheduling state (behavior-neutral bookkeeping) ---
    // Router worklists hold local router ids, `out_list` local link ids.
    /// Per-router queued-packet count (network input + injection queues).
    queued: Vec<u32>,
    /// Routers with queued packets: the allocation worklist.
    alloc_list: Vec<u32>,
    alloc_in: Vec<bool>,
    /// Routers whose injection banks may hold an unplanned head.
    plan_list: Vec<u32>,
    plan_in: Vec<bool>,
    /// Output ports (flat link ids) with queued output packets.
    out_list: Vec<u32>,
    out_in: Vec<bool>,
    /// Routers whose global-port credit state changed since the last
    /// Piggyback publish (empty unless PB routing).
    sense_list: Vec<u32>,
    sense_in: Vec<bool>,
    /// Timing wheel of links with a packet head arriving at a cycle.
    pkt_wheel: Wheel<u32>,
    /// Timing wheel of links with a credit arriving at a cycle.
    cred_wheel: Wheel<u32>,
    /// Last credit-arrival cycle scheduled per owned link (local link id): credit
    /// returns are batched per link per cycle, so a link already scheduled
    /// for cycle `at` skips the duplicate wheel push — `deliver` drains
    /// every credit due at `at` from one wheel entry. Sound because credit
    /// departures (and hence arrivals) are monotonic per link, and a
    /// duplicate entry would drain nothing anyway.
    cred_sched: Vec<u64>,
    /// Debug-build shadow of `cred_wheel` *without* the per-link batching:
    /// one entry per credit event. `deliver` cross-checks that the batched
    /// drain processes exactly the credits the per-event schedule would
    /// have, cycle by cycle.
    #[cfg(debug_assertions)]
    shadow_cred: Wheel<u32>,
    /// Timing wheel of scheduled buffer releases `(local router, release)` —
    /// releases are commutative occupancy arithmetic, so wheel order is
    /// interchangeable with the old per-router scan order.
    rel_wheel: Wheel<(u32, Pending)>,
    /// Allocation candidate scratch (one entry per unified input).
    cand: Vec<Option<(u8, Decision)>>,
    /// Input indices holding a candidate this round (selective clearing).
    cand_set: Vec<u16>,
    /// Output ports with a forwarding candidate this round.
    ports_scratch: Vec<u16>,
    /// Per-router bitmask of unified inputs with queued packets (valid when
    /// `n_in <= 64`; stage 1 then visits only occupied ports).
    in_mask: Vec<u64>,
    /// Per-(router, input) bitmask of VCs (< 16) with queued packets —
    /// the allocator's VC-level skip, flat-indexed `r * n_in + in_idx`.
    vc_mask: Vec<u16>,
    /// Input feed busy-until, flat-indexed `r * n_in + in_idx`
    /// (`0..P` network ports, `P..P+p` injection).
    in_busy: Vec<u64>,
    /// Crossbar feed busy-until per output port, flat-indexed by link id.
    out_xbar: Vec<u64>,
    /// Output buffer occupancy per output port, flat-indexed by link id.
    out_occ: Vec<u32>,
    /// Consumption channel busy-until, flat-indexed `r * pn * 2 + channel`.
    eject_busy: Vec<u64>,
    /// VC count per unified input index (uniform across routers).
    vcs_by_in: Vec<u8>,
    /// Cycle at which a router was proven allocation-settled: under the
    /// baseline policy (no per-evaluation packet mutation, no PAR divert),
    /// a round with zero nominations leaves every input unchanged, so the
    /// remaining `speedup` rounds of the same cycle are provable no-ops.
    settled: Vec<u64>,
    /// Whether the settle shortcut is sound for this configuration.
    can_settle: bool,
    /// Set by `evaluate_head` when an evaluation semantically mutated a
    /// packet this round (opportunistic patience counting, reversion) —
    /// such a round is not provably repeatable and must not settle.
    eval_mutated: bool,
    /// Like `eval_mutated` but reset before every `evaluate_head` call:
    /// tells the caller whether *this* evaluation mutated its head
    /// (`eval_mutated` is sticky across a router visit, so it cannot
    /// distinguish which call mutated). A mutating rejection must keep
    /// being re-evaluated — patience advances per visit.
    eval_mutated_here: bool,
    /// Why the last `evaluate_head` call rejected (see [`EvalBlock`]):
    /// classifies the first failing gate so the rejection can be
    /// memoized until that gate can actually change.
    eval_block: EvalBlock,
    /// Per-(router, output-port) event counter, bumped whenever a gate on
    /// that port can flip from blocking to passing: a credit return
    /// (`deliver`) or an output-buffer release (`process_pending`). An
    /// `EvalBlock::Event` rejection is provably `None` while its port's
    /// counter is unchanged — credits and output occupancy improve through
    /// these two events and nothing else.
    port_epoch: Vec<u64>,
    /// Parallel to `vc_skip_until`: the port whose epoch the memoized
    /// rejection is keyed on, and the epoch observed when it was recorded
    /// (`u64::MAX` = no event key, deadline only).
    vc_skip_port: Vec<u16>,
    vc_skip_epoch: Vec<u64>,
    /// Per-(router, input, VC < 16) evaluation skip deadline: when an
    /// evaluation fails the crossbar-busy gate, the same `None` outcome is
    /// guaranteed until the (monotonically advancing) `out_xbar` expiry —
    /// the gate precedes every policy/mutation path and a blocked head
    /// cannot be dequeued meanwhile. Disabled for PAR (whose evaluations
    /// mutate divert state before the gate's outcome matters).
    vc_skip_until: Vec<u64>,
    /// Baseline policy lookup: `(class, slot) -> (vc, position)`, pure per
    /// configuration (empty unless the baseline policy is active).
    baseline_table: Vec<[(u8, u16); MAX_PLAN]>,
    /// Whether the workload emits flows (`flow_tags` stays untouched —
    /// and flow tagging costs nothing — otherwise).
    has_flows: bool,
    /// Flow tags of in-flight packets, keyed by `(src node, packet id)`.
    /// Kept *outside* [`Packet`] so synthetic workloads don't pay for the
    /// field on every buffer move; tags cross shard boundaries alongside
    /// their packet's boundary event. Packet ids alone are only unique per
    /// engine instance — sharded runs allocate them per shard — but a
    /// packet is generated by exactly one node and each node belongs to
    /// one shard, so pairing the id with the source node keys migrated
    /// tags without collisions.
    flow_tags: std::collections::HashMap<(u32, u64), flexvc_traffic::FlowTag>,
    /// Sensing occupancy scratch.
    occ_scratch: Vec<u32>,
    /// Sensing flag scratch.
    flag_scratch: Vec<bool>,
    // --- QoS (multi-class) state; inert when `qos_active` is false ---
    /// Cached `cfg.qos.is_some()`: every QoS branch on the hot path gates
    /// on this flag, so single-class configurations take bit-identical
    /// paths through the allocator.
    qos_active: bool,
    /// Strict-priority bypass bound B (0 when QoS is off): an arbiter that
    /// sees both classes requesting grants control, but after B such
    /// priority grants in a row it lets one bulk candidate through and
    /// resets — bounded bypass, the anti-starvation guarantee.
    bypass_bound: u32,
    /// Stage-1 bypass counters per (router, unified input),
    /// flat-indexed `r * n_in + in_idx`.
    bypass_in: Vec<u32>,
    /// Stage-2 bypass counters per (router, output port),
    /// flat-indexed `r * pp + port`.
    bypass_out: Vec<u32>,
    /// Allowed output-VC masks per (link class, traffic class) —
    /// [`SimConfig::qos_vc_mask`] precomputed, indexed
    /// `[link.index()][tclass.index()]`.
    qos_masks: [[u32; 2]; 2],
    /// Dynamic per-class buffer repartitioning enabled.
    repart: bool,
    /// Per-(router, output port, class) occupancy of the downstream credit
    /// mirror, flat-indexed `(r * pp + port) * 2 + tclass` (empty unless
    /// `repart`). Incremented on a forward grant, decremented when the
    /// matching credit returns (credits carry the packet's class).
    cls_occ: Vec<u32>,
    /// Per-(router, output port, class) phit quotas, same indexing. The two
    /// quotas of a port sum to its capacity and each stays at least one
    /// packet; [`Network::repartition`] shifts them under occupancy
    /// pressure.
    cls_quota: Vec<u32>,
    /// Total phit capacity per output port index (uniform across routers;
    /// the repartitioner's conservation invariant).
    port_total: Vec<u32>,
}

impl Network {
    /// Build a network for `cfg` at offered load `load` (phits/node/cycle)
    /// with deterministic `seed`. Fails with a typed
    /// [`ConfigError`](crate::error::ConfigError) when
    /// the configuration does not pass [`SimConfig::validate`].
    pub fn new(cfg: SimConfig, load: f64, seed: u64) -> Result<Self, crate::error::ConfigError> {
        cfg.validate()?;
        let topo = cfg.topology.build();
        Ok(Self::build(cfg, load, seed, topo, None))
    }

    /// Like [`Network::new`] but reusing a pre-built topology instance,
    /// which must match `cfg.topology` — the sweep runner and the bench
    /// harness build each distinct topology once and share the `Arc` across
    /// all points that use it instead of rebuilding per point. A topology
    /// whose router, port or node-per-router count differs from
    /// `cfg.topology` fails with
    /// [`ConfigError::TopologyMismatch`](crate::error::ConfigError::TopologyMismatch).
    pub fn with_topology(
        cfg: SimConfig,
        load: f64,
        seed: u64,
        topo: Arc<dyn Topology>,
    ) -> Result<Self, crate::error::ConfigError> {
        cfg.validate()?;
        cfg.topology.check_instance(topo.as_ref())?;
        Ok(Self::build(cfg, load, seed, topo, None))
    }

    /// Build one shard owning the contiguous router range `owned` (crate
    /// API for [`crate::shard::ShardedNetwork`]; `cfg` is pre-validated).
    pub(crate) fn new_shard(
        cfg: SimConfig,
        load: f64,
        seed: u64,
        topo: Arc<dyn Topology>,
        owned: std::ops::Range<u32>,
    ) -> Self {
        Self::build(cfg, load, seed, topo, Some(owned))
    }

    fn build(
        cfg: SimConfig,
        load: f64,
        seed: u64,
        topo: Arc<dyn Topology>,
        owned: Option<std::ops::Range<u32>>,
    ) -> Self {
        let family = cfg.topology.family();
        let pp = topo.num_ports();
        let pn = topo.nodes_per_router();
        let nr = topo.num_routers();
        let arr = cfg.arrangement.clone();
        let sharded = owned.is_some();
        let owned_r = owned.unwrap_or(0..nr as u32);
        debug_assert!(owned_r.start < owned_r.end && owned_r.end <= nr as u32);
        let r0 = owned_r.start as usize;
        // Owned routers: every per-router and per-port array below has
        // `lnr` entries (times ports, inputs or VC slots).
        let lnr = owned_r.len();

        let mut adj = vec![None; nr * pp];
        let node_base: Vec<u32> = (0..nr).map(|r| topo.node_base(r) as u32).collect();
        let mut port_class = vec![LinkClass::Local; pp];
        for port in 0..pp {
            port_class[port] = topo.port_class(0, port);
        }
        for r in 0..nr {
            for port in 0..pp {
                debug_assert_eq!(topo.port_class(r, port), port_class[port]);
                adj[r * pp + port] = topo
                    .neighbor(r, port)
                    .map(|(nr_, np)| (nr_ as u32, np as u16));
            }
        }
        let global_ports: Vec<usize> = (0..pp)
            .filter(|&p| port_class[p] == LinkClass::Global)
            .collect();
        // Dragonflies sense their global ports; single-class topologies
        // sense every network port (PB's UGAL comparison and saturation
        // flags then cover the first minimal hop of any path).
        let sense_all = global_ports.is_empty();
        let sense_ports: Vec<usize> = if sense_all {
            (0..pp).collect()
        } else {
            global_ports
        };

        let make_bank = |class: LinkClass, cfg: &SimConfig| -> Occupancy {
            let vcs = cfg.vcs_for_class(class).max(1);
            match cfg.buffers.organization {
                BufferOrg::Static => Occupancy::new_static(vcs, cfg.vc_capacity(class)),
                BufferOrg::Damq { private_fraction } => {
                    let total = cfg.port_capacity(class);
                    let private = ((total as f64 * private_fraction) / vcs as f64).floor() as u32;
                    Occupancy::new_damq(vcs, total, private)
                }
            }
        };

        // Nothing is sized for its worst case: packets live in the arena,
        // and banks, output queues and link rings hold handles in queues
        // that start empty and grow to their own high-water mark. Only the
        // owned routers get banks, arbiters, credit mirrors and queues.
        let size = cfg.packet_size.max(1);
        let max_lat = cfg.local_latency.max(cfg.global_latency) as u64;
        let mut routers: Vec<Router> = (r0..r0 + lnr)
            .map(|r| {
                let inputs: Vec<BufferBank> = (0..pp)
                    .map(|p| BufferBank::new(make_bank(port_class[p], &cfg)))
                    .collect();
                let inj: Vec<BufferBank> = (0..pn)
                    .map(|_| {
                        BufferBank::new(Occupancy::new_static(
                            cfg.injection_vcs,
                            cfg.buffers.injection,
                        ))
                    })
                    .collect();
                let out_credit: Vec<Occupancy> =
                    (0..pp).map(|p| make_bank(port_class[p], &cfg)).collect();
                let n_in = pp + pn;
                Router {
                    inputs,
                    inj,
                    in_arb: (0..n_in)
                        .map(|i| {
                            let vcs = if i < pp {
                                cfg.vcs_for_class(port_class[i]).max(1)
                            } else {
                                cfg.injection_vcs
                            };
                            RrArbiter::new(vcs)
                        })
                        .collect(),
                    out_arb: (0..pp).map(|_| RrArbiter::new(n_in)).collect(),
                    out_credit,
                    out_queue: (0..pp).map(|_| VecDeque::new()).collect(),
                    rng: SmallRng::seed_from_u64(
                        seed ^ 0xD1B5_4A32_D192_ED03u64.wrapping_mul(r as u64 + 1),
                    ),
                }
            })
            .collect();

        // Uniform packet size: let the credit mirrors maintain a ready-VC
        // bitmask incrementally, so the allocator's VC-candidate scan is a
        // word scan instead of a per-VC `can_accept` loop (static buffers
        // only; DAMQ admission depends on shared headroom and falls back).
        for router in &mut routers {
            for credit in &mut router.out_credit {
                credit.register_probe(size);
            }
        }

        // Links keep global ids; a replica a shard never transmits on or
        // receives from stays an empty, allocation-free `LinkState`.
        let links = (0..nr * pp).map(|_| LinkState::default()).collect();

        // The timing wheels address links by flat id and resolve packet
        // destinations through `adj[lid]`, which requires the wiring to be
        // involutive (it is for all our topologies).
        #[cfg(debug_assertions)]
        for r in 0..nr {
            for port in 0..pp {
                if let Some((nr2, np)) = adj[r * pp + port] {
                    debug_assert_eq!(
                        adj[nr2 as usize * pp + np as usize],
                        Some((r as u32, port as u16)),
                        "adjacency must be involutive"
                    );
                }
            }
        }
        // Worst-case link event horizon: a credit departs at most
        // `packet_size` cycles after its grant and arrives one link latency
        // later; packet heads arrive one latency after transmit.
        let horizon = max_lat + size as u64 + 2;

        // Precompute the baseline policy's pure (class, slot) -> (vc, pos)
        // mapping so the allocator's hottest path is a table lookup.
        let baseline_table: Vec<[(u8, u16); MAX_PLAN]> = if cfg.policy == VcPolicy::Baseline {
            let reference: &[LinkClass] = match family.generic_diameter() {
                None => cfg.routing.dragonfly_reference(),
                Some(d) => cfg.routing.generic_reference(d),
            };
            [MessageClass::Request, MessageClass::Reply]
                .iter()
                .map(|&class| {
                    let mut row = [(0u8, 0u16); MAX_PLAN];
                    // Reply rows exist only for reactive workloads (the
                    // arrangement has no reply part otherwise, and no
                    // reply packet can ever query the table).
                    if class == MessageClass::Reply && !cfg.workload.is_reactive() {
                        return row;
                    }
                    for (slot, entry) in row.iter_mut().enumerate().take(reference.len()) {
                        let (bclass, bvc) = baseline_vc(&arr, class, reference, slot);
                        let pos = arr.position(bclass, bvc).expect("baseline vc") as u16;
                        *entry = (bvc as u8, pos);
                    }
                    row
                })
                .collect()
        } else {
            Vec::new()
        };

        // Reactive workloads split the offered load between requests and the
        // replies they trigger.
        let gen_load = if cfg.workload.is_reactive() {
            load / 2.0
        } else {
            load
        };
        let space = NodeSpace {
            num_nodes: topo.num_nodes(),
            nodes_per_group: topo.num_nodes() / topo.num_groups(),
            num_groups: topo.num_groups(),
        };
        // A permutation flow workload fixes each node's destination from a
        // seed-only random derangement; every shard derives the identical
        // table, keeping sharded runs bit-identical.
        let perm: Option<Vec<u32>> = match cfg.workload.flow_spec() {
            Some(spec) if matches!(spec.pattern, FlowPattern::Permutation) => {
                Some(random_permutation(topo.num_nodes(), seed))
            }
            _ => None,
        };
        let n_nodes = topo.num_nodes();
        // Node numbering is router-major (`node_base` is monotone), so the
        // nodes of a contiguous router range are themselves contiguous.
        let owned_n = {
            let start = node_base[owned_r.start as usize];
            let end = if owned_r.end as usize == nr {
                n_nodes as u32
            } else {
                node_base[owned_r.end as usize]
            };
            start..end
        };
        let lnn = owned_n.len();
        let gens: Vec<NodeTraffic> = (owned_n.start as usize..owned_n.end as usize)
            .map(|n| {
                NodeTraffic::new(
                    cfg.workload,
                    n,
                    space,
                    gen_load,
                    cfg.packet_size,
                    seed,
                    perm.as_ref().map(|p| p[n]),
                )
            })
            .collect();

        let boards = if cfg.routing.uses_boards() {
            let rpg = topo.routers_per_group();
            (0..topo.num_groups())
                .map(|_| GroupBoard::new(rpg, sense_ports.len(), cfg.local_latency as u64))
                .collect()
        } else {
            Vec::new()
        };

        let policy = RoutePolicy::new(&cfg);
        let cfg_has_flows = cfg.workload.flow_spec().is_some();
        // In-transit decisions (PAR's divert mark, DAL's per-dimension
        // evaluation, adaptive copy re-selection) mutate packets during
        // evaluation, so such configurations never settle; FlexVC
        // mutations (patience, reversion) are tracked per round via
        // `eval_mutated`.
        let transit_decisions = policy.decides_in_transit();
        let fast_min = policy.is_static_min();
        let can_settle = !transit_decisions;
        let cfg_vcs_by_port: Vec<u8> = (0..pp)
            .map(|p| cfg.vcs_for_class(port_class[p]).clamp(1, 255) as u8)
            .collect();
        let injection_vcs_u8 = cfg.injection_vcs.min(255) as u8;
        // QoS precomputation: validation already proved the configuration
        // safe (see `SimConfig::check_qos`), so the engine only caches the
        // derived masks, bounds and initial quotas here.
        let qos = cfg.qos;
        let qos_active = qos.is_some();
        let bypass_bound = qos.map_or(0, |q| q.bypass_bound);
        let repart = qos.is_some_and(|q| q.repartition);
        let qos_masks = [
            [
                cfg.qos_vc_mask(LinkClass::Local, TrafficClass::Control),
                cfg.qos_vc_mask(LinkClass::Local, TrafficClass::Bulk),
            ],
            [
                cfg.qos_vc_mask(LinkClass::Global, TrafficClass::Control),
                cfg.qos_vc_mask(LinkClass::Global, TrafficClass::Bulk),
            ],
        ];
        let port_total: Vec<u32> = (0..pp).map(|p| cfg.port_capacity(port_class[p])).collect();
        let mut cls_quota = vec![0u32; if repart { lnr * pp * 2 } else { 0 }];
        if repart {
            let frac = qos.expect("repart implies qos").control_quota_fraction;
            for p in 0..pp {
                let total = port_total[p];
                // Initial split: control gets `frac` of the port, rounded
                // down to whole packets and clamped so both classes hold at
                // least one packet. Ports too small to split stay
                // unpartitioned (both quotas = capacity, the gate is inert
                // and the repartitioner skips them).
                let (cq, bq) = if total >= 2 * size {
                    let c = ((total as f64 * frac) as u32 / size * size).clamp(size, total - size);
                    (c, total - c)
                } else {
                    (total, total)
                };
                for lr in 0..lnr {
                    cls_quota[(lr * pp + p) * 2] = cq;
                    cls_quota[(lr * pp + p) * 2 + 1] = bq;
                }
            }
        }
        Network {
            cfg,
            topo,
            family,
            arr,
            policy,
            transit_decisions,
            fast_min,
            pp,
            pn,
            adj,
            node_base,
            port_class,
            sense_ports,
            sense_all,
            routers,
            arena: PacketArena::default(),
            links,
            gens,
            staging: vec![VecDeque::new(); lnn],
            inj_rr: vec![0; lnn],
            boards,
            metrics: Metrics::default(),
            cycle: 0,
            next_id: 0,
            offered: load,
            in_flight: 0,
            last_progress: 0,
            draining: false,
            owned_r,
            r0,
            n0: owned_n.start as usize,
            sharded,
            outbox: Vec::new(),
            queued: vec![0; lnr],
            alloc_list: Vec::new(),
            alloc_in: vec![false; lnr],
            plan_list: Vec::new(),
            plan_in: vec![false; lnr],
            out_list: Vec::new(),
            out_in: vec![false; lnr * pp],
            sense_list: Vec::new(),
            sense_in: vec![false; lnr],
            pkt_wheel: Wheel::new(horizon),
            cred_wheel: Wheel::new(horizon),
            cred_sched: vec![0; lnr * pp],
            #[cfg(debug_assertions)]
            shadow_cred: Wheel::new(horizon),
            rel_wheel: Wheel::new(horizon),
            cand: vec![None; pp + pn],
            cand_set: Vec::with_capacity(pp + pn),
            ports_scratch: Vec::with_capacity(pp),
            in_mask: vec![0; lnr],
            vc_mask: vec![0; lnr * (pp + pn)],
            in_busy: vec![0; lnr * (pp + pn)],
            out_xbar: vec![0; lnr * pp],
            out_occ: vec![0; lnr * pp],
            eject_busy: vec![0; lnr * pn * 2],
            vcs_by_in: (0..pp + pn)
                .map(|i| {
                    if i < pp {
                        cfg_vcs_by_port[i]
                    } else {
                        injection_vcs_u8
                    }
                })
                .collect(),
            settled: vec![u64::MAX; lnr],
            can_settle,
            eval_mutated: false,
            eval_mutated_here: false,
            eval_block: EvalBlock::Never,
            port_epoch: vec![0; lnr * pp],
            vc_skip_port: vec![0; lnr * (pp + pn) * 16],
            vc_skip_epoch: vec![u64::MAX; lnr * (pp + pn) * 16],
            vc_skip_until: vec![0; lnr * (pp + pn) * 16],
            baseline_table,
            has_flows: cfg_has_flows,
            flow_tags: std::collections::HashMap::new(),
            occ_scratch: Vec::new(),
            flag_scratch: Vec::new(),
            qos_active,
            bypass_bound,
            bypass_in: vec![0; if qos_active { lnr * (pp + pn) } else { 0 }],
            bypass_out: vec![0; if qos_active { lnr * pp } else { 0 }],
            qos_masks,
            repart,
            cls_occ: vec![0; if repart { lnr * pp * 2 } else { 0 }],
            cls_quota,
            port_total,
        }
    }

    /// Whether this instance owns (steps) router `r`.
    #[inline]
    fn owns(&self, r: u32) -> bool {
        self.owned_r.contains(&r)
    }

    /// Offered load this network was built with.
    pub fn offered(&self) -> f64 {
        self.offered
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Packets currently in queues, buffers or links.
    pub fn packets_in_flight(&self) -> i64 {
        self.in_flight
    }

    /// Packets stored in this instance's packet arena. Equals
    /// [`Network::packets_in_flight`] for a plain network; a shard holds
    /// the packets queued at its own routers and on links toward them.
    pub fn arena_live(&self) -> usize {
        self.arena.live()
    }

    /// Whether the watchdog flagged a deadlock.
    pub fn deadlocked(&self) -> bool {
        self.metrics.deadlocked
    }

    /// Last cycle the watchdog observed forward progress (packet motion,
    /// link serialization, or a credit return). Diagnostics only.
    pub fn last_progress(&self) -> u64 {
        self.last_progress
    }

    fn in_window(&self, cycle: u64) -> bool {
        cycle >= self.cfg.warmup && cycle < self.cfg.warmup + self.cfg.measure
    }

    fn latency_of(&self, class: LinkClass) -> u32 {
        match class {
            LinkClass::Local => self.cfg.local_latency,
            LinkClass::Global => self.cfg.global_latency,
        }
    }

    /// A flow's ideal (zero-load) completion time: the train's full
    /// serialization at the 1 phit/cycle injection rate plus the unloaded
    /// latency of the minimal path (per-hop link latency plus router
    /// pipeline) — the standard FCT-slowdown denominator. Derived from the
    /// topology's minimal hop classes between the flow's endpoints.
    fn flow_ideal(
        &self,
        tag: &flexvc_traffic::FlowTag,
        src: u32,
        dst_router: u32,
        size: u32,
    ) -> u64 {
        let src_r = self.topo.router_of_node(src as usize);
        let path = self.topo.min_classes(src_r, dst_router as usize);
        let unloaded: u64 = path[..]
            .iter()
            .map(|&c| (self.cfg.pipeline_latency + self.latency_of(c)) as u64)
            .sum();
        tag.len as u64 * size as u64 + unloaded
    }

    /// Mute the traffic generators and step until every in-flight packet
    /// has been consumed — including replies still staged at their NIC,
    /// which are not in `in_flight` until injected — or `max_cycles`
    /// elapse, or the watchdog fires. Returns the packets still pending
    /// (in flight + staged): 0 proves the conservation property
    /// "injected = consumed at drain": nothing the network accepted is
    /// stranded in a buffer, queue, link or reply-staging slot.
    pub fn drain(&mut self, max_cycles: u64) -> i64 {
        self.draining = true;
        let end = self.cycle.saturating_add(max_cycles);
        loop {
            // Staging queues only matter once the network itself is empty,
            // so the O(nodes) scan runs rarely.
            let staged = if self.in_flight > 0 {
                0
            } else {
                self.staging.iter().map(|q| q.len()).sum::<usize>() as i64
            };
            let pending = self.in_flight + staged;
            if pending == 0 || self.cycle >= end || self.metrics.deadlocked {
                return pending;
            }
            self.step();
        }
    }

    /// Run to completion and aggregate the result.
    pub fn run(&mut self) -> SimResult {
        let end = self.cfg.warmup + self.cfg.measure;
        while self.cycle < end && !self.metrics.deadlocked {
            self.step();
        }
        self.metrics.cycles = self
            .cycle
            .saturating_sub(self.cfg.warmup)
            .min(self.cfg.measure);
        SimResult::from_metrics(&self.metrics, self.offered, self.topo.num_nodes())
    }

    /// Advance one cycle.
    pub fn step(&mut self) {
        let now = self.cycle;
        self.step_phases(now);
        for b in &mut self.boards {
            b.tick(now);
        }
        self.watchdog(now);
        self.cycle += 1;
    }

    /// Phases 1–7 of one cycle (everything router-local). The board tick,
    /// the watchdog and the cycle advance live in [`Network::step`] /
    /// [`Network::finish_cycle_shard`] because a shard must first absorb
    /// the cycle's foreign boundary events (which carry board publishes and
    /// feed the watchdog's global reductions).
    fn step_phases(&mut self, now: u64) {
        debug_assert_eq!(now, self.cycle);
        self.deliver(now);
        self.process_pending(now);
        if self.repart {
            self.repartition();
        }
        self.generate(now);
        self.plan_heads(now);
        for _ in 0..self.cfg.speedup {
            self.allocate(now);
        }
        self.serialize_outputs(now);
        if self.cfg.routing.uses_boards() {
            self.update_sensing(now);
        }
        if now.is_multiple_of(128) && self.in_window(now) {
            self.sample_occupancy();
        }
        #[cfg(debug_assertions)]
        self.check_arena();
    }

    /// Debug-build conservation check: the arena holds exactly the packets
    /// queued in this instance's banks, output queues and link rings.
    #[cfg(debug_assertions)]
    fn check_arena(&self) {
        let queued: usize = self
            .routers
            .iter()
            .flat_map(|router| router.inputs.iter().chain(&router.inj))
            .map(BufferBank::queued_packets)
            .sum();
        let outputs: usize = self
            .routers
            .iter()
            .flat_map(|router| &router.out_queue)
            .map(VecDeque::len)
            .sum();
        let links: usize = self.links.iter().map(|l| l.packets.len()).sum();
        assert_eq!(
            self.arena.live(),
            queued + outputs + links,
            "arena out of step with banks ({queued}), output queues ({outputs}) \
             and link rings ({links}) at cycle {}",
            self.cycle
        );
    }

    // ------------------------------------------------------------------
    // Shard-execution hooks (driven by `crate::shard::ShardedNetwork`)
    // ------------------------------------------------------------------

    /// Free-run `len` cycles starting at `t0` without an intervening
    /// boundary exchange, leaving the last cycle open for the exchange and
    /// [`Network::finish_cycle_shard`]. Sound only when the driver caps
    /// `len` at the epoch bound (minimum cut-link latency; see
    /// `crate::shard`): then no foreign effect can land inside `t0 ..
    /// t0 + len`, so intermediate cycles need no absorb. Intermediate
    /// cycles tick the boards (their publishes are all local when the
    /// shard owns every router — the only multi-cycle epoch regime with
    /// boards in play, since foreign publishes are not time-keyed and
    /// would miss their swap if applied late) but skip the watchdog check
    /// (the driver's epoch bound proves those cycles cannot fire; the
    /// epoch's last cycle runs the exact global check as usual).
    pub(crate) fn step_epoch_shard(&mut self, t0: u64, len: u64) {
        debug_assert!(self.sharded);
        debug_assert!(len >= 1);
        debug_assert!(
            len == 1 || self.boards.is_empty() || self.owned_r.len() == self.topo.num_routers(),
            "multi-cycle epochs with boards require a cut-free shard"
        );
        for c in t0..t0 + len - 1 {
            self.step_phases(c);
            for b in &mut self.boards {
                b.tick(c);
            }
            self.cycle += 1;
        }
        self.step_phases(t0 + len - 1);
    }

    /// Drain this cycle's boundary events (in emission order).
    pub(crate) fn take_outbox(&mut self) -> Vec<BoundaryEvent> {
        std::mem::take(&mut self.outbox)
    }

    /// Return the (drained) outbox buffer so its capacity is reused.
    pub(crate) fn put_outbox(&mut self, buf: Vec<BoundaryEvent>) {
        debug_assert!(buf.is_empty() && self.outbox.is_empty());
        self.outbox = buf;
    }

    /// Absorb one foreign boundary event during the end-of-cycle exchange
    /// of cycle `now`. Every event's effect cycle is strictly in the future
    /// (packet heads arrive one link latency after transmit, credits one
    /// latency after their departure, board publishes land in the boards'
    /// write buffer until the tick), so applying them here — after this
    /// shard's own phases — is indistinguishable from the single-engine
    /// schedule, where the same effects were queued during the phases.
    pub(crate) fn apply_boundary(&mut self, now: u64, ev: BoundaryEvent) {
        match ev.payload {
            BoundaryPayload::Packet {
                mut flight,
                packet,
                flow,
            } => {
                // Epoch soundness: every cut-crossing arrival lands strictly
                // after the exchange cycle (delay ≥ the cut-link latency the
                // epoch length is capped at), so applying late never
                // back-dates an event.
                debug_assert!(ev.at > now);
                debug_assert!(self.owns(self.adj[ev.lid as usize].expect("wired").0));
                if let Some(tag) = flow {
                    self.flow_tags.insert((packet.src, packet.id), tag);
                }
                flight.pkt = self.arena.insert(packet);
                self.pkt_wheel.schedule(now, ev.at, ev.lid);
                self.links[ev.lid as usize].receive_flight(flight);
            }
            BoundaryPayload::Credit {
                vc,
                phits,
                class,
                tclass,
            } => {
                debug_assert!(ev.at > now);
                debug_assert!(self.owns(ev.lid / self.pp as u32));
                self.links[ev.lid as usize].receive_credit(ev.at, vc, phits, class, tclass);
                self.schedule_credit(now, ev.at, ev.lid as usize);
            }
            BoundaryPayload::Board {
                group,
                local,
                port,
                class,
                sat,
            } => {
                self.boards[group as usize].publish(local as usize, port as usize, class, sat);
            }
        }
    }

    /// Complete cycle `now` after the boundary exchange: tick the (now
    /// fully published) boards, run the watchdog against the *global*
    /// reductions — total packets in flight and the latest progress cycle
    /// across all shards — and advance the cycle counter. Every shard
    /// receives identical globals, so the deadlock flag flips on all shards
    /// in the same cycle and the drivers' stop predicates stay in lockstep.
    pub(crate) fn finish_cycle_shard(&mut self, now: u64, in_flight: i64, progress: u64) {
        debug_assert!(progress >= self.last_progress);
        self.last_progress = progress;
        for b in &mut self.boards {
            b.tick(now);
        }
        if in_flight > 0 && now.saturating_sub(self.last_progress) > self.cfg.watchdog {
            self.metrics.deadlocked = true;
        }
        self.cycle += 1;
    }

    /// This shard's measurement counters (merged exactly by the driver).
    pub(crate) fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The configuration (driver access for windows and shard resolution).
    pub(crate) fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Replies staged at owned nodes but not yet injected (the drain
    /// conservation check counts them as pending).
    pub(crate) fn staged_pending(&self) -> i64 {
        self.staging.iter().map(|q| q.len()).sum::<usize>() as i64
    }

    /// Mute the owned traffic generators (sharded drain).
    pub(crate) fn begin_drain(&mut self) {
        self.draining = true;
    }

    /// Periodic per-VC occupancy sampling (the §III-D sensing signal).
    fn sample_occupancy(&mut self) {
        let prof = &mut self.metrics.vc_profile;
        if prof.samples == 0 {
            for class in [LinkClass::Local, LinkClass::Global] {
                let i = class.index();
                prof.sums[i] = vec![0; self.cfg.vcs_for_class(class)];
                prof.ports[i] = (self.port_class.iter().filter(|&&c| c == class).count()
                    * self.topo.num_routers()) as u64;
            }
        }
        prof.samples += 1;
        // Owned routers only (the full network when not sharded); `ports`
        // above still counts the whole network, so per-shard profiles sum
        // exactly to the single-engine profile.
        for router in &self.routers {
            for (port, bank) in router.inputs.iter().enumerate() {
                let sums = &mut prof.sums[self.port_class[port].index()];
                for vc in 0..bank.vcs() {
                    sums[vc] += bank.occ.occupancy(vc) as u64;
                }
            }
        }
    }

    /// Dynamic per-class buffer repartitioning: once per cycle, each owned
    /// router shifts one packet's worth of quota between the two classes
    /// of an output port when one class is under pressure (above 3/4 of
    /// its own quota) while the other leaves slack (below 1/2 of its own).
    /// Shifts preserve the per-port invariants — the quotas sum to the
    /// port capacity and each class keeps at least one packet — and never
    /// take a quota below the donor's current occupancy, so credits
    /// already granted stay honored. The decision reads only router-local
    /// state and runs in the same phase slot on every shard, so sharded
    /// runs stay bit-identical.
    fn repartition(&mut self) {
        let pp = self.pp;
        let size = self.cfg.packet_size;
        for lr in 0..self.routers.len() {
            for p in 0..pp {
                let base = (lr * pp + p) * 2;
                let (cq, bq) = (self.cls_quota[base], self.cls_quota[base + 1]);
                if cq + bq != self.port_total[p] {
                    continue; // port too small to split (inert quotas)
                }
                let (co, bo) = (self.cls_occ[base], self.cls_occ[base + 1]);
                let ctrl_pressed = co * 4 > cq * 3 && bo * 2 < bq;
                let bulk_pressed = bo * 4 > bq * 3 && co * 2 < cq;
                let (donor, taker) = if ctrl_pressed && !bulk_pressed {
                    (base + 1, base)
                } else if bulk_pressed && !ctrl_pressed {
                    (base, base + 1)
                } else {
                    continue;
                };
                let floor = self.cls_occ[donor].max(size);
                if self.cls_quota[donor] >= floor + size {
                    self.cls_quota[donor] -= size;
                    self.cls_quota[taker] += size;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Phase 1: arrivals
    // ------------------------------------------------------------------

    fn deliver(&mut self, now: u64) {
        let pp = self.pp;
        // Packet arrivals: exactly the links with a head phit due now
        // (scheduled at transmit time). `adj[lid]` resolves the receiving
        // router/port thanks to involutive wiring.
        let due = self.pkt_wheel.take(now);
        for &lid32 in &due {
            let lid = lid32 as usize;
            let (dr, dp) = self.adj[lid].expect("transmitting link is wired");
            let (lr, ip) = (dr as usize - self.r0, dp as usize);
            while let Some(f) = self.links[lid].pop_arrived(now) {
                let pkt = &mut self.arena[f.pkt];
                pkt.head_arrival = f.head_arrival;
                pkt.tail_arrival = f.tail_arrival;
                self.enqueue(lr, ip, f.vc as usize, f.pkt);
                self.last_progress = now;
            }
        }
        self.pkt_wheel.put_back(now, due);
        // Credit arrivals: links with a credit due now (the credit queue
        // lives on the *upstream* link, owned by the router it returns to).
        // One wheel entry per (link, cycle) — `schedule_credit` batches —
        // and the drain loop applies every credit due on that link at once.
        #[cfg(debug_assertions)]
        let mut drained_dbg: Vec<(u32, u32)> = Vec::new();
        let due = self.cred_wheel.take(now);
        for &lid32 in &due {
            let lid = lid32 as usize;
            // The credit queue's link is owned by the router it returns to.
            let llid = lid - self.r0 * pp;
            let (lr, op) = (llid / pp, llid % pp);
            let mut any = false;
            while let Some(c) = self.links[lid].pop_credit(now) {
                self.routers[lr].out_credit[op].remove(c.vc as usize, c.phits, c.class);
                if self.repart {
                    // The downstream buffer drained a packet of this class:
                    // release its share of the class quota.
                    self.cls_occ[llid * 2 + c.tclass.index()] -= c.phits;
                }
                // A returning credit is forward progress: downstream
                // drained a buffer we were blocked on. Without this, an
                // extremely congested-but-live network whose grants are
                // spaced by long credit round trips can be misflagged
                // as deadlocked.
                self.last_progress = now;
                any = true;
                #[cfg(debug_assertions)]
                match drained_dbg.last_mut() {
                    Some((l, n)) if *l == lid32 => *n += 1,
                    _ => drained_dbg.push((lid32, 1)),
                }
            }
            if any {
                // Credits restore acceptance on this output port: wake its
                // memoized rejections (see `port_epoch`).
                self.port_epoch[llid] += 1;
                if !self.boards.is_empty()
                    && (self.sense_all || self.port_class[op] == LinkClass::Global)
                {
                    mark(&mut self.sense_list, &mut self.sense_in, lr);
                }
            }
        }
        self.cred_wheel.put_back(now, due);
        // Cross-check: the batched drain must process exactly the credits
        // the un-batched per-event schedule (`shadow_cred`) has due this
        // cycle — same links, same per-link counts.
        #[cfg(debug_assertions)]
        {
            let shadow = self.shadow_cred.take(now);
            let mut expected: Vec<(u32, u32)> = Vec::new();
            for &l in &shadow {
                match expected.iter_mut().find(|(el, _)| *el == l) {
                    Some((_, n)) => *n += 1,
                    None => expected.push((l, 1)),
                }
            }
            drained_dbg.sort_unstable();
            expected.sort_unstable();
            debug_assert_eq!(
                drained_dbg, expected,
                "batched credit drain diverged from the per-event schedule at cycle {now}"
            );
            self.shadow_cred.put_back(now, shadow);
        }
    }

    // ------------------------------------------------------------------
    // Phase 2: scheduled releases
    // ------------------------------------------------------------------

    fn process_pending(&mut self, now: u64) {
        let pp = self.pp;
        let due = self.rel_wheel.take(now);
        for &(lr, rel) in &due {
            let lr = lr as usize;
            match rel {
                Pending::Input {
                    in_idx,
                    vc,
                    phits,
                    class,
                    at,
                } => {
                    debug_assert_eq!(at, now);
                    let in_idx = in_idx as usize;
                    let router = &mut self.routers[lr];
                    if in_idx < pp {
                        router.inputs[in_idx].release(vc as usize, phits, class);
                    } else {
                        router.inj[in_idx - pp].release(vc as usize, phits, class);
                    }
                }
                Pending::OutBuf { port, phits, at } => {
                    debug_assert_eq!(at, now);
                    self.out_occ[lr * pp + port as usize] -= phits;
                    // Output space restored: wake the port's memoized
                    // rejections (see `port_epoch`).
                    self.port_epoch[lr * pp + port as usize] += 1;
                }
            }
        }
        self.rel_wheel.put_back(now, due);
    }

    // ------------------------------------------------------------------
    // Phase 3: traffic generation
    // ------------------------------------------------------------------

    fn generate(&mut self, now: u64) {
        let size = self.cfg.packet_size;
        let reactive = self.cfg.workload.is_reactive();
        let in_window = self.in_window(now);
        for ln in 0..self.gens.len() {
            let n = self.n0 + ln;
            // New requests from the pattern generator (muted while
            // draining; staged replies below still flush).
            if let Some(em) = (!self.draining).then(|| self.gens[ln].next(now)).flatten() {
                if in_window {
                    self.metrics.generated_packets += 1;
                    self.metrics.generated_phits += size as u64;
                }
                let tclass = em.tclass;
                let vc = if reactive {
                    0
                } else if self.qos_active && self.cfg.injection_vcs > 1 {
                    // Injection-lane dedication: control owns injection
                    // VC 0 and bulk round-robins over the remaining lanes,
                    // so a saturated bulk queue cannot head-block control
                    // at the NIC.
                    match tclass {
                        TrafficClass::Control => 0,
                        TrafficClass::Bulk => {
                            let lanes = self.cfg.injection_vcs as u8 - 1;
                            let v = self.inj_rr[ln] % lanes;
                            self.inj_rr[ln] = (v + 1) % lanes;
                            v + 1
                        }
                    }
                } else {
                    let v = self.inj_rr[ln];
                    self.inj_rr[ln] = (v + 1) % self.cfg.injection_vcs as u8;
                    v
                } as usize;
                let (lr, local) = self.node_slot(n);
                if self.routers[lr].inj[local].occ.can_accept(vc, size) {
                    let pkt = self.new_packet(
                        n as u32,
                        em.dest as u32,
                        MessageClass::Request,
                        tclass,
                        now,
                    );
                    if let Some(tag) = em.flow {
                        self.flow_tags.insert((pkt.src, pkt.id), tag);
                    }
                    self.inject(lr, local, vc, pkt, now);
                } else if in_window {
                    self.metrics.dropped_packets += 1;
                }
            }
            // Staged replies enter the reply injection VC when it has room.
            while let Some(&(dst, ready)) = self.staging[ln].front() {
                if ready > now {
                    break;
                }
                let (lr, local) = self.node_slot(n);
                if !self.routers[lr].inj[local].occ.can_accept(1, size) {
                    break;
                }
                self.staging[ln].pop_front();
                if in_window {
                    self.metrics.generated_packets += 1;
                    self.metrics.generated_phits += size as u64;
                }
                // Replies exist only on reactive workloads, which QoS
                // validation rejects: they are always bulk.
                let pkt =
                    self.new_packet(n as u32, dst, MessageClass::Reply, TrafficClass::Bulk, now);
                self.inject(lr, local, 1, pkt, now);
            }
        }
    }

    /// Queue packet `h` in VC `vc` of unified input `in_idx` at local router
    /// `lr`, and list the router for allocation.
    #[inline]
    fn enqueue(&mut self, lr: usize, in_idx: usize, vc: usize, h: PktHandle) {
        let router = &mut self.routers[lr];
        let bank = if in_idx < self.pp {
            &mut router.inputs[in_idx]
        } else {
            &mut router.inj[in_idx - self.pp]
        };
        bank.push(vc, h, &mut self.arena);
        self.queued[lr] += 1;
        if in_idx < 64 {
            self.in_mask[lr] |= 1 << in_idx;
        }
        if vc < 16 {
            self.vc_mask[lr * (self.pp + self.pn) + in_idx] |= 1 << vc;
        }
        mark(&mut self.alloc_list, &mut self.alloc_in, lr);
    }

    /// Store a generated packet and queue it in injection VC `vc` of bank
    /// `local` at local router `lr`, whose new head needs planning.
    fn inject(&mut self, lr: usize, local: usize, vc: usize, pkt: Packet, now: u64) {
        let h = self.arena.insert(pkt);
        self.enqueue(lr, self.pp + local, vc, h);
        mark(&mut self.plan_list, &mut self.plan_in, lr);
        self.in_flight += 1;
        self.last_progress = now;
    }

    /// Local router id and injection-bank index of owned node `n`.
    #[inline]
    fn node_slot(&self, n: usize) -> (usize, usize) {
        let r = self.topo.router_of_node(n);
        (r - self.r0, n - self.node_base[r] as usize)
    }

    fn new_packet(
        &mut self,
        src: u32,
        dst: u32,
        class: MessageClass,
        tclass: TrafficClass,
        now: u64,
    ) -> Packet {
        let id = self.next_id;
        self.next_id += 1;
        Packet {
            id,
            src,
            dst,
            dst_router: self.topo.router_of_node(dst as usize) as u32,
            class,
            tclass,
            size: self.cfg.packet_size,
            gen_cycle: now,
            head_arrival: now,
            tail_arrival: now,
            position: None,
            plan: PlannedPath::empty(),
            min_routed: true,
            derouted: false,
            buffered_class: CreditClass::MinRouted,
            planned: false,
            par_evaluated: false,
            hop_decided: false,
            flex_opts: None,
            opp_blocked: 0,
            hops: 0,
            reverts: 0,
        }
    }

    // ------------------------------------------------------------------
    // Phase 4: route planning at injection heads
    // ------------------------------------------------------------------

    fn plan_heads(&mut self, _now: u64) {
        // Only routers with injection-bank activity since the last pass
        // can hold an unplanned head: packets are planned exactly when
        // they first become an injection head, which happens on a push
        // (head of an empty VC) or a pop (successor becomes head). Both
        // sites mark the worklist, so draining it each cycle plans exactly
        // the heads the full sweep would have planned.
        let mut list = std::mem::take(&mut self.plan_list);
        for &lr32 in &list {
            let lr = lr32 as usize;
            let r = lr + self.r0;
            self.plan_in[lr] = false;
            for local in 0..self.pn {
                for vc in 0..self.cfg.injection_vcs {
                    // Split borrows: the head lives in the arena, congestion
                    // state in `out_credit`/`rng`/boards.
                    let router = &mut self.routers[lr];
                    let Some(h) = router.inj[local].head(vc) else {
                        continue;
                    };
                    let head = &self.arena[h];
                    if head.planned {
                        continue;
                    }
                    let (dst_r, class) = (head.dst_router as usize, head.class);
                    let (plan, min_routed) = if self.fast_min {
                        // Monomorphized MIN fast path: `plan_injection` in
                        // Min mode without adaptive copies reads no sensed
                        // state and no RNG, so skip the `SenseView` setup
                        // and the policy dispatch entirely.
                        if dst_r == r {
                            (PlannedPath::empty(), true)
                        } else {
                            (min_plan(&*self.topo, r, dst_r), true)
                        }
                    } else {
                        let sense = SenseView {
                            out_credit: &router.out_credit,
                            boards: &self.boards,
                            sense_ports: &self.sense_ports,
                            sense_all: self.sense_all,
                            min_cred: self.cfg.sensing.min_cred,
                            adj: &self.adj,
                            port_class: &self.port_class,
                        };
                        self.policy.plan_injection(
                            &*self.topo,
                            &sense,
                            &mut router.rng,
                            r,
                            dst_r,
                            class,
                        )
                    };
                    let head = &mut self.arena[h];
                    head.plan = plan;
                    head.min_routed = min_routed;
                    head.derouted = !min_routed;
                    head.planned = true;
                    head.flex_opts = None;
                }
            }
        }
        list.clear();
        self.plan_list = list;
    }

    // ------------------------------------------------------------------
    // Phase 5: allocation
    // ------------------------------------------------------------------

    fn allocate(&mut self, now: u64) {
        let pp = self.pp;
        let pn = self.pn;
        let n_in = pp + pn;
        let mut cand = std::mem::take(&mut self.cand);
        let mut cand_set = std::mem::take(&mut self.cand_set);
        let mut ports_scratch = std::mem::take(&mut self.ports_scratch);
        debug_assert_eq!(cand.len(), n_in);

        // Only routers with queued packets can produce decisions: arbiters
        // do not advance and RNGs are not drawn on request-free visits, so
        // skipping idle routers is exactly the full sweep minus no-ops.
        // Routers are dropped from the worklist lazily once they drain.
        let mut list = std::mem::take(&mut self.alloc_list);
        let mut li = 0;
        // Request slots are mask-tracked (`req_mask` is rebuilt per port
        // visit and stale entries are never read), so one initialization
        // serves the whole sweep — the per-visit 16-slot re-init showed up
        // at scale.
        let mut reqs: [Option<Decision>; 16] = [None; 16];
        while li < list.len() {
            let lr = list[li] as usize;
            if self.queued[lr] == 0 {
                self.alloc_in[lr] = false;
                list.swap_remove(li);
                continue;
            }
            li += 1;
            // Settled this cycle: an earlier round proved zero nominations
            // under a mutation-free policy, so this round is a no-op too.
            if self.settled[lr] == now {
                continue;
            }
            // Candidate scratch is cleared *selectively* (only slots set
            // this round, tracked in `cand_set`) — per-router memsets of
            // the whole array dominated the allocator at scale.
            debug_assert!(cand.iter().all(|c| c.is_none()));
            cand_set.clear();
            self.eval_mutated = false;
            // Stage 1: each input port nominates one VC. Ports without a
            // queued packet cannot request anything; when the unified input
            // space fits a 64-bit mask (always, for our topologies) only
            // occupied ports are visited at all.
            let use_mask = n_in <= 64;
            let mut occupied = if use_mask { self.in_mask[lr] } else { 0 };
            // Fallback cursor for (hypothetical) routers wider than 64
            // unified inputs: visit everything; the per-port queued check
            // below still skips empty banks.
            let mut lin_idx = 0usize;
            loop {
                let in_idx = if use_mask {
                    if occupied == 0 {
                        break;
                    }
                    let i = occupied.trailing_zeros() as usize;
                    occupied &= occupied - 1;
                    debug_assert!(i < n_in, "stale occupied-port bit");
                    i
                } else {
                    if lin_idx >= n_in {
                        break;
                    }
                    lin_idx += 1;
                    lin_idx - 1
                };
                if self.in_busy[lr * n_in + in_idx] > now {
                    continue;
                }
                let mut req_mask: u32 = 0;
                // Requesting VCs whose head is control-class (QoS stage-1
                // priority; stays 0 when QoS is off).
                let mut ctrl_mask: u32 = 0;
                // VC-level skip: only VCs with queued packets (tracked in
                // `vc_mask`, bank untouched) are evaluated; VCs >= 16 were
                // never evaluated by the original sweep either.
                let mut vc_bits = self.vc_mask[lr * n_in + in_idx];
                while vc_bits != 0 {
                    let vc = vc_bits.trailing_zeros() as usize;
                    vc_bits &= vc_bits - 1;
                    debug_assert!(vc < self.vcs_by_in[in_idx] as usize);
                    let sl = (lr * n_in + in_idx) * 16 + vc;
                    if self.vc_skip_until[sl] > now
                        || self.vc_skip_epoch[sl]
                            == self.port_epoch[lr * pp + self.vc_skip_port[sl] as usize]
                    {
                        // Memoized rejection: provably still `None` — the
                        // recorded deadline has not passed, or no event
                        // fired on the blocking port since it was
                        // recorded. A stale record can never match: the
                        // head below it cannot leave without a grant, a
                        // grant requires an acceptance, and an acceptance
                        // requires the deadline to expire or the epoch to
                        // move past the recorded value first.
                        debug_assert!(self.evaluate_head(lr, in_idx, vc, now).is_none());
                        continue;
                    }
                    self.eval_mutated_here = false;
                    if let Some(d) = self.evaluate_head(lr, in_idx, vc, now) {
                        reqs[vc] = Some(d);
                        req_mask |= 1 << vc;
                        if self.qos_active
                            && self.head_tclass(lr, in_idx, vc) == TrafficClass::Control
                        {
                            ctrl_mask |= 1 << vc;
                        }
                    } else if !self.transit_decisions
                        && vc < 16
                        && !self.eval_mutated_here
                        && !self.qos_active
                    {
                        // Memoize the rejection by its first failing gate
                        // (see `EvalBlock`). Heads that mutated (patience
                        // ticks, reversions) must keep being visited, as
                        // must in-transit deciders whose visit schedule is
                        // part of the policy — neither records anything.
                        match self.eval_block {
                            EvalBlock::Never => {}
                            EvalBlock::Until(t) => {
                                // Deadline only; epoch key disabled.
                                self.vc_skip_until[sl] = t.max(now + 1);
                                self.vc_skip_epoch[sl] = u64::MAX;
                            }
                            EvalBlock::Event(port) => {
                                // Holds for the rest of this cycle (no
                                // events fire during allocation) and
                                // beyond, until the port sees an event.
                                self.vc_skip_until[sl] = now + 1;
                                self.vc_skip_port[sl] = port;
                                self.vc_skip_epoch[sl] = self.port_epoch[lr * pp + port as usize];
                            }
                        }
                    }
                }
                if req_mask == 0 {
                    continue; // a request-free grant would not move the arbiter
                }
                // QoS stage-1 strict priority with bounded bypass: when
                // both classes request, control wins — but after
                // `bypass_bound` consecutive mixed rounds won by control,
                // one bulk nomination goes through and the counter resets,
                // so bulk always makes progress.
                let grant_mask = if self.qos_active && ctrl_mask != 0 && ctrl_mask != req_mask {
                    let slot = lr * n_in + in_idx;
                    if self.bypass_in[slot] >= self.bypass_bound {
                        self.bypass_in[slot] = 0;
                        req_mask & !ctrl_mask
                    } else {
                        self.bypass_in[slot] += 1;
                        ctrl_mask
                    }
                } else {
                    req_mask
                };
                let router = &mut self.routers[lr];
                if let Some(vc) = router.in_arb[in_idx].grant(|v| grant_mask & (1 << v) != 0) {
                    let d = reqs[vc].expect("granted request");
                    cand[in_idx] = Some((vc as u8, d));
                    cand_set.push(in_idx as u16);
                }
            }
            if cand_set.is_empty() {
                // Zero nominations: no arbiter moved, no RNG was drawn,
                // and — when no evaluation mutated a packet (tracked via
                // `eval_mutated`; baseline never does, FlexVC only on
                // patience/reversion) — no packet changed either.
                // Intra-cycle state is router-local, so every remaining
                // allocation round of this cycle must reproduce the same
                // empty outcome: settle the router until the next cycle.
                if self.can_settle && !self.eval_mutated {
                    self.settled[lr] = now;
                }
                continue; // stages 1.5/2 would be no-ops
            }
            // Stage 1.5: ejection grants (consumption channels). `cand_set`
            // is in ascending `in_idx` order (stage 1 iterates ascending).
            for ci in 0..cand_set.len() {
                let in_idx = cand_set[ci] as usize;
                if let Some((vc, Decision::Eject { channel })) = cand[in_idx] {
                    cand[in_idx] = None;
                    if self.eject_busy[lr * self.pn * 2 + channel as usize] <= now {
                        self.grant_eject(lr, in_idx, vc as usize, channel as usize, now);
                    }
                }
            }
            // Stage 2: output-port arbitration, only over ports with at
            // least one forwarding candidate (an empty grant would not
            // move the arbiter), in ascending port order.
            ports_scratch.clear();
            for &in_idx16 in cand_set.iter() {
                if let Some((_, Decision::Forward { port, .. })) = cand[in_idx16 as usize] {
                    ports_scratch.push(port);
                }
            }
            ports_scratch.sort_unstable();
            ports_scratch.dedup();
            // QoS stage-2: bitmask over unified inputs whose surviving
            // forwarding candidate carries a control-class head (inputs are
            // <= 64 on all our topologies; wider inputs read as bulk).
            let mut ctrl_in: u64 = 0;
            if self.qos_active {
                for &in_idx16 in cand_set.iter() {
                    let ii = in_idx16 as usize;
                    if ii < 64 {
                        if let Some((vc, Decision::Forward { .. })) = cand[ii] {
                            if self.head_tclass(lr, ii, vc as usize) == TrafficClass::Control {
                                ctrl_in |= 1 << ii;
                            }
                        }
                    }
                }
            }
            for pi in 0..ports_scratch.len() {
                let port = ports_scratch[pi] as usize;
                // Same strict-priority-with-bounded-bypass rule as stage 1,
                // now among the inputs competing for this output port.
                let mut want_ctrl: Option<bool> = None;
                if self.qos_active {
                    let (mut has_ctrl, mut has_bulk) = (false, false);
                    for &in_idx16 in cand_set.iter() {
                        let ii = in_idx16 as usize;
                        if matches!(cand[ii], Some((_, Decision::Forward { port: p, .. })) if p as usize == port)
                        {
                            if ii < 64 && (ctrl_in >> ii) & 1 == 1 {
                                has_ctrl = true;
                            } else {
                                has_bulk = true;
                            }
                        }
                    }
                    if has_ctrl && has_bulk {
                        let slot = lr * pp + port;
                        if self.bypass_out[slot] >= self.bypass_bound {
                            self.bypass_out[slot] = 0;
                            want_ctrl = Some(false);
                        } else {
                            self.bypass_out[slot] += 1;
                            want_ctrl = Some(true);
                        }
                    }
                }
                let winner = self.routers[lr].out_arb[port].grant(|in_idx| {
                    matches!(cand[in_idx], Some((_, Decision::Forward { port: p, .. })) if p as usize == port)
                        && want_ctrl
                            .is_none_or(|w| (in_idx < 64 && (ctrl_in >> in_idx) & 1 == 1) == w)
                });
                if let Some(in_idx) = winner {
                    let (vc, d) = cand[in_idx].take().expect("winner has candidate");
                    if let Decision::Forward {
                        port,
                        vc: out_vc,
                        pos,
                    } = d
                    {
                        self.grant_forward(lr, in_idx, vc as usize, port, out_vc, pos, now);
                    }
                }
            }
            // Selective clear for the next router.
            for &in_idx16 in cand_set.iter() {
                cand[in_idx16 as usize] = None;
            }
        }
        self.alloc_list = list;
        self.cand = cand;
        self.cand_set = cand_set;
        self.ports_scratch = ports_scratch;
    }

    /// Bank of unified input `in_idx` (network port or injection) at local
    /// router `lr`.
    #[inline]
    fn bank(&self, lr: usize, in_idx: usize) -> &BufferBank {
        let router = &self.routers[lr];
        if in_idx < self.pp {
            &router.inputs[in_idx]
        } else {
            &router.inj[in_idx - self.pp]
        }
    }

    /// Traffic class of the head of `(lr, in_idx, vc)` (QoS arbitration;
    /// empty VCs read as bulk, but are never consulted).
    #[inline]
    fn head_tclass(&self, lr: usize, in_idx: usize, vc: usize) -> TrafficClass {
        self.bank(lr, in_idx)
            .head(vc)
            .map_or(TrafficClass::Bulk, |h| self.arena[h].tclass)
    }

    /// Evaluate the head of one input VC at local router `lr`; may mutate
    /// the packet (planning reversion, PAR divert).
    fn evaluate_head(&mut self, lr: usize, in_idx: usize, vc: usize, now: u64) -> Option<Decision> {
        let pp = self.pp;
        let size = self.cfg.packet_size;
        let r = lr + self.r0;
        self.eval_block = EvalBlock::Never;
        // Evaluation mutates the head in place, never the queue: the handle
        // stays valid throughout.
        let h = self.bank(lr, in_idx).head(vc)?;

        // In-transit routing decisions (PAR divert, DAL per-dimension
        // misroute, adaptive copy re-selection) may replace the plan; they
        // only run for arrived, planned heads, so pre-read those facts.
        // Without transit decisions the same checks run on the fused head
        // read inside the loop below instead.
        if self.transit_decisions {
            {
                let head = &self.arena[h];
                if head.head_arrival > now {
                    self.eval_block = EvalBlock::Until(head.head_arrival);
                    return None;
                }
                if !head.planned {
                    self.eval_block = EvalBlock::Until(now + 1);
                    return None;
                }
            }
            self.transit_decide(lr, in_idx, h);
        }

        // Forwarding evaluation with at most one reversion.
        let mut reverted = false;
        loop {
            let router = &self.routers[lr];
            let head = &self.arena[h];
            if !self.transit_decisions && !reverted {
                if head.head_arrival > now {
                    // Cut-through eligibility is time-pure.
                    self.eval_block = EvalBlock::Until(head.head_arrival);
                    return None;
                }
                if !head.planned {
                    // Planned by next cycle's planning pass (phase 4
                    // precedes allocation, and the router is already on
                    // `plan_list`).
                    self.eval_block = EvalBlock::Until(now + 1);
                    return None;
                }
            }
            // A done plan means ejection (possibly after a reversion of a
            // detour that passed through the destination router).
            if head.plan.is_done() {
                debug_assert_eq!(head.dst_router as usize, r, "done plan away from dst");
                // Protocol coupling: a node whose reply-generation queue is
                // full cannot consume further requests until replies drain.
                if self.cfg.workload.is_reactive()
                    && head.class == MessageClass::Request
                    && self.staging[head.dst as usize - self.n0].len()
                        >= self.cfg.reply_queue_packets
                {
                    // Staging drains only in next cycle's generation pass.
                    self.eval_block = EvalBlock::Until(now + 1);
                    return None;
                }
                let local = head.dst as usize - self.node_base[r] as usize;
                let channel = (local * 2 + head.class.index()) as u16;
                let busy = self.eject_busy[lr * self.pn * 2 + channel as usize];
                return if busy <= now {
                    Some(Decision::Eject { channel })
                } else {
                    self.eval_block = EvalBlock::Until(busy);
                    None
                };
            }
            let hop = *head.plan.next_hop().expect("plan not done");
            let dst_r = head.dst_router as usize;
            let port = hop.port as usize;
            let pclass = self.port_class[port];
            // Output-side structural checks.
            let xbar_until = self.out_xbar[lr * pp + port];
            if xbar_until > now {
                // Time-pure: the crossbar frees at a known cycle (the
                // caller memoizes the deadline; reverted heads never
                // memoize — `eval_mutated_here` is already set).
                self.eval_block = EvalBlock::Until(xbar_until);
                return None;
            }
            if self.out_occ[lr * pp + port] + size > self.cfg.buffers.output {
                // Improves only on an output-buffer release event.
                self.eval_block = EvalBlock::Event(port as u16);
                return None;
            }
            if self.repart {
                // Dynamic-repartition admission gate: the head's class must
                // fit inside its phit quota of the downstream buffer.
                // Improves on a same-port credit return or a repartition in
                // this class's favor (memoization is disabled under QoS).
                let qslot = (lr * pp + port) * 2 + head.tclass.index();
                if self.cls_occ[qslot] + size > self.cls_quota[qslot] {
                    self.eval_block = EvalBlock::Event(port as u16);
                    return None;
                }
            }
            let credit = &router.out_credit[port];
            match self.cfg.policy {
                VcPolicy::Baseline => {
                    // Precomputed pure (class, slot) -> (vc, pos) mapping
                    // (see `baseline_table` in `Network::new`).
                    let (bvc, pos) = self.baseline_table[head.class.index()][hop.slot as usize];
                    #[cfg(debug_assertions)]
                    {
                        let reference: &[LinkClass] = match self.family.generic_diameter() {
                            None => self.cfg.routing.dragonfly_reference(),
                            // Generic references are all-Local; slots map 1:1.
                            Some(d) => self.cfg.routing.generic_reference(d),
                        };
                        let (bclass, fresh_vc) =
                            baseline_vc(&self.arr, head.class, reference, hop.slot as usize);
                        debug_assert_eq!(bclass, pclass, "reference class mismatch");
                        debug_assert_eq!(fresh_vc as u8, bvc, "stale baseline table");
                        debug_assert_eq!(
                            self.arr.position(pclass, fresh_vc).expect("baseline vc") as u16,
                            pos
                        );
                    }
                    if credit.can_accept(bvc as usize, size) {
                        return Some(Decision::Forward {
                            port: port as u16,
                            vc: bvc,
                            pos,
                        });
                    }
                    // Improves only on a credit return for this port.
                    self.eval_block = EvalBlock::Event(port as u16);
                    return None;
                }
                VcPolicy::FlexVc => {
                    // The lookahead options are a pure function of the
                    // arrangement, message class, buffer position, and the
                    // plan with its cached escapes — all frozen while the
                    // packet sits in this buffer — so a head blocked over
                    // many allocation rounds computes them once. The cache
                    // is cleared on every buffer entry and plan change; in
                    // debug builds a freshly computed value cross-checks it.
                    // Exact per-hop escapes: the minimal continuation from
                    // every router along the remaining plan (needed by the
                    // opportunistic landing lookahead). Thanks to the
                    // `flex_opts` cache this runs once per (buffer, plan),
                    // not once per allocation round.
                    let fresh_opts = |head: &Packet| {
                        let mut planned: [LinkClass; 8] = [LinkClass::Local; 8];
                        let rem = head.plan.remaining();
                        let nrem = rem.len();
                        for (i, h) in rem.iter().enumerate() {
                            planned[i] = h.class;
                        }
                        let mut esc_store: [flexvc_topology::ClassPath; 8] =
                            [flexvc_topology::ClassPath::new(); 8];
                        let mut cur_router = r;
                        for (i, h) in rem.iter().enumerate() {
                            let next = self.adj[cur_router * pp + h.port as usize]
                                .expect("routed port wired")
                                .0 as usize;
                            esc_store[i] = self.topo.min_classes(next, head.dst_router as usize);
                            cur_router = next;
                        }
                        let escapes: [&[LinkClass]; 8] = std::array::from_fn(|i| &esc_store[i][..]);
                        flexvc_options_lookahead(
                            &self.arr,
                            head.class,
                            head.pos(),
                            &planned[..nrem],
                            &escapes[..nrem],
                        )
                    };
                    let opts = match head.flex_opts {
                        Some(cached) => {
                            debug_assert_eq!(cached, fresh_opts(head), "stale lookahead cache");
                            cached
                        }
                        None => {
                            let computed = fresh_opts(head);
                            self.arena[h].flex_opts = Some(computed);
                            computed
                        }
                    };
                    // Allowed-VC mask for the head's traffic class on this
                    // link class: full when QoS is off or shared, a strict
                    // subset under class-partitioned VC budgets (whose
                    // per-class deadlock safety `check_qos` proved).
                    let qmask = if self.qos_active {
                        let t = self.arena[h].tclass;
                        self.qos_masks[pclass.index()][t.index()]
                    } else {
                        u32::MAX
                    };
                    // Re-establish the read borrows dropped for the cache
                    // write above.
                    let credit = &self.routers[lr].out_credit[port];
                    if let Some(opts) = opts {
                        let mut cands: [(usize, usize); 16] = [(0, 0); 16];
                        let mut nc = 0;
                        match credit.ready_mask() {
                            // Word scan over the incrementally-maintained
                            // ready-VC bitmask: same ascending VC order and
                            // same acceptance set as the per-VC
                            // `can_accept` loop below.
                            Some(ready) => {
                                let window =
                                    (u32::MAX >> (31 - opts.hi as u32)) & !((1u32 << opts.lo) - 1);
                                let mut m = ready & window & qmask;
                                #[cfg(debug_assertions)]
                                for v in opts.lo..=opts.hi {
                                    debug_assert_eq!(
                                        credit.can_accept(v, size) && qmask & (1 << v) != 0,
                                        m & (1 << v) != 0,
                                        "ready mask out of sync at vc {v}"
                                    );
                                }
                                while m != 0 {
                                    let v = m.trailing_zeros() as usize;
                                    m &= m - 1;
                                    cands[nc] = (v, credit.free_for(v) as usize);
                                    nc += 1;
                                }
                            }
                            // DAMQ banks (admission depends on shared
                            // headroom) keep the linear scan.
                            None => {
                                for v in opts.lo..=opts.hi {
                                    if qmask & (1 << v) != 0 && credit.can_accept(v, size) {
                                        cands[nc] = (v, credit.free_for(v) as usize);
                                        nc += 1;
                                    }
                                }
                            }
                        }
                        if nc > 0 {
                            let router = &mut self.routers[lr];
                            let pick = self
                                .cfg
                                .selection
                                .pick(&cands[..nc], &mut router.rng)
                                .expect("non-empty");
                            let pos = self.arr.position(pclass, pick).expect("picked vc") as u16;
                            return Some(Decision::Forward {
                                port: port as u16,
                                vc: pick as u8,
                                pos,
                            });
                        }
                        if opts.kind == HopKind::Safe {
                            // Blocked safe hop: every candidate VC is out
                            // of credit, which only a credit return for
                            // this port can change.
                            self.eval_block = EvalBlock::Event(port as u16);
                            return None;
                        }
                        // Opportunistic hop without downstream space: wait
                        // out the configured patience, then revert.
                        let patience = self.cfg.revert_patience;
                        self.eval_mutated = true;
                        self.eval_mutated_here = true;
                        let head = &mut self.arena[h];
                        if head.opp_blocked < patience {
                            head.opp_blocked += 1;
                            return None;
                        }
                        head.opp_blocked = 0;
                    }
                    // Revert to the escape path (minimal from here).
                    if reverted {
                        debug_assert!(false, "escape path not safe after reversion");
                        return None;
                    }
                    reverted = true;
                    self.eval_mutated = true;
                    self.eval_mutated_here = true;
                    let plan = min_plan(&*self.topo, r, dst_r);
                    let head = &mut self.arena[h];
                    head.plan = plan;
                    head.min_routed = true;
                    head.reverts += 1;
                    head.flex_opts = None;
                    continue;
                }
            }
        }
    }

    /// In-transit decision point: hand the head to the routing policy
    /// (PAR divert, DAL per-dimension misroute, adaptive copy
    /// re-selection) with the router-local sensed state.
    fn transit_decide(&mut self, lr: usize, in_idx: usize, h: PktHandle) {
        let is_injection = in_idx >= self.pp;
        let in_class = if is_injection {
            LinkClass::Local
        } else {
            self.port_class[in_idx]
        };
        let router = &mut self.routers[lr];
        let sense = SenseView {
            out_credit: &router.out_credit,
            boards: &self.boards,
            sense_ports: &self.sense_ports,
            sense_all: self.sense_all,
            min_cred: self.cfg.sensing.min_cred,
            adj: &self.adj,
            port_class: &self.port_class,
        };
        self.policy.transit_update(
            &*self.topo,
            &sense,
            &mut router.rng,
            lr + self.r0,
            &mut self.arena[h],
            is_injection,
            in_class,
        );
    }

    /// Return the credit for an input buffer a grant just vacated: queue it
    /// on the upstream link (owned by the router it returns to). When that
    /// router lives on another shard, the credit becomes a boundary event —
    /// the arrival cycle `t_c + lat` is strictly beyond the current cycle,
    /// so applying it at the exchange is exact.
    #[allow(clippy::too_many_arguments)]
    fn return_credit(
        &mut self,
        lr: usize,
        in_idx: usize,
        vc_in: usize,
        phits: u32,
        class: CreditClass,
        tclass: TrafficClass,
        t_c: u64,
        now: u64,
    ) {
        let pp = self.pp;
        if in_idx >= pp {
            return; // injection queues are node-local: no upstream link
        }
        let Some((ur, up)) = self.adj[(lr + self.r0) * pp + in_idx] else {
            return;
        };
        let lat = self.latency_of(self.port_class[in_idx]);
        let up_lid = ur as usize * pp + up as usize;
        if self.sharded && !self.owns(ur) {
            self.outbox.push(BoundaryEvent {
                at: t_c + lat as u64,
                lid: up_lid as u32,
                dst: ur,
                payload: BoundaryPayload::Credit {
                    vc: vc_in as u8,
                    phits,
                    class,
                    tclass,
                },
            });
        } else {
            self.links[up_lid].send_credit(t_c, lat, vc_in as u8, phits, class, tclass);
            self.schedule_credit(now, t_c + lat as u64, up_lid);
        }
    }

    /// Schedule the credit-drain wheel for a credit arriving on link `lid`
    /// (owned by this instance's router the credit returns to) at cycle
    /// `at`, batching per link per cycle: `deliver` pops *every*
    /// credit due at `at` from one wheel entry, so a second entry for the
    /// same (link, cycle) would drain nothing — skip pushing it. Credit
    /// arrivals are monotonic per link (asserted in `LinkState`), so a
    /// recorded cycle can only be superseded by a later one.
    #[inline]
    fn schedule_credit(&mut self, now: u64, at: u64, lid: usize) {
        #[cfg(debug_assertions)]
        self.shadow_cred.schedule(now, at, lid as u32);
        let llid = lid - self.r0 * self.pp;
        if self.cred_sched[llid] != at {
            self.cred_sched[llid] = at;
            self.cred_wheel.schedule(now, at, lid as u32);
        }
    }

    #[allow(clippy::too_many_arguments)] // a grant is naturally 7-tuple-shaped
    fn grant_forward(
        &mut self,
        lr: usize,
        in_idx: usize,
        vc_in: usize,
        port: u16,
        out_vc: u8,
        pos: u16,
        now: u64,
    ) {
        let pp = self.pp;
        let size = self.cfg.packet_size;
        let dur = size.div_ceil(self.cfg.speedup);
        let router = &mut self.routers[lr];
        let h = if in_idx < pp {
            router.inputs[in_idx].pop(vc_in, &self.arena)
        } else {
            router.inj[in_idx - pp].pop(vc_in, &self.arena)
        };
        let pkt = &mut self.arena[h];
        let released_class = pkt.buffered_class;
        let released_tclass = pkt.tclass;
        // Injection transfers serialize at link rate (the node-to-router
        // channel); network transfers run at crossbar speed, bounded by the
        // packet's own tail arrival (cut-through chaining).
        let t_c = if in_idx < pp {
            (now + dur as u64).max(pkt.tail_arrival + 1)
        } else {
            now + size as u64
        };
        pkt.position = Some(pos);
        pkt.plan.advance();
        pkt.hops += 1;
        router.out_credit[port as usize].add(out_vc as usize, size, pkt.credit_class());
        self.in_busy[lr * (pp + self.pn) + in_idx] = t_c;
        self.out_xbar[lr * pp + port as usize] = t_c;
        self.out_occ[lr * pp + port as usize] += size;
        if self.repart {
            // The head's class now occupies part of the downstream buffer;
            // released when its credit returns (the credit carries the
            // class).
            self.cls_occ[(lr * pp + port as usize) * 2 + released_tclass.index()] += size;
        }
        self.rel_wheel.schedule(
            now,
            t_c,
            (
                lr as u32,
                Pending::Input {
                    at: t_c,
                    in_idx: in_idx as u32,
                    vc: vc_in as u8,
                    phits: size,
                    class: released_class,
                },
            ),
        );
        router.out_queue[port as usize].push_back(OutPkt {
            pkt: h,
            ready_at: now + self.cfg.pipeline_latency as u64,
            vc: out_vc,
        });
        // Return the credit for the buffer we just vacated.
        self.return_credit(
            lr,
            in_idx,
            vc_in,
            size,
            released_class,
            released_tclass,
            t_c,
            now,
        );
        self.dequeued(lr, in_idx, vc_in);
        mark(
            &mut self.out_list,
            &mut self.out_in,
            lr * pp + port as usize,
        );
        if !self.boards.is_empty()
            && (self.sense_all || self.port_class[port as usize] == LinkClass::Global)
        {
            mark(&mut self.sense_list, &mut self.sense_in, lr);
        }
        self.last_progress = now;
    }

    /// Active-set bookkeeping after a grant popped the head of `(lr,
    /// in_idx, vc_in)`: clear emptied VC and port bits, and re-plan an
    /// injection queue whose successor just became its head.
    fn dequeued(&mut self, lr: usize, in_idx: usize, vc_in: usize) {
        let n_in = self.pp + self.pn;
        self.queued[lr] -= 1;
        let bank = self.bank(lr, in_idx);
        let (vc_empty, port_empty) = (bank.vc_len(vc_in) == 0, bank.queued_packets() == 0);
        if vc_in < 16 && vc_empty {
            self.vc_mask[lr * n_in + in_idx] &= !(1 << vc_in);
        }
        if port_empty && in_idx < 64 {
            self.in_mask[lr] &= !(1 << in_idx);
        }
        if in_idx >= self.pp {
            // The next injection-queue packet (if any) becomes an
            // unplanned head.
            mark(&mut self.plan_list, &mut self.plan_in, lr);
        }
    }

    fn grant_eject(&mut self, lr: usize, in_idx: usize, vc_in: usize, channel: usize, now: u64) {
        let pp = self.pp;
        let size = self.cfg.packet_size;
        let router = &mut self.routers[lr];
        let h = if in_idx < pp {
            router.inputs[in_idx].pop(vc_in, &self.arena)
        } else {
            router.inj[in_idx - pp].pop(vc_in, &self.arena)
        };
        let pkt = self.arena.remove(h);
        let released_class = pkt.buffered_class;
        let done = now + size as u64; // 1 phit/cycle consumption
        let t_c = done.max(pkt.tail_arrival + 1);
        self.in_busy[lr * (pp + self.pn) + in_idx] = t_c;
        self.eject_busy[lr * self.pn * 2 + channel] = t_c;
        self.rel_wheel.schedule(
            now,
            t_c,
            (
                lr as u32,
                Pending::Input {
                    at: t_c,
                    in_idx: in_idx as u32,
                    vc: vc_in as u8,
                    phits: size,
                    class: released_class,
                },
            ),
        );
        self.return_credit(
            lr,
            in_idx,
            vc_in,
            size,
            released_class,
            pkt.tclass,
            t_c,
            now,
        );
        self.dequeued(lr, in_idx, vc_in);
        self.in_flight -= 1;
        self.last_progress = now;
        if self.in_window(now) {
            self.metrics.consume(
                pkt.class,
                pkt.tclass,
                size,
                done - pkt.gen_cycle,
                pkt.hops,
                !pkt.derouted,
                pkt.reverts,
            );
        }
        // Flow accounting is windowed on the flow's *start* cycle so a
        // flow either has every packet tracked or none: completion order
        // may differ from emission order under adaptive routing, but the
        // first-packet emission cycle is shared by the whole train.
        if self.has_flows {
            if let Some(tag) = self.flow_tags.remove(&(pkt.src, pkt.id)) {
                if self.in_window(tag.start) && self.metrics.flow_packet_done(&tag) {
                    let ideal = self.flow_ideal(&tag, pkt.src, pkt.dst_router, size);
                    self.metrics.complete_flow(&tag, done, ideal, pkt.tclass);
                }
            }
        }
        // Reactive: the destination answers with a reply once the request
        // has fully arrived.
        if self.cfg.workload.is_reactive() && pkt.class == MessageClass::Request {
            self.staging[pkt.dst as usize - self.n0].push_back((pkt.src, done));
        }
    }

    // ------------------------------------------------------------------
    // Phase 6: output serialization
    // ------------------------------------------------------------------

    fn serialize_outputs(&mut self, now: u64) {
        let pp = self.pp;
        // Only output ports with queued packets can start a serialization;
        // drained ports are dropped from the worklist lazily.
        let mut list = std::mem::take(&mut self.out_list);
        let mut li = 0;
        while li < list.len() {
            let llid = list[li] as usize;
            let (lr, port) = (llid / pp, llid % pp);
            let lid = llid + self.r0 * pp;
            if self.routers[lr].out_queue[port].is_empty() {
                self.out_in[llid] = false;
                list.swap_remove(li);
                continue;
            }
            li += 1;
            if !self.links[lid].is_free(now) {
                continue;
            }
            let lat = self.latency_of(self.port_class[port]);
            let router = &mut self.routers[lr];
            let front = router.out_queue[port].front().expect("non-empty checked");
            if front.ready_at > now {
                continue;
            }
            let out = router.out_queue[port].pop_front().expect("front exists");
            let size = self.arena[out.pkt].size;
            let foreign_rx =
                self.sharded && !self.owns(self.adj[lid].expect("transmitting link is wired").0);
            if foreign_rx {
                // The receiving router lives on another shard: keep the
                // serialization state (`busy_until`) here, and ship the
                // in-flight record to the receiver's link replica with the
                // packet itself, which leaves this arena for the
                // receiver's, and its flow tag, whose table entry moves to
                // the receiving shard (the flow ejects there). Its head
                // arrives at `now + lat`, beyond this cycle, so delivery
                // timing is identical to the local path.
                let flight = self.links[lid].transmit_boundary(now, lat, out.vc, out.pkt, size);
                let packet = self.arena.remove(out.pkt);
                let flow = if self.has_flows {
                    self.flow_tags.remove(&(packet.src, packet.id))
                } else {
                    None
                };
                self.outbox.push(BoundaryEvent {
                    at: flight.head_arrival,
                    lid: lid as u32,
                    dst: self.adj[lid].expect("wired").0,
                    payload: BoundaryPayload::Packet {
                        flight,
                        packet,
                        flow,
                    },
                });
            } else {
                self.links[lid].transmit(now, lat, out.vc, out.pkt, size);
                self.pkt_wheel.schedule(now, now + lat as u64, lid as u32);
            }
            self.rel_wheel.schedule(
                now,
                now + size as u64,
                (
                    lr as u32,
                    Pending::OutBuf {
                        at: now + size as u64,
                        port: port as u16,
                        phits: size,
                    },
                ),
            );
            // Phits starting to move on a link count as progress.
            self.last_progress = now;
        }
        self.out_list = list;
    }

    // ------------------------------------------------------------------
    // Phase 7: Piggyback sensing
    // ------------------------------------------------------------------

    fn update_sensing(&mut self, now: u64) {
        let rpg = self.topo.routers_per_group();
        let t_phits = self.cfg.sensing.threshold * self.cfg.packet_size;
        let min_cred = self.cfg.sensing.min_cred;
        let classes: &[MessageClass] = if self.cfg.workload.is_reactive() {
            &[MessageClass::Request, MessageClass::Reply]
        } else {
            &[MessageClass::Request]
        };
        // Saturation flags are a pure function of sense-port credit state
        // (global ports in a Dragonfly, every port on single-class
        // topologies): only routers whose state changed since their last
        // publish can produce different flags, and republishing unchanged
        // flags is a no-op on the double-buffered board. The worklist is
        // marked on every sense-port credit add/remove.
        let mut list = std::mem::take(&mut self.sense_list);
        let mut occs = std::mem::take(&mut self.occ_scratch);
        let mut flags = std::mem::take(&mut self.flag_scratch);
        for &lr32 in &list {
            let lr = lr32 as usize;
            let r = lr + self.r0;
            self.sense_in[lr] = false;
            let group = self.topo.group_of_router(r);
            let local = r - group * rpg;
            for &class in classes {
                occs.clear();
                occs.extend(self.sense_ports.iter().map(|&gp| {
                    let credit = &self.routers[lr].out_credit[gp];
                    match self.cfg.sensing.mode {
                        SensingMode::PerPort => {
                            if min_cred {
                                credit.split_total().min_occupancy()
                            } else {
                                credit.total()
                            }
                        }
                        SensingMode::PerVc => {
                            // First VC of each subpath: 0 for requests, the
                            // first reply VC of the sensed port's class for
                            // replies.
                            let vc = match class {
                                MessageClass::Request => 0,
                                MessageClass::Reply => {
                                    self.arr.vc_count_request(self.port_class[gp])
                                }
                            };
                            if min_cred {
                                credit.split(vc).min_occupancy()
                            } else {
                                credit.occupancy(vc)
                            }
                        }
                    }
                }));
                saturated_flags_into(&occs, t_phits, &mut flags);
                for (i, &sat) in flags.iter().enumerate() {
                    self.boards[group].publish(local, i, class, sat);
                    // Groups may straddle a shard cut, and remote groups'
                    // boards are consulted by UGAL-G: replicate every
                    // publish to the other shards' board copies. Publishes
                    // land in the write buffer and become visible at the
                    // tick, which all shards run after the exchange — so
                    // the replicas stay bit-identical to the single-engine
                    // board.
                    if self.sharded {
                        self.outbox.push(BoundaryEvent {
                            at: now,
                            lid: 0,
                            dst: u32::MAX,
                            payload: BoundaryPayload::Board {
                                group: group as u32,
                                local: local as u32,
                                port: i as u32,
                                class,
                                sat,
                            },
                        });
                    }
                }
            }
        }
        list.clear();
        self.sense_list = list;
        self.occ_scratch = occs;
        self.flag_scratch = flags;
    }

    // ------------------------------------------------------------------
    // Phase 8: watchdog
    // ------------------------------------------------------------------

    fn watchdog(&mut self, now: u64) {
        if self.in_flight > 0 && now.saturating_sub(self.last_progress) > self.cfg.watchdog {
            self.metrics.deadlocked = true;
        }
    }
}
