//! Replay probes for the three per-packet libraries. Each builds its
//! inputs with the workload's own constructors and seed, makes a fixed
//! number of calls and reports nanoseconds per call.

use crate::trace::Tracer;
use crate::workloads::Workload;
use flexvc_core::policy::flexvc_options_lookahead;
use flexvc_core::{Arrangement, LinkClass, MessageClass, RoutingMode};
use flexvc_topology::{ClassPath, Route, Topology};
use flexvc_traffic::flow::random_permutation;
use flexvc_traffic::generator::NodeSpace;
use flexvc_traffic::{FlowPattern, NodeTraffic};
use std::hint::black_box;
use std::time::Instant;

/// `NodeTraffic::next` calls per probe (whole cycles over every node).
const TRAFFIC_CALLS: usize = 8_000_000;
/// `Topology::min_route` calls per probe.
const ROUTE_CALLS: usize = 1_000_000;
/// `flexvc_options_lookahead` calls per probe.
const OPTION_CALLS: usize = 1_000_000;
/// Source/destination draws kept from the traffic probe.
const MAX_DRAWS: usize = 1 << 15;

/// Probe results, ns per call.
#[derive(Debug, Clone, Copy)]
pub struct Probes {
    /// `NodeTraffic::next`.
    pub traffic_next_ns: f64,
    /// `Topology::min_route` on the workload's source/destination draws.
    pub min_route_ns: f64,
    /// `flexvc_options_lookahead` at every hop of the draws' plans.
    pub flexvc_options_ns: f64,
    /// `NodeTraffic::next` calls the engine makes per cycle (one per node).
    pub traffic_calls_per_cycle: f64,
}

/// Run all three probes for `w` at `seed`.
pub fn run(w: &Workload, seed: u64, tracer: &mut Tracer) -> Probes {
    let topo = w.cfg.topology.build();
    let (traffic_next_ns, draws) = tracer.span("probe.traffic", |_| traffic(w, seed, &*topo));
    let pairs: Vec<(usize, usize)> = draws
        .iter()
        .map(|&(s, d)| (topo.router_of_node(s), topo.router_of_node(d)))
        .collect();
    let min_route_ns = tracer.span("probe.topology", |_| min_route(&*topo, &pairs));
    let flexvc_options_ns = tracer.span("probe.core", |_| {
        options(&w.cfg.arrangement, w.cfg.routing, seed, &*topo, &pairs)
    });
    Probes {
        traffic_next_ns,
        min_route_ns,
        flexvc_options_ns,
        traffic_calls_per_cycle: topo.num_nodes() as f64,
    }
}

/// Step every node's generator, exactly as the engine builds them, for
/// whole cycles; returns ns per call and the first emissions as
/// `(source, destination)` node pairs.
fn traffic(w: &Workload, seed: u64, topo: &dyn Topology) -> (f64, Vec<(usize, usize)>) {
    let cfg = &w.cfg;
    let nodes = topo.num_nodes();
    let space = NodeSpace {
        num_nodes: nodes,
        nodes_per_group: nodes / topo.num_groups(),
        num_groups: topo.num_groups(),
    };
    // Reactive workloads split the offered load between requests and
    // replies, as the engine does.
    let load = if cfg.workload.is_reactive() {
        w.load / 2.0
    } else {
        w.load
    };
    let perm = match cfg.workload.flow_spec() {
        Some(spec) if matches!(spec.pattern, FlowPattern::Permutation) => {
            Some(random_permutation(nodes, seed))
        }
        _ => None,
    };
    let mut gens: Vec<NodeTraffic> = (0..nodes)
        .map(|n| {
            let dest = perm.as_ref().map(|p| p[n]);
            NodeTraffic::new(cfg.workload, n, space, load, cfg.packet_size, seed, dest)
        })
        .collect();
    let cycles = TRAFFIC_CALLS.div_ceil(nodes);
    let mut draws = Vec::with_capacity(MAX_DRAWS);
    let t = Instant::now();
    for cycle in 0..cycles as u64 {
        for (n, g) in gens.iter_mut().enumerate() {
            if let Some(e) = black_box(g.next(cycle)) {
                if draws.len() < MAX_DRAWS {
                    draws.push((n, e.dest));
                }
            }
        }
    }
    let ns = t.elapsed().as_nanos() as f64 / (cycles * nodes) as f64;
    (ns, draws)
}

fn min_route(topo: &dyn Topology, pairs: &[(usize, usize)]) -> f64 {
    assert!(!pairs.is_empty(), "the traffic probe drew no packets");
    let t = Instant::now();
    for &(a, b) in pairs.iter().cycle().take(ROUTE_CALLS) {
        black_box(topo.min_route(black_box(a), black_box(b)));
    }
    t.elapsed().as_nanos() as f64 / ROUTE_CALLS as f64
}

/// One lookahead evaluation: the buffer position a packet holds and its
/// remaining plan with the minimal escape from after every planned hop.
struct Case {
    current: Option<usize>,
    planned: ClassPath,
    escapes: [ClassPath; 8],
}

/// Replay `flexvc_options_lookahead` at every hop of each draw's plans:
/// the minimal plan, plus a Valiant plan through a seeded random
/// intermediate router when the routing mode is non-minimal. The packet
/// lands on the highest VC offered, as far as the plan stays feasible.
fn options(
    arr: &Arrangement,
    routing: RoutingMode,
    seed: u64,
    topo: &dyn Topology,
    pairs: &[(usize, usize)],
) -> f64 {
    let mut rng = SplitMix(seed);
    let mut cases = Vec::new();
    for &(src, dst) in pairs {
        let mut plans = vec![topo.min_route(src, dst)];
        if routing != RoutingMode::Min {
            let via = topo.valiant_via(rng.below(topo.valiant_via_count()));
            let mut route = topo.min_route(src, via);
            route.extend(topo.min_route(via, dst));
            plans.push(route);
        }
        for route in plans {
            walk(arr, topo, src, dst, &route, &mut cases);
        }
    }
    assert!(!cases.is_empty(), "no plan to evaluate");
    let t = Instant::now();
    for c in cases.iter().cycle().take(OPTION_CALLS) {
        let escapes: [&[LinkClass]; 8] = std::array::from_fn(|i| &c.escapes[i][..]);
        let n = c.planned.len();
        black_box(flexvc_options_lookahead(
            arr,
            MessageClass::Request,
            black_box(c.current),
            &c.planned[..n],
            &escapes[..n],
        ));
    }
    t.elapsed().as_nanos() as f64 / OPTION_CALLS as f64
}

/// Push one [`Case`] per hop of `route` from `src` to `dst`.
fn walk(
    arr: &Arrangement,
    topo: &dyn Topology,
    src: usize,
    dst: usize,
    route: &Route,
    cases: &mut Vec<Case>,
) {
    let classes: Vec<LinkClass> = route.iter().map(|h| h.class).collect();
    let mut escapes = [ClassPath::new(); 8];
    let mut router = src;
    for (i, hop) in route.iter().enumerate() {
        router = topo
            .neighbor(router, hop.port as usize)
            .expect("routed port is wired")
            .0;
        escapes[i] = topo.min_classes(router, dst);
    }
    let mut current = None;
    for i in 0..route.len() {
        let planned = ClassPath::from_slice(&classes[i..]);
        let mut rest = [ClassPath::new(); 8];
        rest[..route.len() - i].copy_from_slice(&escapes[i..route.len()]);
        let esc: [&[LinkClass]; 8] = std::array::from_fn(|k| &rest[k][..]);
        let n = planned.len();
        let Some(opts) = flexvc_options_lookahead(
            arr,
            MessageClass::Request,
            current,
            &planned[..n],
            &esc[..n],
        ) else {
            return;
        };
        cases.push(Case {
            current,
            planned,
            escapes: rest,
        });
        current = arr.position(classes[i], opts.hi);
    }
}

/// SplitMix64: a seeded stream for the probe's Valiant intermediates.
struct SplitMix(u64);

impl SplitMix {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}
