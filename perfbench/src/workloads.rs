//! The benchmark's workloads. Each one loads a different layer of the
//! simulator; `NOTES.md` gives the reasons and the layer → metric table.

use flexvc_core::{Arrangement, RoutingMode};
use flexvc_sim::{QosConfig, SimConfig};
use flexvc_traffic::{FlowSpec, Pattern, SizeDist, Workload as Traffic};

/// One named workload: a fixed-length simulation point and its checks.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Full configuration, windows and shard count included.
    pub cfg: SimConfig,
    /// Offered load, phits/node/cycle.
    pub load: f64,
    /// When set, accepted load must lie within this relative distance of
    /// the offered load (workloads run below saturation).
    pub accept_tolerance: Option<f64>,
    /// Cycle budget for the post-run drain; anything still pending after
    /// it fails the point.
    pub drain_budget: u64,
}

/// Every workload name, in `BENCHMARK.json` order.
pub const NAMES: [&str; 3] = ["paper-df8", "adv-df4-pb", "qos-flows-hx3"];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    match name {
        // Table V scale (h = 8: 2,064 routers, 16,512 nodes), MIN/UN under
        // FlexVC 4/2 through the sharded engine. Memory-bound: the working
        // set is larger than the host's last-level cache.
        "paper-df8" => {
            let mut cfg = SimConfig::dragonfly_baseline(
                8,
                RoutingMode::Min,
                Traffic::oblivious(Pattern::Uniform),
            )
            .with_flexvc(Arrangement::dragonfly(4, 2));
            cfg.warmup = 300;
            cfg.measure = 700;
            cfg.shards = 2;
            Some(Workload {
                name: "paper-df8",
                cfg,
                load: 0.3,
                accept_tolerance: Some(0.03),
                drain_budget: 5_000,
            })
        }
        // h = 4 (264 routers) Piggyback with sensing boards under ADV+1,
        // driven past saturation: allocation-bound, with non-minimal plans,
        // opportunistic hops and source drops.
        "adv-df4-pb" => {
            let mut cfg = SimConfig::dragonfly_baseline(
                4,
                RoutingMode::Piggyback,
                Traffic::oblivious(Pattern::adv1()),
            )
            .with_flexvc(Arrangement::dragonfly(4, 2));
            cfg.warmup = 1_000;
            cfg.measure = 2_000;
            Some(Workload {
                name: "adv-df4-pb",
                cfg,
                load: 0.4,
                accept_tolerance: None,
                drain_budget: 50_000,
            })
        }
        // 3-D HyperX 6³ (216 routers, 648 nodes), DOR under FlexVC generic
        // 4, uniform mice/elephant flows with mice as control traffic,
        // shared-budget priority QoS and the buffer repartitioner. Offered
        // 0.4 keeps it below saturation: at 0.5 the source queues grow
        // with the window, so latency and FCT would not settle.
        "qos-flows-hx3" => {
            let mut cfg = SimConfig::hyperx_baseline(
                3,
                6,
                3,
                RoutingMode::Min,
                Traffic::flows(FlowSpec::uniform(SizeDist::mice_elephants())),
            )
            .with_flexvc(Arrangement::generic(4))
            .with_qos(QosConfig::shared().with_repartition());
            cfg.warmup = 2_000;
            cfg.measure = 4_000;
            Some(Workload {
                name: "qos-flows-hx3",
                cfg,
                load: 0.4,
                accept_tolerance: Some(0.05),
                drain_budget: 20_000,
            })
        }
        _ => None,
    }
}

impl Workload {
    /// Simulated cycles of one point (warmup + measurement window).
    pub fn cycles(&self) -> u64 {
        self.cfg.warmup + self.cfg.measure
    }

    /// Whether the point runs through the sharded engine.
    pub fn sharded(&self) -> bool {
        self.cfg.shards > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_validates() {
        for name in NAMES {
            let w = by_name(name).expect("listed workload exists");
            assert_eq!(w.name, name);
            w.cfg.validate().expect("workload config is valid");
        }
        assert!(by_name("paper-df9").is_none());
    }
}
