//! One simulation point, from configuration to drained network, with
//! every call into the simulator wrapped in a span.

use crate::fingerprint::fingerprint;
use crate::trace::Tracer;
use crate::workloads::Workload;
use flexvc_sim::{Network, ShardedNetwork, SimResult};
use std::time::Instant;

/// What one point produced and how long each part took.
#[derive(Debug, Clone)]
pub struct PointOutcome {
    /// The simulated result.
    pub result: SimResult,
    /// [`fingerprint`] of `result`.
    pub fingerprint: u64,
    /// Validate + topology build + engine construction, seconds.
    pub setup_s: f64,
    /// Seconds spent stepping (or in the sharded `run`).
    pub run_s: f64,
    /// Configuration to `SimResult`, seconds (drain excluded).
    pub wall_s: f64,
    /// Cycles simulated before the drain.
    pub cycles: u64,
    /// Packets still pending after the drain (0 = all consumed).
    pub drain_pending: i64,
    /// Cycles the drain stepped.
    pub drain_cycles: u64,
    /// Resident-set growth across engine construction, bytes.
    pub build_rss_bytes: i64,
    /// Per-shard work seconds of the run (one entry for a plain engine).
    pub shard_work_s: Vec<f64>,
    /// The sharded engine's epoch cap in cycles (0 for a plain engine).
    pub epoch_cycles: u64,
    /// Sum over stepped cycles of the packets in flight after the step
    /// (traced plain-engine points only, else 0).
    pub inflight_sum: u128,
}

impl PointOutcome {
    /// Simulated cycles per second of stepping.
    pub fn cycles_per_s(&self) -> f64 {
        self.cycles as f64 / self.run_s
    }
}

enum Engine {
    Plain(Box<Network>),
    Sharded(ShardedNetwork),
}

/// Validate, build the topology and construct the engine: the set-up
/// `setup_s` measures. Returns the engine, its set-up seconds and the
/// resident-set growth across engine construction.
fn setup(w: &Workload, seed: u64, shards: usize, tracer: &mut Tracer) -> (Engine, f64, i64) {
    let mut cfg = w.cfg.clone();
    cfg.shards = shards;
    let t0 = Instant::now();
    tracer
        .span("config.validate", |_| cfg.validate())
        .expect("workload config validates");
    let topo = tracer.span("topology.build", |_| cfg.topology.build());
    // The resident-set reads stay outside the timed set-up.
    let mut setup_s = t0.elapsed().as_secs_f64();
    let rss0 = crate::rss::current_bytes();
    let t1 = Instant::now();
    let engine = tracer.span("engine.build", |_| {
        if shards > 1 {
            Engine::Sharded(
                ShardedNetwork::with_topology(cfg, w.load, seed, topo)
                    .expect("validated config builds"),
            )
        } else {
            Engine::Plain(Box::new(
                Network::with_topology(cfg, w.load, seed, topo).expect("validated config builds"),
            ))
        }
    });
    setup_s += t1.elapsed().as_secs_f64();
    (engine, setup_s, crate::rss::current_bytes() - rss0)
}

/// Set-up only, seconds: extra set-up samples for workloads whose points
/// are too long to give many.
pub fn setup_only(w: &Workload, seed: u64) -> f64 {
    let (engine, setup_s, _) = setup(w, seed, w.cfg.shards, &mut Tracer::new(false));
    drop(std::hint::black_box(engine));
    setup_s
}

/// Run one point of `w` at `seed` with `shards` engine shards.
pub fn run_point(w: &Workload, seed: u64, shards: usize, tracer: &mut Tracer) -> PointOutcome {
    let t0 = Instant::now();
    let (mut engine, setup_s, build_rss_bytes) = setup(w, seed, shards, tracer);
    let end = w.cycles();
    let t_run = Instant::now();
    let mut inflight_sum = 0u128;
    let result = match &mut engine {
        Engine::Plain(net) => {
            if tracer.enabled() {
                while net.cycle() < end && !net.deadlocked() {
                    tracer.span("engine.step", |_| net.step());
                    inflight_sum += net.packets_in_flight().max(0) as u128;
                }
            } else {
                while net.cycle() < end && !net.deadlocked() {
                    net.step();
                }
            }
            tracer.span("engine.run", |_| net.run())
        }
        Engine::Sharded(net) => tracer.span("engine.run", |_| net.run()),
    };
    let run_s = t_run.elapsed().as_secs_f64();
    let wall_s = t0.elapsed().as_secs_f64();
    let fingerprint = tracer.span("metrics.result", |_| fingerprint(&result));

    let (cycles, shard_work_s, epoch_cycles) = match &engine {
        Engine::Plain(net) => (net.cycle(), vec![run_s], 0),
        Engine::Sharded(net) => {
            let work = tracer.span("shard.stats", |_| {
                net.shard_stats().iter().map(|s| s.work_seconds).collect()
            });
            (net.cycle(), work, net.epoch_cycles())
        }
    };
    let (drain_pending, drain_end) = tracer.span("engine.drain", |_| match &mut engine {
        Engine::Plain(net) => (net.drain(w.drain_budget), net.cycle()),
        Engine::Sharded(net) => (net.drain(w.drain_budget), net.cycle()),
    });
    PointOutcome {
        result,
        fingerprint,
        setup_s,
        run_s,
        wall_s,
        cycles,
        drain_pending,
        drain_cycles: drain_end - cycles,
        build_rss_bytes,
        shard_work_s,
        epoch_cycles,
        inflight_sum,
    }
}

/// Why a point's outputs are wrong; empty when it passed every check.
pub fn check_point(w: &Workload, out: &PointOutcome, expected: Option<u64>) -> Vec<String> {
    let r = &out.result;
    let mut failures = Vec::new();
    if r.deadlocked {
        failures.push("deadlock detected".to_string());
    }
    if out.cycles != w.cycles() {
        failures.push(format!("stopped at cycle {} of {}", out.cycles, w.cycles()));
    }
    if r.latency_hist.count() == 0 {
        failures.push("no packet consumed in the window".to_string());
    }
    if out.drain_pending != 0 {
        failures.push(format!(
            "drain left {} packets pending after {} cycles",
            out.drain_pending, out.drain_cycles
        ));
    }
    if let Some(tol) = w.accept_tolerance {
        let off = (r.accepted - w.load).abs() / w.load;
        if off > tol {
            failures.push(format!(
                "accepted {:.4} is {:.1}% from offered {} (tolerance {:.1}%)",
                r.accepted,
                off * 100.0,
                w.load,
                tol * 100.0
            ));
        }
    }
    if let Some(fp) = expected {
        if fp != out.fingerprint {
            failures.push(format!(
                "fingerprint {:016x} differs from the recorded {fp:016x}",
                out.fingerprint
            ));
        }
    }
    failures
}
