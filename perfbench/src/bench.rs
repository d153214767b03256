//! One benchmark run: repeated points of one workload for the time
//! budget, every point checked, then the metrics.

use crate::cli::Options;
use crate::fingerprint;
use crate::point::{check_point, run_point, setup_only, PointOutcome};
use crate::probes;
use crate::report::{Metric, Report};
use crate::stats::{median, percentile, tail};
use crate::trace::{self_times_ns, Span, Tracer};
use crate::workloads::Workload;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Fewest points an untraced run makes, whatever the time budget.
const MIN_POINTS: usize = 3;
/// Fewest set-up samples `setup_s` is the median of.
const MIN_SETUPS: usize = 5;

/// Checks every point and counts ops. All points of one run simulate the
/// same workload and seed, so they must share one fingerprint whatever
/// their shard count or tracing: the first point's is the reference.
pub struct Gate<'a> {
    workload: &'a Workload,
    recorded: Option<u64>,
    reference: Option<u64>,
    /// Points attempted.
    pub attempted: u64,
    /// Points that failed a check.
    pub failed: u64,
    /// Every failure message.
    pub failures: Vec<String>,
}

impl<'a> Gate<'a> {
    /// A gate for `workload`, comparing with `recorded` when given.
    pub fn new(workload: &'a Workload, recorded: Option<u64>) -> Self {
        Gate {
            workload,
            recorded,
            reference: None,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Check one point; returns whether it passed.
    pub fn check(&mut self, out: &PointOutcome, label: &str) -> bool {
        self.attempted += 1;
        eprintln!(
            "perfbench: point {} ({label}) setup {:.4} s, {:.1} cycles/s, wall {:.3} s, \
             drain {} cycles",
            self.attempted,
            out.setup_s,
            out.cycles_per_s(),
            out.wall_s,
            out.drain_cycles
        );
        let mut failures = check_point(self.workload, out, self.recorded);
        match self.reference {
            None => self.reference = Some(out.fingerprint),
            Some(fp) if fp != out.fingerprint => failures.push(format!(
                "fingerprint {:016x} differs from this run's first point ({fp:016x})",
                out.fingerprint
            )),
            Some(_) => {}
        }
        if !failures.is_empty() {
            self.failed += 1;
        }
        for f in failures.iter() {
            self.failures
                .push(format!("point {} ({label}): {f}", self.attempted));
        }
        failures.is_empty()
    }

    fn report(self, metrics: Vec<Metric>) -> Report {
        let mut failures = self.failures;
        for m in &metrics {
            if !m.value.is_finite() {
                failures.push(format!("metric {} was not measured", m.name));
            }
        }
        for f in &failures {
            eprintln!("perfbench: FAIL {f}");
        }
        Report {
            correct: failures.is_empty() && self.failed == 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        }
    }
}

fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
    }
}

fn med(xs: impl IntoIterator<Item = f64>) -> f64 {
    median(&xs.into_iter().collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

/// Run the benchmark as `opts` asks.
pub fn run(opts: &Options) -> Report {
    if opts.trace {
        traced(opts)
    } else {
        untraced(opts)
    }
}

/// End-to-end run, tracing off: points until the time budget is spent.
fn untraced(opts: &Options) -> Report {
    let w = &opts.workload;
    let mut gate = Gate::new(w, fingerprint::recorded(w.name, opts.seed));
    let mut tracer = Tracer::new(false);
    let budget = Duration::from_secs(opts.seconds);
    let start = Instant::now();
    let mut points = Vec::new();
    loop {
        let t = Instant::now();
        let out = run_point(w, opts.seed, w.cfg.shards, &mut tracer);
        gate.check(&out, "untraced");
        points.push(out);
        if points.len() >= MIN_POINTS && start.elapsed() + t.elapsed() > budget {
            break;
        }
    }
    let mut setups: Vec<f64> = points.iter().map(|p| p.setup_s).collect();
    while setups.len() < MIN_SETUPS {
        setups.push(setup_only(w, opts.seed));
    }
    gate.report(vec![
        metric(
            "cycles_per_s",
            med(points.iter().map(PointOutcome::cycles_per_s)),
            "1/s",
        ),
        metric("wall_s", med(points.iter().map(|p| p.wall_s)), "s"),
        metric("setup_s", med(setups), "s"),
        metric("peak_rss_mb", crate::rss::peak_bytes() as f64 / 1e6, "MB"),
    ])
}

/// A traced point and the id its spans carry.
struct TracedPoint {
    id: u32,
    out: PointOutcome,
}

/// Per-layer run: untraced and traced points alternate until the budget is
/// spent; a sharded workload adds one traced `shards = 1` point (the
/// stepped reference, which must reproduce the sharded fingerprint); the
/// replay probes run last. Spans are written out at the end.
fn traced(opts: &Options) -> Report {
    let w = &opts.workload;
    let mut gate = Gate::new(w, fingerprint::recorded(w.name, opts.seed));
    let mut tracer = Tracer::new(false);
    let budget = Duration::from_secs(opts.seconds);
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut next_id = 0u32;
    let mut traced_point = |tracer: &mut Tracer, shards: usize| {
        tracer.set_enabled(true);
        tracer.set_point(next_id);
        let out = tracer.span("point", |t| run_point(w, opts.seed, shards, t));
        tracer.set_enabled(false);
        next_id += 1;
        TracedPoint {
            id: next_id - 1,
            out,
        }
    };
    loop {
        let t = Instant::now();
        let out = run_point(w, opts.seed, w.cfg.shards, &mut tracer);
        gate.check(&out, "untraced");
        plain.push(out);
        let p = traced_point(&mut tracer, w.cfg.shards);
        gate.check(&p.out, "traced");
        traced.push(p);
        if start.elapsed() + t.elapsed() > budget {
            break;
        }
    }
    let reference = w.sharded().then(|| {
        let p = traced_point(&mut tracer, 1);
        gate.check(&p.out, "traced, shards = 1");
        p
    });
    tracer.set_enabled(true);
    tracer.set_point(next_id);
    let probes = probes::run(w, opts.seed, &mut tracer);

    let path = trace_path(w.name, opts.seed);
    match tracer.write_json(&path) {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => gate
            .failures
            .push(format!("writing spans to {}: {e}", path.display())),
    }
    let metrics = layer_metrics(
        w,
        &plain,
        &traced,
        reference.as_ref().unwrap_or(&traced[0]),
        tracer.spans(),
        &probes,
    );
    gate.report(metrics)
}

/// Where a traced run writes its spans: `out/` in the benchmark's
/// directory.
fn trace_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}-{seed}.json"))
}

/// The per-layer metrics. `stepped` is the traced point whose
/// `engine.step` spans give the step distribution: a traced point of the
/// workload itself, or for a sharded workload (which the benchmark cannot
/// step) its `shards = 1` reference.
fn layer_metrics(
    w: &Workload,
    plain: &[PointOutcome],
    traced: &[TracedPoint],
    stepped: &TracedPoint,
    spans: &[Span],
    probes: &probes::Probes,
) -> Vec<Metric> {
    let self_ns = self_times_ns(spans);
    // Median over the traced points of the summed self time, in seconds,
    // of the spans called `name` within each point.
    let layer_s = |name: &str| {
        med(traced.iter().map(|p| {
            spans
                .iter()
                .zip(&self_ns)
                .filter(|(s, _)| s.point == p.id && s.name == name)
                .map(|(_, &ns)| ns as f64 * 1e-9)
                .sum::<f64>()
        }))
    };
    let step_us: Vec<f64> = spans
        .iter()
        .filter(|s| s.point == stepped.id && s.name == "engine.step")
        .map(|s| s.dur_ns() as f64 * 1e-3)
        .collect();
    let step_pct = |p| percentile(&step_us, p).unwrap_or(f64::NAN);
    let step_tail = tail(&step_us);
    let steps = step_us.len() as f64;
    let inflight = stepped.out.inflight_sum as f64;
    let first = &plain[0];
    let r = &first.result;
    let shard = |f: fn(&PointOutcome) -> f64| med(traced.iter().map(|p| f(&p.out)));
    let cps_ratio = med(traced.iter().map(|p| p.out.cycles_per_s()))
        / med(plain.iter().map(PointOutcome::cycles_per_s));
    let routers = w.cfg.topology.num_routers() as f64;
    [
        ("config.validate_s", layer_s("config.validate"), "s"),
        ("topology.build_s", layer_s("topology.build"), "s"),
        ("topology.min_route_ns", probes.min_route_ns, "ns"),
        ("core.flexvc_options_ns", probes.flexvc_options_ns, "ns"),
        ("traffic.next_ns", probes.traffic_next_ns, "ns"),
        (
            "traffic.calls_per_cycle",
            probes.traffic_calls_per_cycle,
            "count",
        ),
        ("engine.build_s", layer_s("engine.build"), "s"),
        (
            "engine.bytes_per_router",
            first.build_rss_bytes as f64 / routers,
            "B",
        ),
        ("engine.step_us_p50", step_pct(50.0), "us"),
        ("engine.step_us_p99", step_pct(99.0), "us"),
        (
            "engine.step_us_tail",
            step_tail.map_or(f64::NAN, |t| t.value),
            "us",
        ),
        (
            "engine.step_tail_pct",
            step_tail.map_or(f64::NAN, |t| t.pct),
            "%",
        ),
        ("engine.step_samples", steps, "count"),
        ("engine.inflight_mean", inflight / steps, "packets"),
        (
            "engine.ns_per_packet_cycle",
            step_us.iter().sum::<f64>() * 1e3 / inflight,
            "ns",
        ),
        ("engine.drain_s", layer_s("engine.drain"), "s"),
        ("engine.drain_cycles", first.drain_cycles as f64, "cycles"),
        ("shard.work_s_max", shard(|p| max(&p.shard_work_s)), "s"),
        (
            "shard.imbalance",
            shard(|p| max(&p.shard_work_s) / mean(&p.shard_work_s)),
            "ratio",
        ),
        (
            "shard.wait_share",
            shard(|p| 1.0 - mean(&p.shard_work_s) / p.run_s),
            "ratio",
        ),
        ("shard.epoch_cycles", first.epoch_cycles as f64, "cycles"),
        (
            "metrics.consumed_packets",
            r.latency_hist.count() as f64,
            "count",
        ),
        ("metrics.accepted", r.accepted, "phit/node/cycle"),
        ("metrics.latency_p99_cycles", r.latency_p99, "cycles"),
        (
            "metrics.control_latency_p99_cycles",
            r.classes[0].latency_p99,
            "cycles",
        ),
        ("metrics.fct_p99_cycles", r.fct_p99, "cycles"),
        ("metrics.flows_completed", r.flows_completed, "count"),
        ("metrics.drop_fraction", r.drop_fraction, "ratio"),
        ("metrics.misroute_fraction", r.misroute_fraction, "ratio"),
        ("trace.overhead", cps_ratio, "ratio"),
    ]
    .into_iter()
    .map(|(name, value, unit)| metric(name, value, unit))
    .collect()
}

fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NAN, f64::max)
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use flexvc_sim::SimResult;

    fn qos() -> Workload {
        workloads::by_name("qos-flows-hx3").unwrap()
    }

    /// A point of `qos()` that passes every check but the fingerprint.
    fn outcome(fingerprint: u64) -> PointOutcome {
        let w = qos();
        let mut result = SimResult {
            accepted: w.load,
            ..SimResult::default()
        };
        result.latency_hist.record(40);
        PointOutcome {
            result,
            fingerprint,
            setup_s: 0.1,
            run_s: 1.0,
            wall_s: 1.1,
            cycles: w.cycles(),
            drain_pending: 0,
            drain_cycles: 100,
            build_rss_bytes: 0,
            shard_work_s: vec![1.0],
            epoch_cycles: 0,
            inflight_sum: 0,
        }
    }

    #[test]
    fn fingerprint_mismatch_is_a_failed_op() {
        let w = qos();
        let mut gate = Gate::new(&w, Some(0xabc));
        assert!(gate.check(&outcome(0xabc), "ok"));
        assert!(!gate.check(&outcome(0xabd), "bad"));
        assert_eq!((gate.attempted, gate.failed), (2, 1));
        let report = gate.report(vec![metric("x", 1.0, "s")]);
        assert!(!report.correct);
        assert_eq!((report.attempted, report.failed), (2, 1));
    }

    #[test]
    fn points_of_one_run_must_agree_without_a_recording() {
        let w = qos();
        let mut gate = Gate::new(&w, None);
        assert!(gate.check(&outcome(1), "first"));
        assert!(!gate.check(&outcome(2), "second"));
        assert_eq!(gate.failed, 1);
    }

    #[test]
    fn drain_and_acceptance_failures_are_failed_ops() {
        let w = qos();
        let mut gate = Gate::new(&w, None);
        let mut stuck = outcome(1);
        stuck.drain_pending = 3;
        assert!(!gate.check(&stuck, "stuck"));
        let mut slow = outcome(1);
        slow.result.accepted = w.load * 0.8;
        assert!(!gate.check(&slow, "slow"));
        let mut dead = outcome(1);
        dead.result.deadlocked = true;
        assert!(!gate.check(&dead, "dead"));
        assert_eq!((gate.attempted, gate.failed), (3, 3));
    }

    #[test]
    fn unmeasured_metric_makes_the_report_incorrect() {
        let w = qos();
        let gate = Gate::new(&w, None);
        assert!(!gate.report(vec![metric("x", f64::NAN, "s")]).correct);
    }
}
