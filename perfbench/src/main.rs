use flexvc_perfbench::cli::{self, USAGE};
use flexvc_perfbench::fingerprint::record_line;
use flexvc_perfbench::point::{check_point, run_point};
use flexvc_perfbench::{bench, trace::Tracer};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match cli::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = &opts.workload;
    if opts.record {
        // Fingerprints are recorded from the plain engine, so a sharded
        // workload must reproduce the single engine.
        let out = run_point(w, opts.seed, 1, &mut Tracer::new(false));
        let failures = check_point(w, &out, None);
        for f in &failures {
            eprintln!("perfbench: FAIL {f}");
        }
        println!("{}", record_line(w.name, opts.seed, out.fingerprint));
        return if failures.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let report = bench::run(&opts);
    for m in &report.metrics {
        println!("{:<36} {:>20} {}", m.name, m.value, m.unit);
    }
    println!(
        "ops {} failed {} correct {}",
        report.attempted, report.failed, report.correct
    );
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
