//! Command-line parsing.

use crate::workloads::{self, Workload};

/// Usage text for argument errors.
pub const USAGE: &str = "usage: perfbench --workload <paper-df8|adv-df4-pb|qos-flows-hx3> \
[--seed <u64>] [--seconds <1..3600>] [--trace <0|1>] [--record]";

/// Seed used when `--seed` is absent; its fingerprints are recorded.
pub const DEFAULT_SEED: u64 = 1;

/// Parsed options.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: u64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Print the `shards = 1` fingerprint line instead of benchmarking.
    pub record: bool,
}

/// Parse `args` (without the program name).
pub fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut record) = (DEFAULT_SEED, 10, false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::by_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("seed {value:?} is not an unsigned 64-bit integer"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=3600).contains(s))
                    .ok_or_else(|| format!("seconds {value:?} is not in 1..=3600"))?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace {value:?} is not 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        record,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let o = parse(&args(
            "--workload adv-df4-pb --seed 42 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (o.workload.name, o.seed, o.seconds, o.trace, o.record),
            ("adv-df4-pb", 42, 20, true, false)
        );
        let d = parse(&args("--workload paper-df8")).unwrap();
        assert_eq!((d.seed, d.trace), (DEFAULT_SEED, false));
    }

    #[test]
    fn rejects_unknown_workloads_and_bad_seeds() {
        for bad in [
            "--workload nope",
            "--workload PAPER-DF8",
            "--seed 1",
            "--workload paper-df8 --seed -1",
            "--workload paper-df8 --seed 1.5",
            "--workload paper-df8 --seed 18446744073709551616",
            "--workload paper-df8 --seed",
            "--workload paper-df8 --trace 2",
            "--workload paper-df8 --seconds 0",
            "--workload paper-df8 --bogus 1",
        ] {
            assert!(parse(&args(bad)).is_err(), "accepted {bad:?}");
        }
    }
}
