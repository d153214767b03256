//! Exact fingerprint of a simulation point's deterministic outputs, and
//! the fingerprints recorded for the default seeds.

use flexvc_sim::metrics::LatencyHistogram;
use flexvc_sim::SimResult;

/// Recorded fingerprints: one `workload seed hex` line each, recorded
/// with `shards = 1` (`perfbench --workload W --seed N --record`).
const RECORDED: &str = include_str!("../fingerprints.txt");

/// FNV-1a over the outputs the engine promises to reproduce exactly for
/// any shard count: consumed packets, accepted load, flows completed and
/// every latency and FCT histogram bucket (all classes and per class).
pub fn fingerprint(r: &SimResult) -> u64 {
    let mut h = Fnv::default();
    h.word(r.latency_hist.count());
    h.word(r.accepted.to_bits());
    h.word(r.flows_completed.to_bits());
    h.hist(&r.latency_hist);
    h.hist(&r.fct_hist);
    for c in &r.classes {
        h.word(c.accepted.to_bits());
        h.hist(&c.latency_hist);
        h.hist(&c.fct_hist);
    }
    h.0
}

/// The fingerprint recorded for `workload` at `seed`, if any.
pub fn recorded(workload: &str, seed: u64) -> Option<u64> {
    parse_recorded(RECORDED).find_map(|(w, s, f)| (w == workload && s == seed).then_some(f))
}

/// Parse `workload seed hex` lines, skipping blanks and `#` comments.
/// Panics on a malformed line: the file ships with the benchmark.
fn parse_recorded(text: &str) -> impl Iterator<Item = (&str, u64, u64)> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(f.len(), 3, "malformed fingerprint line: {l}");
            let seed = f[1].parse().expect("fingerprint seed is a u64");
            let fp = u64::from_str_radix(f[2], 16).expect("fingerprint is hex");
            (f[0], seed, fp)
        })
}

/// The line `--record` prints for the recorded-fingerprint file.
pub fn record_line(workload: &str, seed: u64, fp: u64) -> String {
    format!("{workload} {seed} {fp:016x}")
}

#[derive(Clone, Copy)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn hist(&mut self, h: &LatencyHistogram) {
        for (&b, &s) in h.buckets().iter().zip(h.bucket_sums()) {
            self.word(b);
            self.word(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_file_parses_and_round_trips() {
        for (w, s, f) in parse_recorded(RECORDED) {
            assert_eq!(recorded(w, s), Some(f));
            assert_eq!(
                parse_recorded(&record_line(w, s, f)).next(),
                Some((w, s, f))
            );
        }
        assert_eq!(recorded("no-such-workload", 1), None);
    }

    #[test]
    fn fingerprint_sees_every_histogram_bucket() {
        let mut r = SimResult::default();
        let base = fingerprint(&r);
        r.fct_hist.record(300);
        let with_fct = fingerprint(&r);
        assert_ne!(base, with_fct);
        r.classes[0].latency_hist.record(2);
        assert_ne!(with_fct, fingerprint(&r));
    }
}
