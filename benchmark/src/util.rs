//! Small numeric helpers: a seeded generator, order statistics, and the
//! process's resident-set readings.

/// SplitMix64: the benchmark's only source of randomness, so a `--seed`
/// fixes every pick the workloads make.
pub struct Rng(u64);

impl Rng {
    /// A generator for one `(seed, stream)` pair; distinct streams of one
    /// seed (one per client thread) are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next();
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Nearest-rank percentile of unsorted samples; 0 when there are none.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * pct / 100.0).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median, the mean of the middle two for an even count; 0 when there
/// are no samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n => (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0,
    }
}

/// A `Vm*` field of `/proc/self/status`, in MB (the kernel reports kB).
/// `VmHWM` is the peak resident set, `VmRSS` the current one.
pub fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has no {field} field"));
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn the_generator_repeats_for_a_seed_and_differs_across_streams() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, 0);
            (0..4).map(|_| r.next()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7, 0);
            (0..4).map(|_| r.next()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..4).map(|_| r.next()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(Rng::new(1, 0).below(10) < 10);
        assert!(proc_status_mb("VmHWM") >= proc_status_mb("VmRSS") * 0.5);
    }
}
