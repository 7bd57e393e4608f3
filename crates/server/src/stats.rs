//! Serving-side counters and the latency histogram behind
//! [`Server::stats`](crate::Server::stats).

use std::sync::atomic::{AtomicU64, Ordering};

/// log2 of the sub-buckets per power of two.
const SUB_BITS: u32 = 4;
/// Sub-buckets per power of two: a bucket is at most 1/16 (6.25 %) of its
/// lower bound wide.
const SUB_BUCKETS: u64 = 1 << SUB_BITS;
/// Values below `SUB_BUCKETS` get a bucket each; every power of two from
/// 2^4 to 2^63 gets `SUB_BUCKETS` more.
const BUCKETS: usize = (SUB_BUCKETS as usize) * (64 - SUB_BITS as usize + 1);

#[derive(Default)]
pub(crate) struct Metrics {
    pub(crate) admitted: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) read_batches: AtomicU64,
    pub(crate) coalesced_reads: AtomicU64,
    pub(crate) writes: AtomicU64,
    pub(crate) write_batches: AtomicU64,
    pub(crate) caller_flushes: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) latencies: Histogram,
}

/// Request latencies in log-spaced buckets: recording is two relaxed atomic
/// updates, a snapshot reads the counts — no lock, no sample copy.
pub(crate) struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            max: AtomicU64::new(0),
        }
    }
}

/// The bucket `micros` falls in: its own below 16, then the exponent and
/// the four bits under the leading one.
fn bucket_of(micros: u64) -> usize {
    if micros < SUB_BUCKETS {
        return micros as usize;
    }
    let exponent = 63 - micros.leading_zeros();
    let sub = (micros >> (exponent - SUB_BITS)) & (SUB_BUCKETS - 1);
    ((exponent - SUB_BITS + 1) as u64 * SUB_BUCKETS + sub) as usize
}

/// The largest value that falls in `bucket`.
fn upper_bound(bucket: usize) -> u64 {
    let bucket = bucket as u64;
    if bucket < SUB_BUCKETS {
        return bucket;
    }
    let shift = (bucket / SUB_BUCKETS - 1) as u32;
    let lower = (SUB_BUCKETS + bucket % SUB_BUCKETS) << shift;
    lower + ((1u64 << shift) - 1)
}

impl Histogram {
    pub(crate) fn record(&self, micros: u64) {
        self.buckets[bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
        self.max.fetch_max(micros, Ordering::Relaxed);
    }

    /// `(p50, p99, max)`.  A percentile is the nearest-rank sample's bucket
    /// bound — never below that sample, at most 6.25 % above it, and never
    /// above the exact maximum; 0 when nothing was recorded.
    fn summary(&self) -> (u64, u64, u64) {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|bucket| bucket.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        let max = self.max.load(Ordering::Relaxed);
        let percentile = |pct: u64| {
            let rank = (total * pct).div_ceil(100).max(1);
            let mut seen = 0;
            let bucket = counts.iter().position(|count| {
                seen += count;
                seen >= rank
            });
            bucket.map_or(0, |bucket| upper_bound(bucket).min(max))
        };
        (percentile(50), percentile(99), max)
    }
}

impl Metrics {
    pub(crate) fn snapshot(&self) -> ServerStats {
        let (p50_us, p99_us, max_us) = self.latencies.summary();
        ServerStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            read_batches: self.read_batches.load(Ordering::Relaxed),
            coalesced_reads: self.coalesced_reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            write_batches: self.write_batches.load(Ordering::Relaxed),
            caller_flushes: self.caller_flushes.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            p50_us,
            p99_us,
            max_us,
        }
    }
}

/// A point-in-time snapshot of a server's counters and latency profile.
/// Latencies cover every request completed since the server started (reads
/// and writes), measured from admission to fulfilment; the percentiles are
/// histogram bucket bounds — at most 6.25 % above the true sample, exact
/// below 16 µs, never above `max_us`, which is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Requests accepted past admission control.
    pub admitted: u64,
    /// Requests rejected with [`crate::ServerError::Overloaded`].
    pub rejected: u64,
    /// Requests fulfilled (answer or typed error delivered).
    pub completed: u64,
    /// Read batches flushed (each serves ≥ 1 coalesced request).
    pub read_batches: u64,
    /// Read requests that shared a flush with at least one other request.
    pub coalesced_reads: u64,
    /// Write closures applied (batched or serialised).
    pub writes: u64,
    /// Write batches published.
    pub write_batches: u64,
    /// Read and write flushes run on the thread of the sync entry that
    /// submitted them (the server's only recent client) rather than on the
    /// pool.
    pub caller_flushes: u64,
    /// Requests shed by an injected `SERVER_ACCEPT`/`BATCH_FLUSH` fault
    /// (always with a typed error, never silently).
    pub shed: u64,
    /// Median request latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: u64,
    /// Worst observed request latency, microseconds.
    pub max_us: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_of(samples: impl IntoIterator<Item = u64>) -> ServerStats {
        let m = Metrics::default();
        for micros in samples {
            m.latencies.record(micros);
        }
        m.snapshot()
    }

    #[test]
    fn percentiles_are_nearest_rank_bucket_bounds() {
        let empty = stats_of([]);
        assert_eq!((empty.p50_us, empty.p99_us, empty.max_us), (0, 0, 0));
        let one = stats_of([7]);
        assert_eq!((one.p50_us, one.p99_us, one.max_us), (7, 7, 7));
        // Ranks 50 and 99 of 1..=100 are the samples 50 and 99; their
        // buckets are [50, 51] and [96, 99].
        let hundred = stats_of(1..=100);
        assert_eq!(
            (hundred.p50_us, hundred.p99_us, hundred.max_us),
            (51, 99, 100)
        );
        // A bucket bound never exceeds the exact maximum.
        let clamped = stats_of([1_000]);
        assert_eq!((clamped.p50_us, clamped.p99_us), (1_000, 1_000));
        // Unlike a ring of recent samples, nothing is forgotten: the count
        // behind the percentiles is every request ever recorded.
        let many = stats_of((0..200_000).map(|i| if i < 150_000 { 10 } else { 5_000 }));
        assert_eq!((many.p50_us, many.p99_us, many.max_us), (10, 5_000, 5_000));
    }

    #[test]
    fn buckets_are_exact_below_16_and_within_a_sixteenth_above() {
        for v in 0..SUB_BUCKETS {
            assert_eq!(upper_bound(bucket_of(v)), v);
        }
        let probes = (4..64).flat_map(|e| {
            let base = 1u64 << e;
            [base, base + 1, base + base / 3, (base - 1) * 2 + 1]
        });
        for v in probes.chain([16, 17, 31, 32, 33, 1_000_000, u64::MAX]) {
            let bucket = bucket_of(v);
            assert!(bucket < BUCKETS, "{v} → {bucket}");
            let upper = upper_bound(bucket);
            assert!(upper >= v, "{v} above its bucket's bound {upper}");
            assert!(
                upper - v <= v / SUB_BUCKETS,
                "{v} reported as {upper}: more than 1/16 off"
            );
            // Buckets tile the range: the next value starts the next bucket.
            if upper < u64::MAX {
                assert_eq!(bucket_of(upper + 1), bucket + 1);
            }
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }
}
