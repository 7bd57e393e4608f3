//! The names every run reports under — the same names `BENCHMARK.json`
//! lists — and the two output forms: one `workload metric value unit n=…`
//! line per metric, and the closing JSON object.

use std::fmt::Write as _;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "cdr_hot_reads",
    "cdr_adhoc_reads",
    "cdr_fact_churn",
    "movies_view_churn",
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// A gated end-to-end metric: `(name, unit, direction, bound)`, the bound
/// being the share of the baseline's median by which it may worsen.
pub const END_TO_END: [(&str, &str, Better, f64); 5] = [
    ("ops_per_s", "1/s", Better::Higher, 0.25),
    ("read_p50_us", "us", Better::Lower, 0.20),
    ("read_p90_us", "us", Better::Lower, 0.25),
    ("rss_mb", "MB", Better::Lower, 0.10),
    ("setup_s", "s", Better::Lower, 0.25),
];

/// The per-layer metrics of the traced run, with their units.  A metric a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("server.read_us", "us"),
    ("server.read_self_us", "us"),
    ("server.read_p99_us", "us"),
    ("server.read_after_write_us", "us"),
    ("server.mutate_us", "us"),
    ("server.mutate_p90_us", "us"),
    ("server.mutate_self_us", "us"),
    ("server.write_p50_us", "us"),
    ("server.write_p90_us", "us"),
    ("server.coalesced_share", "ratio"),
    ("server.write_batch_size", "count"),
    ("server.rejected", "count"),
    ("server.shed", "count"),
    ("engine.read_us", "us"),
    ("engine.read_self_us", "us"),
    ("engine.query_us", "us"),
    ("engine.query_self_us", "us"),
    ("engine.mutate_us", "us"),
    ("engine.mutate_self_us", "us"),
    ("engine.attach_s", "s"),
    ("core.analyze_us", "us"),
    ("query.parse_us", "us"),
    ("query.materialize_s", "s"),
    ("query.maintain_us", "us"),
    ("plan.exec_us", "us"),
    ("plan.compile_us", "us"),
    ("plan.cache_hit_ratio", "ratio"),
    ("plan.cache_invalidations_per_write", "count"),
    ("plan.cache_evictions", "count"),
    ("data.index_build_s", "s"),
    ("data.first_touch_s", "s"),
    ("data.fork_us", "us"),
    ("data.take_delta_us", "us"),
    ("data.apply_delta_us", "us"),
    ("data.release_us", "us"),
    ("data.reindex_us", "us"),
    ("data.fetched_per_read", "count"),
    ("data.fetch_calls_per_read", "count"),
    ("data.scanned_per_read", "count"),
    ("data.bound_utilisation", "ratio"),
    ("data.tuples", "count"),
    ("data.rss_after_attach_mb", "MB"),
    ("trace.overhead_ratio", "ratio"),
    ("machine.slowdown", "ratio"),
    ("machine.cpu_share", "ratio"),
];

/// Counts taken over the single-threaded traced pass: for one seed they must
/// repeat exactly, run after run.
pub const EXACT_COUNTS: [&str; 8] = [
    "plan.cache_hit_ratio",
    "plan.cache_invalidations_per_write",
    "plan.cache_evictions",
    "data.fetched_per_read",
    "data.fetch_calls_per_read",
    "data.scanned_per_read",
    "data.bound_utilisation",
    "data.tuples",
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarises (0: derived from other values).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// Everything one run of one workload found.
#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub traced: bool,
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Wrong answers, failed checks, error messages.  Empty: correct.
    pub errors: Vec<String>,
    /// Free-form lines printed before the metrics (the reconciliation).
    pub notes: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The names the closing JSON object must carry in this mode.
    pub fn contract_names(&self) -> Vec<(&'static str, &'static str)> {
        if self.traced {
            PER_LAYER.to_vec()
        } else {
            END_TO_END.iter().map(|(n, u, _, _)| (*n, *u)).collect()
        }
    }

    /// One line per metric, `workload metric value unit n=samples` — the
    /// form `benchmark compare` reads back.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "# {} {note}", self.workload);
        }
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{} {} {} {} n={}",
                self.workload, m.name, m.value, m.unit, m.samples
            );
        }
        for e in self.errors.iter().take(20) {
            let _ = writeln!(out, "# {} WRONG: {e}", self.workload);
        }
        out
    }

    /// The closing object: `correct`, `attempted`, `failed`, and exactly the
    /// metrics `BENCHMARK.json` names for this mode.
    pub fn json(&self) -> Result<String, String> {
        let mut metrics = Vec::new();
        for (name, unit) in self.contract_names() {
            let m = self
                .get(name)
                .ok_or_else(|| format!("{}: metric {name} was not measured", self.workload))?;
            if !m.value.is_finite() {
                return Err(format!("{}: metric {name} is {}", self.workload, m.value));
            }
            debug_assert_eq!(m.unit, unit);
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                m.value
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}
