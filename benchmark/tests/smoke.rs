//! Every workload at the reduced scale, untraced and traced, through the
//! built executable (the yardstick is the same executable, started as a
//! child): every metric `BENCHMARK.json` names comes out on the closing line,
//! finite and with its unit, and no process is left behind.

use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "cdr_hot_reads",
    "cdr_adhoc_reads",
    "cdr_fact_churn",
    "movies_view_churn",
];

/// The `(name, unit)` pairs of one section of `BENCHMARK.json`.
fn named(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let start = json.find(&format!("\"{section}\"")).expect(section);
    let body = &json[start..start + json[start..].find(']').expect("a list")];
    let field = |entry: &str, key: &str| {
        let rest = &entry[entry.find(key).expect(key) + key.len()..];
        rest[..rest.find('"').expect("closing quote")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "\"name\": \""), field(entry, "\"unit\": \"")))
        .collect()
}

#[test]
fn smoke_every_workload_reports_every_metric() {
    for workload in WORKLOADS {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
                .args(["--smoke", "--workload", workload, "--seed", "3"])
                .args(["--seconds", "0.3", "--trace", trace])
                .current_dir(env!("CARGO_TARGET_TMPDIR"))
                .output()
                .expect("the benchmark starts");
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                output.status.success(),
                "{workload} --trace {trace}:\n{stdout}"
            );
            let closing = stdout.lines().last().expect("a closing line");
            assert!(
                closing.starts_with("{\"correct\": true, \"attempted\": ")
                    && closing.contains(", \"failed\": 0, \"metrics\": {"),
                "{workload}: {closing}"
            );
            let metrics = named(section);
            assert_eq!(closing.matches("\"value\": ").count(), metrics.len());
            for (name, unit) in metrics {
                let key = format!("\"{name}\": {{\"value\": ");
                let at = closing
                    .find(&key)
                    .unwrap_or_else(|| panic!("{workload} lacks {name}: {closing}"));
                let rest = &closing[at + key.len()..];
                let (value, rest) = rest.split_once(", ").expect("a unit follows");
                let value: f64 = value.parse().expect("a number");
                assert!(value.is_finite(), "{workload} {name} = {value}");
                assert!(trace == "1" || value > 0.0, "{workload} {name} is 0");
                assert!(
                    rest.starts_with(&format!("\"unit\": \"{unit}\"}}")),
                    "{workload} {name}: {rest}"
                );
            }
            if trace == "0" && workload.ends_with("churn") {
                let write = format!("{workload} write_p50_us ");
                assert!(stdout.lines().any(|l| l.starts_with(&write)), "{stdout}");
            }
        }
    }
}
