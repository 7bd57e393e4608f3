//! `benchmark compare <a> <b>`: read two files of metric lines (the standard
//! output of any number of runs each) and judge `b` against `a` by the
//! benchmark's own bounds.

use crate::report::{Better, END_TO_END, EXACT_COUNTS, WORKLOADS};
use crate::util::median;
use std::collections::BTreeMap;

type Samples = BTreeMap<(String, String), Vec<f64>>;

/// Every `workload metric value unit …` line of `text`; anything else (notes,
/// the closing JSON objects, cargo's chatter) is skipped.
fn parse(text: &str) -> Samples {
    let mut samples = Samples::new();
    for line in text.lines() {
        let mut fields = line.split_whitespace();
        let (Some(workload), Some(metric), Some(value)) =
            (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        if !WORKLOADS.contains(&workload) {
            continue;
        }
        if let Ok(value) = value.parse::<f64>() {
            samples
                .entry((workload.to_string(), metric.to_string()))
                .or_default()
                .push(value);
        }
    }
    samples
}

/// Distance between the first and third quartile as a share of the median,
/// quartiles as Python's `statistics.quantiles(values, n=4)` gives them;
/// with fewer than four values, the range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let mid = median(&x);
    if x.len() < 2 || mid == 0.0 {
        return 0.0;
    }
    if x.len() < 4 {
        return (x[x.len() - 1] - x[0]) / mid;
    }
    let quartile = |i: usize| {
        let m = x.len() + 1;
        let j = (i * m / 4).clamp(1, x.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / mid
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, Verdict) {
    let (base, new) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    };
    let b_beats_a = |x: f64, y: f64| match better {
        Better::Lower => y < x,
        Better::Higher => y > x,
    };
    let verdict = if worse_by > bound {
        Verdict::Regressed
    } else if spread(a).max(spread(b)) > bound
        && !a.iter().all(|&x| b.iter().all(|&y| b_beats_a(x, y)))
    {
        // The runs of one side disagree by more than the bound: "no worse"
        // cannot be told from noise.
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// Compare two result files; `Ok(true)` when nothing regressed.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map(|text| parse(&text))
            .map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (read(path_a)?, read(path_b)?);
    let mut clean = true;
    println!(
        "{:<18} {:<12} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "a (median)", "b (median)", "worse by", "bound"
    );
    for workload in WORKLOADS {
        for (metric, _, better, bound) in END_TO_END {
            let key = (workload.to_string(), metric.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let (worse_by, verdict) = judge(va, vb, better, bound);
            clean &= verdict != Verdict::Regressed;
            println!(
                "{workload:<18} {metric:<12} {:>14.3} {:>14.3} {:>+8.1}% {:>5.0}%  {} (n={}/{})",
                median(va),
                median(vb),
                worse_by * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                },
                va.len(),
                vb.len()
            );
        }
        for metric in EXACT_COUNTS {
            let key = (workload.to_string(), metric.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let same = va.iter().chain(vb).all(|v| *v == va[0]);
            println!(
                "{workload:<18} {metric:<36} {:>14} {}",
                va[0],
                if same { "same" } else { "differs" }
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[4.0]), 0.0);
        assert_eq!(spread(&[4.0, 5.0, 6.0]), 0.4);
    }

    #[test]
    fn verdicts_follow_the_bounds() {
        let base = [100.0, 101.0, 99.0, 100.0];
        assert_eq!(
            judge(&base, &[104.0; 4], Better::Lower, 0.10).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(&base, &[115.0; 4], Better::Lower, 0.10).1,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&base, &[85.0; 4], Better::Higher, 0.10).1,
            Verdict::Regressed
        );
        let noisy = [80.0, 100.0, 120.0, 100.0];
        assert_eq!(
            judge(&base, &noisy, Better::Lower, 0.10).1,
            Verdict::Unresolved
        );
        // Every run of b better than every run of a: resolved, however noisy.
        assert_eq!(
            judge(&base, &[50.0, 60.0, 70.0, 80.0], Better::Lower, 0.10).1,
            Verdict::Ok
        );
    }

    #[test]
    fn only_metric_lines_are_parsed() {
        let parsed = parse(
            "# cdr_hot_reads note\ncdr_hot_reads ops_per_s 5600.5 1/s n=40\n\
             {\"correct\": true}\nother ops_per_s 1 1/s\ncdr_hot_reads ops_per_s 5700 1/s n=41\n",
        );
        assert_eq!(parsed.len(), 1);
        assert_eq!(
            parsed[&("cdr_hot_reads".to_string(), "ops_per_s".to_string())],
            vec![5600.5, 5700.0]
        );
    }
}
