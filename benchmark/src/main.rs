//! The end-to-end benchmark of `BENCHMARK.json`: four closed-loop workloads
//! over the program's public API under its shipped defaults, gated
//! end-to-end metrics from an untraced window, and per-layer metrics from a
//! separate traced pass.  See `README.md` beside `Cargo.toml`.

mod calib;
mod compare;
mod drive;
mod report;
mod scenario;
mod trace;
mod util;
mod verify;

use calib::Yardstick;
use drive::{Kind, Mode, Timing};
use report::{Metric, Report, WORKLOADS};
use scenario::{Scale, Scenario, Served};
use std::process::ExitCode;
use std::time::Duration;
use util::{median, percentile, proc_status_mb};

const USAGE: &str = "usage:
  benchmark [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]
  benchmark compare <a> <b>

Without --workload, every workload runs in turn, each in a process of its own.
Workloads: cdr_hot_reads cdr_adhoc_reads cdr_fact_churn movies_view_churn";

/// Set-ups beyond `Scale::setups` are run while all of them together took
/// less than this, up to `MAX_SETUPS`.
const SHORT_SETUPS_S: f64 = 1.5;
const MAX_SETUPS: usize = 9;

/// Where the traced run leaves its spans, relative to the working directory.
const TRACE_DIR: &str = "bench_traces";

#[derive(Debug, Clone, PartialEq)]
struct Options {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut options = Options {
            workload: None,
            seed: 1,
            seconds: 15.0,
            trace: false,
            smoke: false,
        };
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            if flag == "--smoke" {
                options.smoke = true;
                continue;
            }
            let value = args
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            let bad = || format!("{flag} {value}: not understood\n{USAGE}");
            match flag.as_str() {
                "--workload" => {
                    let known = WORKLOADS.iter().find(|w| *w == value).ok_or_else(bad)?;
                    options.workload = Some(known);
                }
                "--seed" => options.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    options.seconds = value.parse().map_err(|_| bad())?;
                    if !(options.seconds > 0.0 && options.seconds <= 600.0) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    options.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
            }
        }
        Ok(options)
    }
}

fn mode_of(workload: &str) -> Mode {
    match workload {
        "cdr_hot_reads" => Mode::HotReads,
        "cdr_adhoc_reads" => Mode::AdhocReads,
        _ => Mode::Churn,
    }
}

/// Every statement's answer at set-up, and every kept ad-hoc answer, against
/// the naive oracle on a freshly generated instance; and the program's final
/// state against that instance.  Returns the instance for reuse.
fn verify_run(
    scenario: &Scenario,
    served: &Served,
    kept: &[(String, bqr_plan::ExecOutput)],
    errors: &mut Vec<String>,
) -> bqr_data::Database {
    let generated = scenario.generate();
    let views = verify::inputs(scenario, &generated, errors);
    verify::final_state(served, &generated, errors);
    let oracle = verify::Oracle::new(scenario, &generated, &views);
    for statement in &served.statements {
        oracle.check(
            &statement.name,
            &statement.query,
            &statement.golden.tuples,
            errors,
        );
    }
    for (text, answer) in kept {
        let query = bqr_query::parser::parse_cq(text).expect("kept texts parsed before");
        oracle.check(text, &query, &answer.tuples, errors);
    }
    generated
}

/// The client-observed metrics of one untraced window: the gated ones at
/// nominal machine speed (see `calib`), and beside them the same as measured
/// and what the yardstick found the machine doing.
fn window_metrics(window: &drive::Window, metrics: &mut Vec<Metric>) {
    let slices = window.slices.len();
    metrics.push(Metric::new("ops_per_s", window.ops_per_s(), "1/s", slices));
    let (reads, writes) = (window.latencies(Kind::Read), window.latencies(Kind::Write));
    let raw_reads = window.raw_latencies(Kind::Read);
    for (name, samples, pct) in [
        ("read_p50_us", &reads, 50.0),
        ("read_p90_us", &reads, 90.0),
        ("read_p99_us", &reads, 99.0),
        ("write_p50_us", &writes, 50.0),
        ("write_p90_us", &writes, 90.0),
        ("raw.read_p50_us", &raw_reads, 50.0),
        ("raw.read_p90_us", &raw_reads, 90.0),
    ] {
        if !samples.is_empty() {
            metrics.push(Metric::new(
                name,
                percentile(samples, pct),
                "us",
                samples.len(),
            ));
        }
    }
    let (slowdown, cpu_share) = window.machine();
    metrics.extend([
        Metric::new("raw.ops_per_s", window.raw_ops_per_s(), "1/s", slices),
        Metric::new("machine.slowdown", slowdown, "ratio", slices),
        Metric::new("machine.cpu_share", cpu_share, "ratio", slices),
    ]);
}

/// One timed set-up: as measured, and at nominal machine speed (the yardstick
/// runs twice before it and twice after it).
struct SetUpTime {
    raw_s: f64,
    calibrated_s: f64,
}

fn timed_set_up(
    scenario: &Scenario,
    db: bqr_data::Database,
    yardstick: &mut Yardstick,
) -> (Served, SetUpTime) {
    let before = [yardstick.measure(), yardstick.measure()];
    let cpu_before = calib::process_cpu_s();
    let served = scenario::set_up(scenario, db);
    let cpu_s = calib::process_cpu_s() - cpu_before;
    let kernel_us = [
        before[0],
        before[1],
        yardstick.measure(),
        yardstick.measure(),
    ];
    let time = SetUpTime {
        raw_s: served.setup_s,
        calibrated_s: calib::calibrated(served.setup_s, cpu_s, calib::slowdown(&kernel_us)),
    };
    (served, time)
}

/// Run one workload in this process.  Returns the report and, for a traced
/// run, the spans as JSON.
fn run_workload(
    workload: &'static str,
    options: &Options,
) -> Result<(Report, Option<String>), String> {
    let scale = if options.smoke {
        Scale::smoke()
    } else {
        Scale::full()
    };
    let mode = mode_of(workload);
    // Generation is the benchmark's work, not the program's: untimed.
    let (scenario, db) = if workload == "movies_view_churn" {
        Scenario::movies(&scale, options.seed)
    } else {
        Scenario::cdr(&scale, options.seed)
    };
    let mut yardstick = Yardstick::start()?;
    let (served, first_set_up) = timed_set_up(&scenario, db, &mut yardstick);
    let rss_mb = proc_status_mb("VmRSS");
    let mut report = Report {
        workload,
        traced: options.trace,
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        notes: Vec::new(),
    };
    let window_of = |seconds: f64| Timing {
        warmup: scale.warmup,
        window: Duration::from_secs_f64(seconds),
    };

    if !options.trace {
        let window = drive::run(
            mode,
            &scenario,
            &served,
            options.seed,
            window_of(options.seconds),
            &mut yardstick,
        );
        // Read before the oracle runs: its scans and hash indexes are the
        // benchmark's memory, not the program's.
        let rss_peak_mb = proc_status_mb("VmHWM");
        window_metrics(&window, &mut report.metrics);
        report.metrics.extend([
            Metric::new("rss_mb", rss_mb, "MB", 1),
            Metric::new("rss_peak_mb", rss_peak_mb, "MB", 1),
        ]);
        report.attempted = window.attempted;
        report.failed = window.failed;
        report.errors.extend(window.errors);
        let generated = verify_run(&scenario, &served, &window.kept, &mut report.errors);

        // Set up again on fresh copies of the instance; `setup_s` is the
        // median, so one slow set-up does not decide it.  A set-up that
        // takes milliseconds is repeated more often.
        let mut setups = vec![first_set_up];
        drop(served);
        let mut fresh = Some(generated);
        while setups.len() < scale.setups
            || (setups.len() < MAX_SETUPS
                && setups.iter().map(|s| s.raw_s).sum::<f64>() < SHORT_SETUPS_S)
        {
            let db = fresh.take().unwrap_or_else(|| scenario.generate());
            setups.push(timed_set_up(&scenario, db, &mut yardstick).1);
        }
        let over = |f: fn(&SetUpTime) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
        report.metrics.extend([
            Metric::new("setup_s", over(|s| s.calibrated_s), "s", setups.len()),
            Metric::new("raw.setup_s", over(|s| s.raw_s), "s", setups.len()),
        ]);
        return Ok((report, None));
    }

    // Traced run.  A short untraced window first: the base of the tracing
    // overhead, and what only concurrent clients show (`ServerStats`).
    let stats_before = served.server.stats();
    let window = drive::run(
        mode,
        &scenario,
        &served,
        options.seed,
        window_of(options.seconds / 3.0),
        &mut yardstick,
    );
    let stats_after = served.server.stats();
    // Per-layer times are as measured, like the spans beside them;
    // `machine.slowdown` says what the machine was doing meanwhile.
    let (window_reads, window_writes) = (
        window.raw_latencies(Kind::Read),
        window.raw_latencies(Kind::Write),
    );
    let (slowdown, cpu_share) = window.machine();
    let traced = trace::run(
        mode,
        &scenario,
        &served,
        scenario.generate(),
        options.seed,
        options.seconds,
    );
    report.attempted = window.attempted + traced.attempted;
    report.failed = window.failed;
    report.errors.extend(window.errors);
    report.errors.extend(traced.errors);
    report.notes = traced.reconciliation;
    report.metrics = traced.metrics;

    let delta = |after: u64, before: u64| (after - before) as f64;
    let writes = delta(stats_after.writes, stats_before.writes);
    let reads = delta(stats_after.completed, stats_before.completed) - writes;
    let batches = delta(stats_after.write_batches, stats_before.write_batches);
    let outermost = if mode == Mode::AdhocReads {
        "engine.query_us"
    } else {
        "server.read_us"
    };
    let traced_read_us = report.get(outermost).map_or(0.0, |m| m.value);
    let untraced_read_us = percentile(&window_reads, 50.0);
    let tuples = served.server.engine().database().size();
    let (reads_n, writes_n) = (window_reads.len(), window_writes.len());
    report.metrics.extend([
        Metric::new(
            "server.read_p99_us",
            percentile(&window_reads, 99.0),
            "us",
            reads_n,
        ),
        Metric::new(
            "server.write_p50_us",
            percentile(&window_writes, 50.0),
            "us",
            writes_n,
        ),
        Metric::new(
            "server.write_p90_us",
            percentile(&window_writes, 90.0),
            "us",
            writes_n,
        ),
        Metric::new(
            "server.coalesced_share",
            delta(stats_after.coalesced_reads, stats_before.coalesced_reads) / reads.max(1.0),
            "ratio",
            reads as usize,
        ),
        Metric::new(
            "server.write_batch_size",
            if batches > 0.0 { writes / batches } else { 0.0 },
            "count",
            batches as usize,
        ),
        Metric::new(
            "server.rejected",
            delta(stats_after.rejected, stats_before.rejected),
            "count",
            window.attempted as usize,
        ),
        Metric::new(
            "server.shed",
            delta(stats_after.shed, stats_before.shed),
            "count",
            window.attempted as usize,
        ),
        Metric::new("engine.attach_s", served.attach_s, "s", 1),
        Metric::new("data.first_touch_s", served.first_touch_s, "s", 1),
        Metric::new("data.tuples", tuples as f64, "count", 1),
        Metric::new("data.rss_after_attach_mb", rss_mb, "MB", 1),
        Metric::new(
            "trace.overhead_ratio",
            traced_read_us / untraced_read_us,
            "ratio",
            reads_n,
        ),
        Metric::new("machine.slowdown", slowdown, "ratio", window.slices.len()),
        Metric::new("machine.cpu_share", cpu_share, "ratio", window.slices.len()),
    ]);
    verify_run(&scenario, &served, &window.kept, &mut report.errors);
    Ok((report, Some(traced.spans_json)))
}

/// Run one workload, print its lines and its closing JSON object.
fn run_one(workload: &'static str, options: &Options) -> Result<bool, String> {
    let (report, spans) = run_workload(workload, options)?;
    if let Some(spans) = spans {
        let path = format!("{TRACE_DIR}/{workload}-seed{}.json", options.seed);
        std::fs::create_dir_all(TRACE_DIR)
            .and_then(|()| std::fs::write(&path, spans))
            .map_err(|e| format!("{path}: {e}"))?;
        println!("# {workload} spans written to {path}");
    }
    print!("{}", report.lines());
    println!("{}", report.json()?);
    Ok(report.correct())
}

/// Run every workload, each in a child process, so that `rss_mb` is the
/// workload's own peak and not its predecessors'.
fn run_all(options: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut correct = true;
    for workload in WORKLOADS {
        let mut child = std::process::Command::new(&exe);
        child
            .args(["--workload", workload])
            .args(["--seed", &options.seed.to_string()])
            .args(["--seconds", &options.seconds.to_string()])
            .args(["--trace", if options.trace { "1" } else { "0" }]);
        if options.smoke {
            child.arg("--smoke");
        }
        let status = child.status().map_err(|e| format!("{workload}: {e}"))?;
        correct &= status.success();
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some(calib::YARDSTICK_ARG) => calib::serve()
            .map(|()| true)
            .map_err(|e| format!("yardstick: {e}")),
        Some("compare") if args.len() == 3 => compare::run(&args[1], &args[2]),
        Some("compare" | "-h" | "--help") => Err(USAGE.to_string()),
        _ => Options::parse(&args).and_then(|options| match options.workload {
            Some(workload) => run_one(workload, &options),
            None => run_all(&options),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::{END_TO_END, PER_LAYER};

    /// `BENCHMARK.json` and the tables in `report.rs` name the same
    /// workloads and metrics, with the same units and bounds.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let names = |section: &str| -> Vec<String> {
            let start = json.find(&format!("\"{section}\"")).expect(section);
            let body = &json[start..start + json[start..].find(']').expect("a list")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        let end_to_end: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names("end_to_end"), end_to_end);
        let per_layer: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names("per_layer"), per_layer);
        for (name, unit, better, bound) in END_TO_END {
            let better = match better {
                report::Better::Lower => "lower",
                report::Better::Higher => "higher",
            };
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit) in PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn options_parse_the_driver_arguments() {
        let args: Vec<String> = "--workload cdr_fact_churn --seed 9 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let options = Options::parse(&args).expect("parses");
        assert_eq!(options.workload, Some("cdr_fact_churn"));
        assert_eq!((options.seed, options.seconds), (9, 10.0));
        assert!(options.trace && !options.smoke);
        assert!(Options::parse(&["--workload".into(), "nope".into()]).is_err());
        assert!(Options::parse(&["--trace".into(), "2".into()]).is_err());
        assert!(Options::parse(&["--seconds".into()]).is_err());
    }
}
