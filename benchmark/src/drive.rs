//! The closed-loop, untraced measured windows of the four workloads.  The
//! client blocks on its call, checks the answer, and only then issues the
//! next one; between the slices of a window the yardstick is run.

use crate::calib::{calibrated, process_cpu_s, slowdown, Yardstick};
use crate::scenario::{Scenario, Served, Statement, Write};
use crate::util::{median, Rng};
use bqr_plan::ExecOutput;
use std::time::{Duration, Instant};

/// Which loop a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Uniform picks among the prepared statements, through `Server`.
    HotReads,
    /// A never-seen query text per operation, through `Session::query`.
    AdhocReads,
    /// `write, read target, read, …`, through `Server`.
    Churn,
}

/// When the loop starts counting and when it stops.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub warmup: Duration,
    pub window: Duration,
}

/// The window is cut into this many slices of consecutive operations, each
/// calibrated on its own: the machine's speed changes within seconds.
pub const SLICES: usize = 20;

/// An ad-hoc answer is kept for the oracle every this many operations.
const ADHOC_KEEP_EVERY: u64 = 4096;
const ADHOC_KEEP_CAP: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write,
}

struct Outcome {
    kind: Kind,
    /// The program returned an error or refused the operation.
    failed: bool,
    /// The program answered, wrongly.
    wrong: Option<String>,
}

impl Outcome {
    fn read(result: Result<Option<String>, String>) -> Outcome {
        Outcome::of(Kind::Read, result)
    }

    fn of(kind: Kind, result: Result<Option<String>, String>) -> Outcome {
        match result {
            Ok(wrong) => Outcome {
                kind,
                failed: false,
                wrong,
            },
            Err(e) => Outcome {
                kind,
                failed: true,
                wrong: Some(e),
            },
        }
    }
}

/// One measured operation as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub kind: Kind,
    /// When the client issued it, in seconds since the window opened.
    pub start_s: f64,
    /// Until the client had its answer, in microseconds.
    pub us: f64,
    /// CPU time the process used meanwhile, all threads, in microseconds.
    pub cpu_us: f64,
}

/// One slice of the window: consecutive whole cycles of the loop, with the
/// yardstick's kernel timed twice just before and twice just after them.
#[derive(Debug, Clone)]
pub struct Slice {
    /// The slice's operations, as a range of [`Window::ops`].
    pub ops: std::ops::Range<usize>,
    /// From the first operation's start to the last one's end.
    pub wall_s: f64,
    /// CPU time the process used meanwhile, all threads.
    pub cpu_s: f64,
    /// How many times slower than nominal the machine ran meanwhile.
    pub slowdown: f64,
}

/// What one window measured.
#[derive(Debug, Default)]
pub struct Window {
    /// Every measured operation, in the order issued.
    pub ops: Vec<Op>,
    pub slices: Vec<Slice>,
    pub attempted: u64,
    pub failed: u64,
    /// Wrong answers and error messages; empty on a correct run.
    pub errors: Vec<String>,
    /// `(text, answer)` samples of the ad-hoc workload, for the oracle.
    pub kept: Vec<(String, ExecOutput)>,
}

impl Window {
    /// Client-observed latencies of one kind as measured, in microseconds.
    pub fn raw_latencies(&self, kind: Kind) -> Vec<f64> {
        let of_kind = self.ops.iter().filter(|op| op.kind == kind);
        of_kind.map(|op| op.us).collect()
    }

    /// Client-observed latencies of one kind at nominal machine speed, in
    /// microseconds: each operation calibrated by its slice's slowdown.
    pub fn latencies(&self, kind: Kind) -> Vec<f64> {
        let mut out = Vec::new();
        for slice in &self.slices {
            let of_kind = self.ops[slice.ops.clone()]
                .iter()
                .filter(|op| op.kind == kind);
            out.extend(of_kind.map(|op| calibrated(op.us, op.cpu_us, slice.slowdown)));
        }
        out
    }

    /// Completed operations per second as measured: the median over the
    /// slices, so that a stall of the host's costs one slice, not the run.
    pub fn raw_ops_per_s(&self) -> f64 {
        let rates = self.slices.iter().map(|s| s.ops.len() as f64 / s.wall_s);
        median(&rates.collect::<Vec<f64>>())
    }

    /// Completed operations per second at nominal machine speed.
    pub fn ops_per_s(&self) -> f64 {
        let rates = self
            .slices
            .iter()
            .map(|s| s.ops.len() as f64 / calibrated(s.wall_s, s.cpu_s, s.slowdown));
        median(&rates.collect::<Vec<f64>>())
    }

    /// The median slowdown of the slices, and the share of the window's time
    /// the process spent on a CPU.
    pub fn machine(&self) -> (f64, f64) {
        let slowdowns: Vec<f64> = self.slices.iter().map(|s| s.slowdown).collect();
        let (cpu, wall) = self
            .slices
            .iter()
            .fold((0.0, 0.0), |(c, w), s| (c + s.cpu_s, w + s.wall_s));
        (median(&slowdowns), cpu / wall)
    }
}

/// The closed loop.  `timing.warmup` of discarded operations, then the
/// window: [`SLICES`] slices of `timing.window / SLICES` each, a slice ending
/// at the first boundary between cycles (`unit` operations: the same mix of
/// work every time) after its time is up.  The yardstick runs between
/// slices, outside every measured operation.
fn client_loop(
    timing: Timing,
    unit: u64,
    yardstick: &mut Yardstick,
    mut op: impl FnMut(u64) -> Outcome,
) -> Window {
    let mut log = Window::default();
    let measure_from = Instant::now() + timing.warmup;
    let deadline = measure_from + timing.window;
    let slice = timing.window / SLICES as u32;
    // The open slice: its first operation, when it began, the CPU time then,
    // the kernel's times before it, and when it is due to end.
    let mut open: Option<(usize, Instant, f64, [f64; 2], Instant)> = None;
    for i in 0u64.. {
        let mut start = Instant::now();
        let due = open.as_ref().map_or(measure_from, |o| o.4);
        if i.is_multiple_of(unit) && start >= due {
            let cpu_end = process_cpu_s();
            let kernel_us = [yardstick.measure(), yardstick.measure()];
            if let Some((first, began, cpu_began, before, _)) = open.take() {
                let last = log.ops[log.ops.len() - 1];
                let ended_s = last.start_s + last.us / 1e6;
                log.slices.push(Slice {
                    ops: first..log.ops.len(),
                    wall_s: ended_s - (began - measure_from).as_secs_f64(),
                    cpu_s: cpu_end - cpu_began,
                    slowdown: slowdown(&[before[0], before[1], kernel_us[0], kernel_us[1]]),
                });
            }
            if start >= deadline {
                break;
            }
            start = Instant::now();
            open = Some((
                log.ops.len(),
                start,
                process_cpu_s(),
                kernel_us,
                start + slice,
            ));
        }
        let cpu_start = process_cpu_s();
        let outcome = op(i);
        let end = Instant::now();
        let cpu_us = (process_cpu_s() - cpu_start) * 1e6;
        if open.is_none() {
            if let Some(wrong) = outcome.wrong {
                log.errors.push(format!("during warm-up: {wrong}"));
            }
            continue;
        }
        log.attempted += 1;
        log.failed += u64::from(outcome.failed);
        log.errors.extend(outcome.wrong);
        log.ops.push(Op {
            kind: outcome.kind,
            start_s: (start - measure_from).as_secs_f64(),
            us: (end - start).as_secs_f64() * 1e6,
            cpu_us,
        });
    }
    log
}

fn check_golden(statement: &Statement, got: &ExecOutput) -> Option<String> {
    (got != &statement.golden).then(|| {
        format!(
            "{}: served {} tuples / {:?}, expected {} / {:?}",
            statement.name,
            got.tuples.len(),
            got.stats,
            statement.golden.tuples.len(),
            statement.golden.stats
        )
    })
}

fn hot_reads(served: &Served, seed: u64, timing: Timing, yardstick: &mut Yardstick) -> Window {
    let mut rng = Rng::new(seed, 0);
    client_loop(timing, 1, yardstick, |_| {
        let statement = &served.statements[rng.below(served.statements.len())];
        Outcome::read(
            served
                .server
                .execute(&statement.name)
                .map(|response| check_golden(statement, &response.output))
                .map_err(|e| format!("{}: {e}", statement.name)),
        )
    })
}

fn adhoc_reads(
    scenario: &Scenario,
    served: &Served,
    timing: Timing,
    yardstick: &mut Yardstick,
) -> Window {
    let adhoc = scenario
        .adhoc
        .as_ref()
        .expect("the scenario has ad-hoc texts");
    let engine = served.server.engine();
    let mut kept = Vec::new();
    let mut log = client_loop(timing, 1, yardstick, |i| {
        let text = adhoc.text(i);
        Outcome::read(
            engine
                .session()
                .query(text.as_str())
                .map(|output| {
                    let scanned = output.stats.scanned_tuples;
                    if i % ADHOC_KEEP_EVERY == 0 && kept.len() < ADHOC_KEEP_CAP {
                        kept.push((text.clone(), output));
                    }
                    (scanned > 0).then(|| format!("{text}: scanned {scanned} base tuples"))
                })
                .map_err(|e| format!("{text}: {e}")),
        )
    });
    log.kept = kept;
    log
}

/// The state the churn loop carries between operations, shared with the
/// traced pass: where the write cycle stands, and what the reads that follow
/// a write must see.
pub struct Churn<'a> {
    scenario: &'a Scenario,
    served: &'a Served,
    next_write: usize,
    /// The last write, until the first read after it has checked it.
    unchecked: Option<(&'a Write, Option<u64>)>,
}

impl<'a> Churn<'a> {
    pub fn new(scenario: &'a Scenario, served: &'a Served) -> Churn<'a> {
        Churn {
            scenario,
            served,
            next_write: 0,
            unchecked: None,
        }
    }

    /// The write the next call to [`Churn::note_written`] accounts for.
    pub fn upcoming(&self) -> &'a Write {
        &self.scenario.writes[self.next_write % self.scenario.writes.len()]
    }

    fn view_epoch(&self, view: &str) -> Option<u64> {
        let session = self.served.server.engine().session();
        session.views().extent(view).map(|extent| extent.epoch())
    }

    /// The epoch of the upcoming write's frozen view, to be read *before*
    /// the write is applied.
    pub fn frozen_epoch(&self) -> Option<u64> {
        self.upcoming()
            .frozen_view
            .and_then(|view| self.view_epoch(view))
    }

    /// Record that the upcoming write was applied and acknowledged.
    pub fn note_written(&mut self, frozen_epoch_before: Option<u64>) {
        self.unchecked = Some((self.upcoming(), frozen_epoch_before));
        self.next_write += 1;
    }

    /// True while a written tuple that changes answers is present: reads of
    /// statements other than the target then skip the golden comparison
    /// (another statement may legitimately see the tuple too).
    fn answers_moved(&self) -> bool {
        let cycle = &self.scenario.writes;
        self.next_write > 0 && {
            let last = &cycle[(self.next_write - 1) % cycle.len()];
            last.insert && last.adds.is_some()
        }
    }

    /// The statement to read next: the last write's target until it was
    /// checked, a uniform pick afterwards.
    pub fn next_read(&self, rng: &mut Rng) -> usize {
        match self.unchecked {
            Some((write, _)) => write.target,
            None => rng.below(self.served.statements.len()),
        }
    }

    /// Check a read of statement `k`: read-your-writes on the first read
    /// after a write, the golden answer otherwise.
    pub fn check_read(&mut self, k: usize, got: &ExecOutput) -> Option<String> {
        let statement = &self.served.statements[k];
        let Some((write, frozen_before)) = self.unchecked.take() else {
            return if self.answers_moved() {
                None
            } else {
                check_golden(statement, got)
            };
        };
        debug_assert_eq!(k, write.target);
        let mut expected = statement.golden.tuples.clone();
        if let (true, Some(added)) = (write.insert, &write.adds) {
            expected.push(added.clone());
            expected.sort();
        }
        if got.tuples != expected {
            return Some(format!(
                "{}: first read after {} {}{} has {} tuples, expected {}",
                statement.name,
                if write.insert { "insert" } else { "remove" },
                write.relation,
                write.tuple,
                got.tuples.len(),
                expected.len()
            ));
        }
        let view = write.frozen_view?;
        let after = self.view_epoch(view);
        (after != frozen_before).then(|| {
            format!(
                "{view}: epoch moved {frozen_before:?} -> {after:?} on a write outside the view"
            )
        })
    }

    /// Apply the upcoming write through `Server::mutate`.
    fn write_through_server(&mut self) -> Result<(), String> {
        let write = self.upcoming();
        let frozen = self.frozen_epoch();
        let (relation, tuple, insert) = (write.relation, write.tuple.clone(), write.insert);
        self.served
            .server
            .mutate(move |db| apply(db, relation, tuple, insert))
            .map_err(|e| format!("write to {relation}: {e}"))?;
        self.note_written(frozen);
        Ok(())
    }

    /// Undo an outstanding insert, so the instance is the generated one
    /// again.  Untimed; called after a window closes.
    fn settle(&mut self) -> Result<(), String> {
        self.unchecked = None;
        while !self.next_write.is_multiple_of(self.scenario.writes.len()) {
            self.write_through_server()?;
            self.unchecked = None;
        }
        Ok(())
    }
}

/// Apply one write to a database; a write that changes nothing is an error
/// (the cycle is built so every write changes exactly one tuple).
pub fn apply(
    db: &mut bqr_data::Database,
    relation: &str,
    tuple: bqr_data::Tuple,
    insert: bool,
) -> bqr_data::Result<()> {
    let changed = if insert {
        db.insert(relation, tuple)?
    } else {
        db.remove(relation, &tuple)?
    };
    assert!(changed, "a churn write must change the instance");
    Ok(())
}

fn churn(
    scenario: &Scenario,
    served: &Served,
    seed: u64,
    timing: Timing,
    yardstick: &mut Yardstick,
) -> Window {
    let mut state = Churn::new(scenario, served);
    let mut rng = Rng::new(seed, 0);
    // A write, then `reads_per_write` reads, the first of them of the
    // written group's statement; a cycle is every write of the scenario
    // once, each with its reads.
    let per_write = 1 + scenario.reads_per_write;
    let cycle = (scenario.writes.len() * per_write) as u64;
    let mut window = client_loop(timing, cycle, yardstick, |i| {
        if i.is_multiple_of(per_write as u64) {
            return Outcome::of(Kind::Write, state.write_through_server().map(|()| None));
        }
        let k = state.next_read(&mut rng);
        let name = &served.statements[k].name;
        Outcome::read(
            served
                .server
                .execute(name)
                .map(|response| state.check_read(k, &response.output))
                .map_err(|e| format!("{name}: {e}")),
        )
    });
    if let Err(e) = state.settle() {
        window.errors.push(e);
    }
    window
}

/// Run one untraced window of `mode`: one closed-loop client.  (The machine
/// has two cores of a shared host and the server four worker threads of its
/// own; a second client measured the scheduler, not the program.  One client
/// also makes the operation sequence, and with it every count the program
/// keeps, a function of the seed alone.)
pub fn run(
    mode: Mode,
    scenario: &Scenario,
    served: &Served,
    seed: u64,
    timing: Timing,
    yardstick: &mut Yardstick,
) -> Window {
    match mode {
        Mode::HotReads => hot_reads(served, seed, timing, yardstick),
        Mode::AdhocReads => adhoc_reads(scenario, served, timing, yardstick),
        Mode::Churn => churn(scenario, served, seed, timing, yardstick),
    }
}
