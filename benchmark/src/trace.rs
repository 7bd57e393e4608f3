//! The traced pass: one thread, a fixed number of operations, a span around
//! the public call into each layer.
//!
//! The program records no spans of its own yet, so one logical operation is
//! *re-issued* at each layer boundary, outermost first — `Server::execute`,
//! then `Session::execute`, then `PreparedPlan::execute_guarded` — and the
//! spans share an `op_id`, each naming the span one layer up as its parent.
//! The `plan`, `data` and `query` stages run on the benchmark's own
//! [`Replica`] of the engine's private `DataVersion`, replaying exactly the
//! calls `DataVersion::build` and `DataVersion::apply_delta` make.

use crate::drive::{apply, Churn, Mode};
use crate::report::Metric;
use crate::scenario::{Scenario, Served, Write};
use crate::util::{median, percentile, Rng};
use bqr_core::{BoundedOutputOracle, ToppedChecker};
use bqr_data::{Database, FetchStats, IndexedDatabase};
use bqr_plan::{ExecOptions, ExecOutput, Guard, Pipeline, PipelineCache, PreparedPlan};
use bqr_query::parser::{parse_cq, parse_ucq};
use bqr_query::MaterializedViews;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// One timed call into a layer.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op_id: u64,
}

/// Spans are kept in memory and written out when the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Time `f` as one span; returns the span's id and what `f` returned.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op_id: u64,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
            parent,
            op_id,
        });
        (self.spans.len() - 1, out)
    }

    fn micros(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    fn last_micros(&self, id: usize) -> f64 {
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 / 1e3
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.op_id,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push(']');
        out
    }
}

/// The benchmark's own copy of what the engine keeps private: an indexed
/// instance, the view extents over it, and a pipeline cache with prepared
/// plans for every statement.  It is generated separately (fresh relation
/// epochs), so nothing it interns is shared with the engine.
struct Replica<'a> {
    scenario: &'a Scenario,
    idb: IndexedDatabase,
    views: MaterializedViews,
    cache: Arc<PipelineCache>,
    plans: Vec<PreparedPlan>,
    options: ExecOptions,
    materialize_s: f64,
    index_build_s: f64,
}

impl<'a> Replica<'a> {
    /// The calls of `DataVersion::build`, timed one by one.
    fn build(scenario: &'a Scenario, served: &Served, db: Database) -> Replica<'a> {
        let t0 = Instant::now();
        let views = scenario
            .setting
            .views
            .materialize(&db)
            .expect("views materialise");
        let t1 = Instant::now();
        let idb = IndexedDatabase::build(db, scenario.setting.access.clone())
            .expect("access indexes build");
        let t2 = Instant::now();
        let cache = Arc::new(PipelineCache::new(
            bqr_plan::prepared::DEFAULT_CACHE_CAPACITY,
        ));
        let engine = served.server.engine();
        let plans = served
            .statements
            .iter()
            .map(|s| {
                let plan = engine.statement(&s.name).expect("prepared").plan().clone();
                PreparedPlan::with_cache(plan, Arc::clone(&cache))
            })
            .collect();
        let replica = Replica {
            scenario,
            idb,
            views,
            cache,
            plans,
            options: engine.exec_options(),
            materialize_s: (t1 - t0).as_secs_f64(),
            index_build_s: (t2 - t1).as_secs_f64(),
        };
        // Finish lazy interning, as the engine's first-touch pass did.
        for (k, statement) in served.statements.iter().enumerate() {
            assert_eq!(
                replica.execute(k),
                statement.golden,
                "replica diverged on {}",
                statement.name
            );
        }
        replica
    }

    fn execute(&self, k: usize) -> ExecOutput {
        let guard = Guard::new(&self.options.limits);
        self.plans[k]
            .execute_guarded(&self.idb, &self.views, &self.options, &guard)
            .expect("replica execution")
    }

    /// The calls of `Engine::mutate` + `DataVersion::apply_delta` for one
    /// write, a span around each.
    fn write(&mut self, tracer: &mut Tracer, parent: usize, op_id: u64, write: &Write) {
        let parent = Some(parent);
        let (_, mut db) = tracer.span("data.fork", parent, op_id, || {
            let mut db = self.idb.database().clone();
            db.begin_delta_tracking();
            apply(&mut db, write.relation, write.tuple.clone(), write.insert)
                .expect("replica write");
            db
        });
        let (_, delta) = tracer.span("data.take_delta", parent, op_id, || {
            db.take_delta(self.idb.database())
        });
        let (_, idb) = tracer.span("data.apply_delta", parent, op_id, || {
            self.idb.apply_delta(db, &delta).expect("replica re-index")
        });
        let (_, views) = tracer.span("query.maintain", parent, op_id, || {
            bqr_query::maintain::maintain(
                &self.scenario.setting.views,
                &self.views,
                self.idb.database(),
                idb.database(),
                &delta,
            )
            .expect("replica view maintenance")
        });
        // The engine drops the superseded version when it swaps the new one
        // in; that is part of what a write costs.
        tracer.span("data.release", parent, op_id, || {
            self.idb = idb;
            self.views = views;
        });
    }
}

/// Sums of the `FetchStats` of every traced read, and of fetched ÷ bound.
#[derive(Default)]
struct Fetches {
    reads: u64,
    stats: FetchStats,
    utilisation: f64,
}

impl Fetches {
    fn add(&mut self, output: &ExecOutput, fetch_bound: usize) {
        self.reads += 1;
        self.stats.merge(&output.stats);
        self.utilisation += output.stats.fetched_tuples as f64 / fetch_bound.max(1) as f64;
    }

    fn per_read(&self, total: usize) -> f64 {
        total as f64 / self.reads.max(1) as f64
    }
}

/// The server- and engine-side half of one traced read, kept until the
/// replica replays it.
struct OuterRead {
    op_id: u64,
    k: usize,
    /// The `engine.read` span: the parent of the replica's `plan.exec`.
    span: usize,
    output: ExecOutput,
}

/// The server- and engine-side half of one traced churn cycle.
struct OuterWrite<'a> {
    op_id: u64,
    write: &'a Write,
    /// The `server.mutate` / `engine.mutate` span: the parent of the stages.
    span: usize,
    after_write: ExecOutput,
    reads: Vec<OuterRead>,
}

struct Pass<'a> {
    served: &'a Served,
    tracer: Tracer,
    fetches: Fetches,
    next_op: u64,
    attempted: u64,
    errors: Vec<String>,
    /// First execution after a write, minus its compile, minus the same
    /// statement's warm execution, per write (µs).
    reindex_us: Vec<f64>,
}

impl<'a> Pass<'a> {
    fn new(served: &'a Served) -> Pass<'a> {
        Pass {
            served,
            tracer: Tracer::new(),
            fetches: Fetches::default(),
            next_op: 0,
            attempted: 0,
            errors: Vec::new(),
            reindex_us: Vec::new(),
        }
    }

    fn op(&mut self) -> u64 {
        self.next_op += 1;
        self.attempted += 1;
        self.next_op
    }

    /// A prepared read through the server, then through a session.
    fn outer_read(&mut self, k: usize) -> Option<OuterRead> {
        let op_id = self.op();
        let statement = &self.served.statements[k];
        let server = &self.served.server;
        let (a, served) = self.tracer.span("server.read", None, op_id, || {
            server.execute(&statement.name)
        });
        let (span, direct) = self.tracer.span("engine.read", Some(a), op_id, || {
            server.engine().session().execute(&statement.name)
        });
        match (served, direct) {
            (Ok(served), Ok(direct)) => {
                if served.output != direct {
                    self.errors
                        .push(format!("{}: server and session disagree", statement.name));
                }
                self.fetches.add(&direct, statement.fetch_bound);
                Some(OuterRead {
                    op_id,
                    k,
                    span,
                    output: direct,
                })
            }
            (served, direct) => {
                self.errors.push(format!(
                    "{}: {:?} / {:?}",
                    statement.name,
                    served.err(),
                    direct.err()
                ));
                None
            }
        }
    }

    /// The same read on the replica; returns its warm `plan.exec` time.
    fn inner_read(&mut self, replica: &Replica, outer: &OuterRead) -> f64 {
        let (id, replayed) = self
            .tracer
            .span("plan.exec", Some(outer.span), outer.op_id, || {
                replica.execute(outer.k)
            });
        if replayed != outer.output {
            let name = &self.served.statements[outer.k].name;
            self.errors
                .push(format!("{name}: engine and replica disagree"));
        }
        self.tracer.last_micros(id)
    }

    fn hot_reads(&mut self, replica: &Replica, seed: u64, ops: usize) {
        let mut rng = Rng::new(seed, 0x7ACE);
        for _ in 0..ops {
            let k = rng.below(self.served.statements.len());
            let Some(outer) = self.outer_read(k) else {
                continue;
            };
            self.inner_read(replica, &outer);
            if outer.output != self.served.statements[k].golden {
                let name = &self.served.statements[k].name;
                self.errors.push(format!("{name}: not the golden answer"));
            }
        }
    }

    /// One ad-hoc query at every layer: `Session::query`, then the calls it
    /// makes — parse, analyse, compile on a cold key, execute.
    fn adhoc_reads(&mut self, replica: &Replica, scenario: &Scenario, ops: usize) {
        let adhoc = scenario.adhoc.as_ref().expect("ad-hoc texts");
        let engine = self.served.server.engine();
        let mut oracle = BoundedOutputOracle::new(
            scenario.setting.schema.clone(),
            scenario.setting.access.clone(),
            scenario.setting.budget,
        );
        for (view, bound) in &scenario.view_bounds {
            oracle.annotate_view(*view, *bound);
        }
        let checker = ToppedChecker::with_oracle(&scenario.setting, oracle);
        for i in 0..ops {
            let op_id = self.op();
            // Texts the untraced window (which counts up from 0) never used.
            let text = adhoc.text(u64::MAX / 2 + i as u64);
            let tracer = &mut self.tracer;
            let (parent, answer) = tracer.span("engine.query", None, op_id, || {
                engine.session().query(text.as_str())
            });
            let parent = Some(parent);
            tracer.span("query.parse", parent, op_id, || {
                parse_ucq(&text).expect("ad-hoc text parses")
            });
            let cq = parse_cq(&text).expect("ad-hoc text parses");
            let (_, analysis) = tracer.span("core.analyze", parent, op_id, || {
                checker.analyze_cq(&cq).expect("ad-hoc query analyses")
            });
            let plan = analysis.plan.expect("ad-hoc templates are topped");
            let (_, pipeline) = tracer.span("plan.compile", parent, op_id, || {
                PreparedPlan::with_cache(plan, Arc::clone(&replica.cache))
                    .pipeline(&replica.idb, &replica.views, &replica.options)
                    .expect("ad-hoc plan compiles")
            });
            let (_, replayed) = tracer.span("plan.exec", parent, op_id, || {
                let guard = Guard::new(&replica.options.limits);
                pipeline
                    .execute_guarded(&replica.idb, &replica.options, &guard)
                    .expect("ad-hoc plan executes")
            });
            match answer {
                Ok(answer) => {
                    if answer != replayed {
                        self.errors
                            .push(format!("{text}: engine and replica disagree"));
                    }
                    self.fetches.add(&answer, analysis.fetch_bound.unwrap_or(1));
                }
                Err(e) => self.errors.push(format!("{text}: {e}")),
            }
        }
    }

    /// The engine's half of the churn cycles: the write, the stalled first
    /// read of its target, three warm reads.  Cycles alternate between
    /// entering through `Server::mutate` and `Engine::mutate`, so both get
    /// samples of every write of the cycle.
    ///
    /// The replica replays the cycles afterwards rather than in step: two
    /// million-tuple instances forking and freeing in turn disturb each
    /// other's allocations enough to triple a write.
    fn churn_outer(
        &mut self,
        scenario: &'a Scenario,
        seed: u64,
        writes: usize,
    ) -> Vec<OuterWrite<'a>> {
        // Whole cycles only, so the pass ends on the generated instance.
        assert_eq!(writes % scenario.writes.len(), 0);
        let served = self.served;
        let mut state = Churn::new(scenario, served);
        let mut rng = Rng::new(seed, 0x7ACE);
        let mut outer = Vec::new();
        for w in 0..writes {
            let op_id = self.op();
            let write = state.upcoming();
            let via_server = (w / scenario.writes.len()).is_multiple_of(2);
            let frozen = state.frozen_epoch();
            let (relation, tuple, insert) = (write.relation, write.tuple.clone(), write.insert);
            let (span, result) = if via_server {
                self.tracer.span("server.mutate", None, op_id, || {
                    served
                        .server
                        .mutate(move |db| apply(db, relation, tuple, insert))
                        .map_err(|e| e.to_string())
                })
            } else {
                self.tracer.span("engine.mutate", None, op_id, || {
                    served
                        .server
                        .engine()
                        .mutate(|db| apply(db, relation, tuple, insert))
                        .map_err(|e| e.to_string())
                })
            };
            if let Err(e) = result {
                self.errors.push(format!("write to {relation}: {e}"));
                break;
            }
            state.note_written(frozen);

            // The first read of the target on the new version: the stall a
            // client sees, and the read-your-writes check.
            let name = &served.statements[write.target].name;
            let (_, stalled) =
                self.tracer
                    .span("server.read_after_write", Some(span), op_id, || {
                        served.server.execute(name)
                    });
            let after_write = match stalled {
                Ok(response) => response.output,
                Err(e) => {
                    self.errors.push(format!("{name}: {e}"));
                    break;
                }
            };
            self.errors
                .extend(state.check_read(write.target, &after_write));

            // Warm reads: the target again, then two uniform picks.
            let mut reads = Vec::new();
            for position in 0..3 {
                let k = if position == 0 {
                    write.target
                } else {
                    state.next_read(&mut rng)
                };
                let Some(read) = self.outer_read(k) else {
                    continue;
                };
                if position == 0 && read.output != after_write {
                    self.errors
                        .push(format!("{name}: warm read differs from the first"));
                }
                self.errors.extend(state.check_read(k, &read.output));
                reads.push(read);
            }
            outer.push(OuterWrite {
                op_id,
                write,
                span,
                after_write,
                reads,
            });
        }
        outer
    }

    /// The replica's half: each write stage by stage, the first touch of the
    /// new version, and the warm reads.
    fn churn_inner(&mut self, replica: &mut Replica, outer: Vec<OuterWrite>) {
        for cycle in outer {
            let (op_id, parent, target) = (cycle.op_id, Some(cycle.span), cycle.write.target);
            replica.write(&mut self.tracer, cycle.span, op_id, cycle.write);

            // First touch: everything the write left to be rebuilt lazily, a
            // recompile when it moved an epoch the plan reads, and the
            // execution.  Compiling once more, uncached, on the now-warm
            // data gives the compile's own cost.
            let misses = replica.cache.stats().misses;
            let (first_id, first) = self.tracer.span("plan.first_touch", parent, op_id, || {
                replica.execute(target)
            });
            let mut first_touch_us = self.tracer.last_micros(first_id);
            if replica.cache.stats().misses > misses {
                let plan = replica.plans[target].plan();
                let (id, _) = self.tracer.span("plan.compile", parent, op_id, || {
                    Pipeline::compile(plan, &replica.idb, &replica.views).expect("recompiles")
                });
                first_touch_us -= self.tracer.last_micros(id);
            }
            if first.tuples != cycle.after_write.tuples {
                let name = &self.served.statements[target].name;
                self.errors
                    .push(format!("{name}: engine and replica disagree after a write"));
            }
            for (position, read) in cycle.reads.iter().enumerate() {
                let warm_us = self.inner_read(replica, read);
                if position == 0 && read.k == target {
                    self.reindex_us.push(first_touch_us - warm_us);
                }
            }
        }
    }
}

/// How many operations the traced pass issues: a function of `--seconds`
/// alone (not of how fast the machine is), so that every count taken over
/// the pass repeats exactly for a seed.
fn traced_ops(mode: Mode, scenario: &Scenario, seconds: f64) -> usize {
    match mode {
        Mode::HotReads | Mode::AdhocReads => ((seconds * 150.0) as usize).clamp(40, 2_000),
        Mode::Churn => {
            // Whole cycles, an even number of them (server/engine entry
            // alternates by cycle).
            let cycle = scenario.writes.len();
            let cycles = ((seconds * scenario.traced_writes_per_s) as usize / cycle).clamp(2, 100);
            (cycles + cycles % 2) * cycle
        }
    }
}

/// What the traced run found.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub errors: Vec<String>,
    pub spans_json: String,
    /// `parent = Σ children + residual` lines, one per traced call.
    pub reconciliation: Vec<String>,
}

/// Run the traced pass of `mode` against the set-up program and a replica
/// built from `replica_db`, and derive every per-layer metric the pass can
/// measure (the caller adds the ones taken from the untraced window).
pub fn run(
    mode: Mode,
    scenario: &Scenario,
    served: &Served,
    replica_db: Database,
    seed: u64,
    seconds: f64,
) -> Traced {
    let engine = served.server.engine();
    let mut pass = Pass::new(served);
    if mode == Mode::Churn {
        // Two discarded cycles, one through each entry: the first forks a
        // thread runs grow its allocator arena, at several times the cost of
        // the forks that follow.
        let mut discarded = Pass::new(served);
        discarded.churn_outer(scenario, seed, 2 * scenario.writes.len());
        pass.errors = discarded.errors;
    }
    let cache_before = engine.cache_stats();
    let ops = traced_ops(mode, scenario, seconds);
    let replica = match mode {
        Mode::HotReads | Mode::AdhocReads => {
            let replica = Replica::build(scenario, served, replica_db);
            if mode == Mode::HotReads {
                pass.hot_reads(&replica, seed, ops);
            } else {
                pass.adhoc_reads(&replica, scenario, ops);
            }
            replica
        }
        Mode::Churn => {
            let outer = pass.churn_outer(scenario, seed, ops);
            let mut replica = Replica::build(scenario, served, replica_db);
            // One untraced cycle first: like the engine's, the replica's
            // first delta after a build anchors every relation's snapshot,
            // an O(|D|) cost the measured windows leave in their warm-up.
            let mut discarded = Tracer::new();
            for write in &scenario.writes {
                replica.write(&mut discarded, 0, 0, write);
            }
            pass.churn_inner(&mut replica, outer);
            replica
        }
    };
    let (materialize_s, index_build_s) = (replica.materialize_s, replica.index_build_s);
    let cache_after = engine.cache_stats();
    let tracer = &pass.tracer;

    let mut metrics = Vec::new();
    let mut timed = |metric: &'static str, span: &str| {
        let samples = tracer.micros(span);
        metrics.push(Metric::new(metric, median(&samples), "us", samples.len()));
        median(&samples)
    };
    let server_read = timed("server.read_us", "server.read");
    let engine_read = timed("engine.read_us", "engine.read");
    let engine_query = timed("engine.query_us", "engine.query");
    let server_mutate = timed("server.mutate_us", "server.mutate");
    let engine_mutate = timed("engine.mutate_us", "engine.mutate");
    timed("server.read_after_write_us", "server.read_after_write");
    let parse = timed("query.parse_us", "query.parse");
    let analyze = timed("core.analyze_us", "core.analyze");
    let compile = timed("plan.compile_us", "plan.compile");
    let exec = timed("plan.exec_us", "plan.exec");
    let fork = timed("data.fork_us", "data.fork");
    let take_delta = timed("data.take_delta_us", "data.take_delta");
    let apply_delta = timed("data.apply_delta_us", "data.apply_delta");
    let maintain = timed("query.maintain_us", "query.maintain");
    let release = timed("data.release_us", "data.release");
    let mutates = tracer.micros("server.mutate");
    metrics.push(Metric::new(
        "server.mutate_p90_us",
        percentile(&mutates, 90.0),
        "us",
        mutates.len(),
    ));
    metrics.push(Metric::new(
        "data.reindex_us",
        median(&pass.reindex_us),
        "us",
        pass.reindex_us.len(),
    ));

    // Self time: the parent's median minus the medians of the calls it
    // covers.  A parent the workload never issues has no self time.
    let mut reconciliation = Vec::new();
    let mut self_time = |metric: &'static str, parent: (&str, f64), children: &[f64]| {
        let covered: f64 = children.iter().sum();
        let own = if parent.1 > 0.0 {
            parent.1 - covered
        } else {
            0.0
        };
        metrics.push(Metric::new(metric, own, "us", 0));
        if parent.1 > 0.0 {
            reconciliation.push(format!(
                "{}: parent {:.1} us = children {:.1} us + self {:.1} us (self share {:.3})",
                parent.0,
                parent.1,
                covered,
                own,
                own / parent.1
            ));
        }
    };
    self_time(
        "server.read_self_us",
        ("server.read", server_read),
        &[engine_read],
    );
    self_time("engine.read_self_us", ("engine.read", engine_read), &[exec]);
    self_time(
        "engine.query_self_us",
        ("engine.query", engine_query),
        &[parse, analyze, compile, exec],
    );
    self_time(
        "server.mutate_self_us",
        ("server.mutate", server_mutate),
        &[engine_mutate],
    );
    self_time(
        "engine.mutate_self_us",
        ("engine.mutate", engine_mutate),
        &[fork, take_delta, apply_delta, maintain, release],
    );

    let lookups = cache_after.lookups - cache_before.lookups;
    let writes = tracer.micros("server.mutate").len() + tracer.micros("engine.mutate").len();
    let fetches = &pass.fetches;
    let reads = fetches.reads as usize;
    let mut counted = |name: &'static str, value: f64, unit: &'static str, n: usize| {
        metrics.push(Metric::new(name, value, unit, n));
    };
    counted(
        "plan.cache_hit_ratio",
        (cache_after.hits - cache_before.hits) as f64 / lookups.max(1) as f64,
        "ratio",
        lookups as usize,
    );
    counted(
        "plan.cache_invalidations_per_write",
        (cache_after.invalidations - cache_before.invalidations) as f64 / writes.max(1) as f64,
        "count",
        writes,
    );
    counted(
        "plan.cache_evictions",
        (cache_after.evictions - cache_before.evictions) as f64,
        "count",
        lookups as usize,
    );
    counted(
        "data.fetched_per_read",
        fetches.per_read(fetches.stats.fetched_tuples),
        "count",
        reads,
    );
    counted(
        "data.fetch_calls_per_read",
        fetches.per_read(fetches.stats.fetch_calls),
        "count",
        reads,
    );
    counted(
        "data.scanned_per_read",
        fetches.per_read(fetches.stats.scanned_tuples),
        "count",
        reads,
    );
    counted(
        "data.bound_utilisation",
        fetches.utilisation / fetches.reads.max(1) as f64,
        "ratio",
        reads,
    );
    counted("query.materialize_s", materialize_s, "s", 1);
    counted("data.index_build_s", index_build_s, "s", 1);
    if fetches.stats.scanned_tuples > 0 {
        pass.errors.push(format!(
            "bounded plans scanned {} base tuples",
            fetches.stats.scanned_tuples
        ));
    }

    Traced {
        metrics,
        attempted: pass.attempted,
        errors: pass.errors,
        spans_json: pass.tracer.to_json(),
        reconciliation,
    }
}
