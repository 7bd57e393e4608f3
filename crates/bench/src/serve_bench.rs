//! The `serve` benchmark: a closed-loop traffic harness over
//! [`bqr_server::Server`] — N client threads each submit a request, wait for
//! its answer, and immediately submit the next, so the offered load adapts to
//! the server's service rate (the serving-systems methodology that avoids
//! coordinated omission by construction: every request's latency is
//! measured, and a slow server simply completes fewer requests).  Three
//! committed workloads (movies read-heavy, CDR read-heavy, CDR mixed
//! read/write) report p50/p99/max latency and throughput, plus a CDR write
//! burst comparing [`Engine::mutate_batch`](bqr_engine::Engine::mutate_batch)
//! against serial [`Engine::mutate`](bqr_engine::Engine::mutate) calls.
//! Shared by the harness's `serve` mode, which persists `BENCH_serve.json`
//! and gates each row's p99 latency and the batched-write speedup.

use bqr_engine::Engine;
use bqr_server::{Pending, Server, ServerConfig};
use bqr_workload::{cdr, movies};
use std::time::Instant;

/// A write issued by a closed-loop client: `(server, client, round)` →
/// the pending acknowledgement.
type WriteFn = Box<dyn Fn(&Server, usize, usize) -> Pending<()> + Send + Sync>;

/// One closed-loop serving workload.
pub struct ServeCase {
    pub name: &'static str,
    pub server: Server,
    /// Prepared statement names the clients round-robin over.
    pub reads: Vec<&'static str>,
    pub clients: usize,
    pub iters_per_client: usize,
    /// Every `write_every`-th request per client is a write
    /// (`0` = read-only).
    pub write_every: usize,
    write: Option<WriteFn>,
    /// The harness's tail gate at the committed scale: p99 latency may
    /// not exceed this many microseconds.
    pub p99_gate_us: u64,
}

/// The measured result of one closed-loop workload.
#[derive(Debug, Clone)]
pub struct ServeResult {
    pub name: &'static str,
    pub clients: usize,
    /// Requests fulfilled (`= clients × iters`, asserted: a closed loop
    /// under the default admission limits never rejects or drops).
    pub requests: u64,
    pub writes: u64,
    pub coalesced_reads: u64,
    pub elapsed_ms: f64,
    pub throughput_rps: f64,
    pub p50_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
    pub p99_gate_us: u64,
}

/// The tail gates, in absolute terms (a gate relative to p50 tightens
/// silently whenever p50 improves).  The read-only rows may not exceed
/// the p99 they had under the fixed 1 ms batch window the server no
/// longer has.  The mixed row's tail is write publishes — a write that
/// just misses a group commit waits for that publish and its own, so
/// its p99 swings from run to run (0.5–4.1 ms over ten takes on a 2-core
/// container; 4.5–25 ms when the row was first committed, before the
/// data layer's cheaper writes) — and may not exceed twice the 19 455 µs
/// it was first committed at: twice the current committed p99 would fail
/// takes of the same code.  A fairness or lost-wakeup bug in the serving
/// front shows up here as an unbounded tail.
pub const MOVIES_READ_P99_GATE_US: u64 = 2_191;
pub const CDR_READ_P99_GATE_US: u64 = 3_522;
pub const CDR_MIXED_P99_GATE_US: u64 = 38_910;

/// The write-burst gate: committing a burst through
/// [`Engine::mutate_batch`](bqr_engine::Engine::mutate_batch) (one
/// delta-tracked publish) must be at least this much faster than the
/// same closures through serial `mutate` calls (one publish each).
pub const BATCHED_WRITE_MIN_SPEEDUP: f64 = 2.0;

/// The batch-linearity gate: a burst of [`LARGE_BURST_OPS`] closures
/// through one `mutate_batch` may cost at most this many times as much per
/// closure as the [`BURST_OPS`] burst.  When each closure's isolation
/// copied the batch's delta so far, a batch was quadratic: 7.0 µs per
/// closure at 64, 41.4 µs at 1 024.
pub const BATCHED_PER_OP_MAX_GROWTH: f64 = 2.0;

/// Scale knobs, so the committed rows and the reduced debug-mode tests
/// share one code path.
pub struct ServeScale {
    pub movies_persons: usize,
    pub cdr_customers: usize,
    pub cdr_days: usize,
    pub clients: usize,
    pub iters_per_client: usize,
}

/// The committed scale: 8 closed-loop clients per row.
pub fn committed_scale() -> ServeScale {
    ServeScale {
        movies_persons: 8_000,
        cdr_customers: 10_000,
        cdr_days: 14,
        clients: 8,
        iters_per_client: 100,
    }
}

/// A reduced scale for debug-mode tests.
pub fn reduced_scale() -> ServeScale {
    ServeScale {
        movies_persons: 500,
        cdr_customers: 400,
        cdr_days: 3,
        clients: 2,
        iters_per_client: 6,
    }
}

fn serve_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    }
}

fn cdr_engine(scale: &ServeScale, db: &bqr_data::Database) -> Engine {
    let setting = cdr::setting(
        &cdr::CdrScale {
            customers: scale.cdr_customers,
            days: scale.cdr_days,
            ..cdr::CdrScale::default()
        },
        120,
    );
    let mut builder = Engine::builder().setting(setting).cache_capacity(16);
    for (view, bound) in cdr::view_bounds() {
        builder = builder.annotate_view_bound(view, bound);
    }
    let engine = builder.build().expect("CDR engine builds");
    engine.attach(db.clone()).expect("attach CDR");
    engine
}

/// Prepare every topped CDR template on `server`; returns their names.
fn prepare_cdr_reads(server: &Server) -> Vec<&'static str> {
    let reads: Vec<&'static str> = cdr::workload(17, 3)
        .into_iter()
        .filter(|q| server.prepare(q.name, q.query.clone()).is_ok())
        .map(|q| q.name)
        .collect();
    assert!(
        reads.len() >= 3,
        "the CDR workload must contribute at least 3 topped templates"
    );
    reads
}

/// The closed-loop workloads at the given scale.
pub fn cases_with(scale: &ServeScale) -> Vec<ServeCase> {
    let mut out = Vec::new();

    // Movies read-heavy: every client hammers the Fig. 1 rewriting, so
    // all concurrent requests coalesce into shared flushes.
    let engine = Engine::builder()
        .setting(movies::setting(100, 40))
        .cache_capacity(16)
        .build()
        .expect("movies engine builds");
    engine
        .attach(movies::generate(movies::MovieScale {
            persons: scale.movies_persons,
            movies: (scale.movies_persons / 4).max(50),
            n0: 100,
            seed: 1,
        }))
        .expect("attach movies");
    let server = Server::with_config(engine, serve_config());
    server
        .prepare("fig1", movies::q_xi())
        .expect("movies rewriting is topped");
    out.push(ServeCase {
        name: "movies_read_heavy",
        server,
        reads: vec!["fig1"],
        clients: scale.clients,
        iters_per_client: scale.iters_per_client,
        write_every: 0,
        write: None,
        p99_gate_us: MOVIES_READ_P99_GATE_US,
    });

    // CDR: one generated instance feeds both the read-heavy and the
    // mixed row, so the two rows serve identical data.
    let db = cdr::generate(cdr::CdrScale {
        customers: scale.cdr_customers,
        days: scale.cdr_days,
        ..cdr::CdrScale::default()
    });

    let server = Server::with_config(cdr_engine(scale, &db), serve_config());
    let reads = prepare_cdr_reads(&server);
    out.push(ServeCase {
        name: "cdr_read_heavy",
        server,
        reads,
        clients: scale.clients,
        iters_per_client: scale.iters_per_client,
        write_every: 0,
        write: None,
        p99_gate_us: CDR_READ_P99_GATE_US,
    });

    // CDR mixed: every 4th request per client inserts a fresh premium
    // customer (touching the `customer` key index and the `V_premium`
    // view), concurrent with the reads.
    let server = Server::with_config(cdr_engine(scale, &db), serve_config());
    let reads = prepare_cdr_reads(&server);
    let write: WriteFn = Box::new(|server, client, round| {
        let cid = 5_000_000 + (client as i64) * 1_000_000 + round as i64;
        server.submit_mutate(move |db| {
            db.insert(
                "customer",
                bqr_data::tuple![cid, format!("load{client}_{round}"), "premium", "north"],
            )
            .map(drop)
        })
    });
    out.push(ServeCase {
        name: "cdr_mixed",
        server,
        reads,
        clients: scale.clients,
        iters_per_client: scale.iters_per_client,
        write_every: 4,
        write: Some(write),
        p99_gate_us: CDR_MIXED_P99_GATE_US,
    });
    out
}

/// The committed workloads.
pub fn cases() -> Vec<ServeCase> {
    cases_with(&committed_scale())
}

/// Drive one workload: `clients` scoped threads, each in a closed loop of
/// `iters_per_client` requests.  Read-only rows verify every answer
/// bit-identical (tuples and `FetchStats`) to a direct session execution
/// captured before the loop; mixed rows assert success (their answers
/// legitimately evolve under the concurrent writes — the umbrella stress
/// test pins their consistency).  Completion is asserted exact: a closed
/// loop under default admission limits rejects and drops nothing.
pub fn run_case(case: &ServeCase) -> ServeResult {
    let goldens: Vec<bqr_plan::ExecOutput> = case
        .reads
        .iter()
        .map(|name| {
            case.server
                .engine()
                .session()
                .execute(name)
                .expect("golden execution")
        })
        .collect();

    let t = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..case.clients {
            let server = &case.server;
            let reads = &case.reads;
            let goldens = &goldens;
            let write = case.write.as_ref();
            scope.spawn(move || {
                for round in 0..case.iters_per_client {
                    let is_write = case.write_every > 0 && (round + 1) % case.write_every == 0;
                    if is_write {
                        let w = write.expect("write workloads carry a write fn");
                        w(server, client, round).wait().expect("write serves");
                    } else {
                        let pick = (client + round) % reads.len();
                        let got = server.execute(reads[pick]).expect("read serves");
                        if case.write_every == 0 {
                            assert_eq!(
                                got.output, goldens[pick],
                                "served answer diverged on {}",
                                reads[pick]
                            );
                        }
                    }
                }
            });
        }
    });
    let elapsed_ms = t.elapsed().as_secs_f64() * 1_000.0;
    case.server.drain();

    let stats = case.server.stats();
    let total = (case.clients * case.iters_per_client) as u64;
    assert_eq!(
        stats.completed, total,
        "{}: a request was dropped",
        case.name
    );
    assert_eq!(
        stats.rejected, 0,
        "{}: a closed loop never rejects",
        case.name
    );
    ServeResult {
        name: case.name,
        clients: case.clients,
        requests: stats.completed,
        writes: stats.writes,
        coalesced_reads: stats.coalesced_reads,
        elapsed_ms,
        throughput_rps: crate::guarded_ratio(total as f64, elapsed_ms / 1_000.0),
        p50_us: stats.p50_us,
        p99_us: stats.p99_us,
        max_us: stats.max_us,
        p99_gate_us: case.p99_gate_us,
    }
}

/// The measured result of the write burst.
#[derive(Debug, Clone)]
pub struct WriteBurstResult {
    pub name: &'static str,
    pub ops: usize,
    /// Total ms for `ops` serial `mutate` calls (one publish each).
    pub serial_ms: f64,
    /// Total ms for one `mutate_batch` of the same closures (one publish).
    pub batched_ms: f64,
}

impl WriteBurstResult {
    /// serial / batched — what one publish per burst saves.
    pub fn speedup(&self) -> f64 {
        crate::guarded_ratio(self.serial_ms, self.batched_ms)
    }

    /// What one closure of the batched burst cost, in µs.
    pub fn batched_us_per_op(&self) -> f64 {
        self.batched_ms * 1_000.0 / self.ops.max(1) as f64
    }

    fn json(&self) -> String {
        format!(
            "{{\"name\": \"{}\", \"ops\": {}, \"serial_ms\": {:.3}, \"batched_ms\": {:.3}, \"batched_us_per_op\": {:.2}, \"speedup\": {:.1}",
            self.name,
            self.ops,
            self.serial_ms,
            self.batched_ms,
            self.batched_us_per_op(),
            self.speedup(),
        )
    }
}

/// The CDR write burst: insert `ops` fresh premium customers through
/// serial `mutate` calls on one engine and through a single
/// `mutate_batch` on an identical engine, then assert the two engines
/// are bit-identical (database and every view extent) — the benchmark
/// doubles as a differential test of the batched write path.
pub fn run_write_burst(scale: &ServeScale, ops: usize) -> WriteBurstResult {
    let db = cdr::generate(cdr::CdrScale {
        customers: scale.cdr_customers,
        days: scale.cdr_days,
        ..cdr::CdrScale::default()
    });
    let insert = |i: usize| {
        move |db: &mut bqr_data::Database| {
            let cid = 6_000_000 + i as i64;
            db.insert(
                "customer",
                bqr_data::tuple![cid, format!("burst{i}"), "premium", "north"],
            )
            .map(drop)
        }
    };
    // Warm each engine with one mutate first, so the first-write
    // copy-on-write fork and lazy interning are off both clocks.
    let warmup = |engine: &Engine| {
        engine
            .mutate(|db| {
                db.insert(
                    "customer",
                    bqr_data::tuple![5_999_999, "burst_warm", "premium", "north"],
                )
                .map(drop)
            })
            .expect("warmup insert");
    };

    let serial = cdr_engine(scale, &db);
    warmup(&serial);
    let t = Instant::now();
    for i in 0..ops {
        serial.mutate(insert(i)).expect("serial insert");
    }
    let serial_ms = t.elapsed().as_secs_f64() * 1_000.0;

    let batched = cdr_engine(scale, &db);
    warmup(&batched);
    let t = Instant::now();
    let outcomes = batched
        .mutate_batch((0..ops).map(insert))
        .expect("batched publish");
    let batched_ms = t.elapsed().as_secs_f64() * 1_000.0;
    assert!(outcomes.iter().all(Result::is_ok), "every closure applies");

    // Differential gate: the fast path must not drift from the serial
    // baseline.
    let a = serial.session();
    let b = batched.session();
    assert_eq!(
        a.database(),
        b.database(),
        "write burst: databases diverged"
    );
    for view in a.views().names() {
        assert_eq!(
            a.views().extent(view),
            b.views().extent(view),
            "write burst: view extent `{view}` diverged"
        );
    }

    WriteBurstResult {
        name: "cdr_write_burst_premium",
        ops,
        serial_ms,
        batched_ms,
    }
}

/// How many writes the committed burst row commits per side.
pub const BURST_OPS: usize = 64;

/// How many the large burst row commits per side: enough for a per-closure
/// cost that grows with the batch to show against [`BURST_OPS`].
pub const LARGE_BURST_OPS: usize = 1_024;

/// Run every workload plus the two write bursts ([`BURST_OPS`] and
/// [`LARGE_BURST_OPS`] closures) and render the machine-readable report
/// committed as `BENCH_serve.json`.
pub fn report() -> (Vec<ServeResult>, [WriteBurstResult; 2], String) {
    let results: Vec<ServeResult> = cases().iter().map(run_case).collect();
    let burst = run_write_burst(&committed_scale(), BURST_OPS);
    let large = WriteBurstResult {
        name: "cdr_write_burst_premium_1024",
        ..run_write_burst(&committed_scale(), LARGE_BURST_OPS)
    };
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"unit\": \"us\",\n  \"threads_available\": {threads},\n  \"workloads\": [\n"
    );
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"clients\": {}, \"requests\": {}, \"writes\": {}, \"coalesced_reads\": {}, \"elapsed_ms\": {:.1}, \"throughput_rps\": {:.0}, \"p50_us\": {}, \"p99_us\": {}, \"max_us\": {}, \"p99_gate_us\": {}}}{}\n",
            r.name,
            r.clients,
            r.requests,
            r.writes,
            r.coalesced_reads,
            r.elapsed_ms,
            r.throughput_rps,
            r.p50_us,
            r.p99_us,
            r.max_us,
            r.p99_gate_us,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"write_burst\": {}, \"min_speedup\": {:.1}}},\n  \"write_burst_large\": {}, \"max_batched_us_per_op\": {:.2}}}\n}}\n",
        burst.json(),
        BATCHED_WRITE_MIN_SPEEDUP,
        large.json(),
        BATCHED_PER_OP_MAX_GROWTH * burst.batched_us_per_op(),
    ));
    (results, [burst, large], json)
}
