//! Concurrency stress for the `bqr-server` serving front: many closed-loop
//! client threads over mixed prepared statements, with and without
//! concurrent mutations, plus overload and teardown consistency.
//!
//! The invariants pinned here:
//! * every served answer is **bit-identical** — tuples *and* `FetchStats` —
//!   to an unbatched direct [`Session`](bqr::Session) execution on a
//!   published version that was live between the request's submit and its
//!   response (the exact golden without writes; under concurrent writers the
//!   recorded history is replayed on a twin engine and held to
//!   `check_history`: no stale read, no read from the future, no client
//!   going backwards, no torn closure, writes applied in arrival order);
//! * batching still batches when there is someone to batch with;
//! * overload surfaces as typed [`ServerError::Overloaded`] rejections,
//!   never as a wrong or partial answer;
//! * a drained server leaves the engine's [`CacheStats`] and `GuardStats`
//!   consistent.

use bqr::data::{tuple, Database};
use bqr::plan::ExecOutput;
use bqr::query::eval::eval_cq;
use bqr::server::{Server, ServerConfig, ServerError};
use bqr::workload::movies::{self, MovieScale};
use bqr::Engine;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const Q_XI: &str = "Q(mid) :- movie(mid, ym, 'Universal', '2014'), V1(mid), rating(mid, 5)";
/// A point lookup whose answer grows under the stress writers (movie 10 is
/// rated 5 in the generated instance; the writers add ranks ≥ 11, so
/// `ranks_of_10` gains one tuple per committed write — as `fig1` does,
/// through a new row of `V1`'s extent).
const RANKS_OF_10: &str = "Q(r) :- rating(10, r)";
/// A product over the two relations every stress write inserts into: after
/// `k` writes it holds `k × (k + 1)` tuples, and an answer that saw one of a
/// closure's two inserts without the other equals no golden.
const PAIRS: &str = "Q(mid, r) :- movie(mid, ym, 'Stress', '2099'), rating(10, r)";

fn movie_engine() -> Engine {
    let engine = Engine::builder()
        .setting(movies::setting(100, 40))
        .cache_capacity(32)
        .build()
        .unwrap();
    engine
        .attach(movies::generate(MovieScale {
            persons: 800,
            movies: 300,
            n0: 50,
            seed: 7,
        }))
        .unwrap();
    engine
}

fn stress_config() -> ServerConfig {
    ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    }
}

const STATEMENTS: [&str; 3] = ["fig1", "ranks_of_10", "pairs"];
const QUERIES: [&str; 3] = [Q_XI, RANKS_OF_10, PAIRS];

fn prepare_statements(server: &Server) {
    for (name, query) in STATEMENTS.iter().zip(QUERIES) {
        server.prepare(name, query).unwrap();
    }
}

/// Phase 1 — no concurrent writes: 8 closed-loop clients round-robin the
/// statements and every response must be bit-identical (tuples and
/// `FetchStats`) to a direct, unbatched session execution captured up
/// front.  Afterwards the drained server's engine reports consistent cache
/// and guard counters.
#[test]
fn eight_clients_read_bit_identically_to_direct_sessions() {
    const CLIENTS: usize = 8;
    const ITERS: usize = 25;

    let server = Server::with_config(movie_engine(), stress_config());
    prepare_statements(&server);
    let goldens: Vec<_> = STATEMENTS
        .iter()
        .map(|name| server.engine().session().execute(name).unwrap())
        .collect();

    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let server = &server;
            let goldens = &goldens;
            scope.spawn(move || {
                for round in 0..ITERS {
                    let pick = (client + round) % STATEMENTS.len();
                    let response = server.execute(STATEMENTS[pick]).unwrap();
                    assert_eq!(
                        response.output, goldens[pick],
                        "served answer (tuples or FetchStats) diverged from the direct \
                         session execution of {}",
                        STATEMENTS[pick]
                    );
                }
            });
        }
    });
    server.drain();

    let stats = server.stats();
    assert_eq!(stats.completed, (CLIENTS * ITERS) as u64, "nothing dropped");
    assert_eq!(stats.rejected, 0, "default limits admit a closed loop");
    assert_eq!(stats.shed, 0);
    assert!(stats.read_batches >= 1);

    // Drained-server consistency: the pipeline cache accounted for every
    // lookup, and no guardrail tripped.
    let cache = server.engine().cache_stats();
    assert_eq!(cache.lookups, cache.hits + cache.misses);
    assert!(
        cache.lookups >= STATEMENTS.len() as u64,
        "every statement was compiled and served"
    );
    let guards = server.engine().guard_stats();
    assert_eq!(
        (
            guards.cancellations,
            guards.deadline_trips,
            guards.memory_trips,
            guards.fetch_trips,
        ),
        (0, 0, 0, 0),
        "no guardrail may trip under plain stress"
    );
}

/// A read as its client saw it: logical-clock stamps taken just before the
/// submit and just after the response, and the served answer.
struct ReadEvent {
    statement: usize,
    submit: u64,
    response: u64,
    answer: ExecOutput,
}

/// A write as its writer saw it: stamps just before `submit_mutate`, just
/// after it returned (the closure is queued), and just after the
/// acknowledgement.
#[derive(Clone, Copy)]
struct WriteEvent {
    submit: u64,
    queued: u64,
    ack: u64,
}

/// Check a recorded history against the golden chain.
///
/// `order` lists the write ids in the order their closures were applied
/// (recorded from inside the closures, which the engine applies serially),
/// and `goldens[s][k]` is statement `s`'s exact output after the first `k`
/// writes of that order.  Every published version applies a prefix of
/// `order`, so the history is consistent iff
///
/// * **writes are ordered:** a write queued before another was submitted is
///   applied before it (arrival order, inside and across batches);
/// * **reads are neither stale nor from the future:** each read equals
///   golden `k` for some `k` that contains every write acknowledged before
///   the read was submitted and no write submitted after it was answered —
///   in particular `#acked before submit ≤ k ≤ #submitted before response`;
/// * **a client never goes backwards:** its successive reads (it issues one
///   at a time) are served from non-decreasing `k`;
/// * **closures are atomic:** a served answer over both relations a closure
///   writes equals *some* golden, so it saw both inserts or neither.
fn check_history(
    goldens: &[Vec<ExecOutput>],
    order: &[usize],
    writes: &[WriteEvent],
    clients: &[Vec<ReadEvent>],
) -> Result<(), String> {
    let mut position = vec![usize::MAX; writes.len()];
    for (at, &id) in order.iter().enumerate() {
        if position[id] != usize::MAX {
            return Err(format!("write {id} was applied twice"));
        }
        position[id] = at;
    }
    if let Some(id) = position.iter().position(|&at| at == usize::MAX) {
        return Err(format!("acknowledged write {id} was never applied"));
    }
    for (a, wa) in writes.iter().enumerate() {
        for (b, wb) in writes.iter().enumerate() {
            if wa.queued < wb.submit && position[a] > position[b] {
                return Err(format!(
                    "write {a} was queued before write {b} was submitted but applied after it"
                ));
            }
        }
    }
    for (client, reads) in clients.iter().enumerate() {
        let mut previous = 0;
        for (nth, read) in reads.iter().enumerate() {
            let chain = &goldens[read.statement];
            let lower = (0..writes.len())
                .filter(|&w| writes[w].ack < read.submit)
                .map(|w| position[w] + 1)
                .max()
                .unwrap_or(0);
            let upper = (0..writes.len())
                .filter(|&w| writes[w].submit > read.response)
                .map(|w| position[w])
                .min()
                .unwrap_or(writes.len());
            let what = format!(
                "client {client} read {nth} of {}",
                STATEMENTS[read.statement]
            );
            let Some(first) = (lower..=upper).find(|&k| chain[k] == read.answer) else {
                let seen: Vec<usize> = (0..chain.len())
                    .filter(|&k| chain[k] == read.answer)
                    .collect();
                let found = if seen.is_empty() {
                    "equals no golden: a torn or foreign answer".to_string()
                } else {
                    format!("is golden {seen:?}: stale, or from the future")
                };
                return Err(format!(
                    "{what}: the answer must be golden k for {lower} <= k <= {upper} but {found}"
                ));
            };
            let Some(k) = (first.max(previous)..=upper).find(|&k| chain[k] == read.answer) else {
                return Err(format!(
                    "{what}: served from version {first} after this client was already \
                     served from version {previous}"
                ));
            };
            previous = k;
        }
    }
    Ok(())
}

/// The stress writers' closure: write `id` inserts one tuple into `movie`
/// and one into `rating`, so `pairs` (a product of the two) tells a torn
/// application apart from every golden, and `ranks_of_10` grows by one
/// tuple per write.  It also lands a Universal/2014 movie rated 5 and liked
/// by a new NASA person, so `V1`'s extent moves with every write and `fig1`
/// gains a tuple: the one compiled pipeline all versions share must read
/// the extent of the version each request is pinned to.
fn stress_write(id: usize) -> impl FnOnce(&mut Database) -> bqr::data::Result<()> + Send + 'static {
    move |db| {
        let id = id as i64;
        db.insert("movie", tuple![9_000 + id, "stress", "Stress", "2099"])?;
        db.insert("rating", tuple![10, 11 + id])?;
        db.insert("movie", tuple![19_000 + id, "liked", "Universal", "2014"])?;
        db.insert("rating", tuple![19_000 + id, 5])?;
        db.insert("person", tuple![29_000 + id, "stress", "NASA"])?;
        db.insert("like", tuple![29_000 + id, 19_000 + id, "movie"])?;
        Ok(())
    }
}

/// Phase 2 — concurrent writers: 8 reader clients round-robin the three
/// statements while two writers (one with a single write in flight, one
/// with two) commit closures that each insert into two relations.  The
/// recorded history — `(submit, response, answer)` per read,
/// `(submit, queued, ack)` per write, the application order from inside the
/// closures — is replayed on a twin engine and held to [`check_history`].
#[test]
fn readers_under_a_concurrent_writer_serve_prefix_consistent_answers() {
    const CLIENTS: usize = 8;
    const ITERS: usize = 60;
    const WRITES_PER_WRITER: usize = 12;
    const WRITES: usize = 2 * WRITES_PER_WRITER;

    let server = Server::with_config(movie_engine(), stress_config());
    prepare_statements(&server);

    let clock = AtomicU64::new(1);
    let tick = || clock.fetch_add(1, Ordering::SeqCst);
    let order = Arc::new(Mutex::new(Vec::new()));
    let submit_write = |id: usize| {
        let order = Arc::clone(&order);
        let write = stress_write(id);
        server.submit_mutate(move |db| {
            // Closures are applied serially, so the push order is the
            // publish order.
            order.lock().unwrap().push(id);
            write(db)
        })
    };

    let (writes, clients) = std::thread::scope(|scope| {
        // Writer A: one write in flight at a time (ids 0, 2, 4, …).
        let serial = scope.spawn(|| {
            (0..WRITES_PER_WRITER)
                .map(|i| {
                    let submit = tick();
                    let pending = submit_write(2 * i);
                    let queued = tick();
                    pending.wait().unwrap();
                    (
                        2 * i,
                        WriteEvent {
                            submit,
                            queued,
                            ack: tick(),
                        },
                    )
                })
                .collect::<Vec<_>>()
        });
        // Writer B: two writes in flight (ids 1, 3, 5, …), submitted
        // back-to-back — arrival order must hold inside a batch too.
        let pipelined = scope.spawn(|| {
            let mut events = Vec::new();
            for pair in 0..WRITES_PER_WRITER / 2 {
                let in_flight: Vec<_> = [4 * pair + 1, 4 * pair + 3]
                    .into_iter()
                    .map(|id| {
                        let submit = tick();
                        let pending = submit_write(id);
                        (id, submit, tick(), pending)
                    })
                    .collect();
                for (id, submit, queued, pending) in in_flight {
                    pending.wait().unwrap();
                    events.push((
                        id,
                        WriteEvent {
                            submit,
                            queued,
                            ack: tick(),
                        },
                    ));
                }
            }
            events
        });
        let readers: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let server = &server;
                let tick = &tick;
                scope.spawn(move || {
                    (0..ITERS)
                        .map(|round| {
                            let statement = (client + round) % STATEMENTS.len();
                            let submit = tick();
                            let response = server.execute(STATEMENTS[statement]).unwrap();
                            ReadEvent {
                                statement,
                                submit,
                                response: tick(),
                                answer: response.output,
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut writes = vec![None; WRITES];
        for (id, event) in serial
            .join()
            .unwrap()
            .into_iter()
            .chain(pipelined.join().unwrap())
        {
            writes[id] = Some(event);
        }
        let writes: Vec<WriteEvent> = writes.into_iter().map(Option::unwrap).collect();
        let clients: Vec<Vec<ReadEvent>> = readers.into_iter().map(|r| r.join().unwrap()).collect();
        (writes, clients)
    });
    server.drain();

    // The golden chain: a twin engine fed the same closures serially, in
    // the order the server applied them.
    let order = order.lock().unwrap().clone();
    let twin = movie_engine();
    for (name, query) in STATEMENTS.iter().zip(QUERIES) {
        twin.prepare(name, query).unwrap();
    }
    let snapshot = |chain: &mut Vec<Vec<ExecOutput>>| {
        let session = twin.session();
        for (s, name) in STATEMENTS.iter().enumerate() {
            chain[s].push(session.execute(name).unwrap());
        }
        // The twin serves `fig1` through the same kind of cached pipeline
        // the server does, so hold every link to the naive evaluation of
        // `Q0` over the base relations: each version reads its own `V1`.
        let naive = eval_cq(&movies::q0(), session.database(), Some(session.views()));
        assert_eq!(chain[0].last().unwrap().tuples, naive.unwrap());
    };
    let mut goldens = vec![Vec::new(); STATEMENTS.len()];
    snapshot(&mut goldens);
    for &id in &order {
        twin.mutate(stress_write(id)).unwrap();
        snapshot(&mut goldens);
    }
    for chain in &goldens {
        for pair in chain.windows(2) {
            assert_ne!(pair[0], pair[1], "every write moves every statement");
        }
    }
    let liked = |k: usize| goldens[0][k].tuples.len();
    assert_eq!(liked(WRITES), liked(0) + WRITES, "one liked movie a write");

    if let Err(violation) = check_history(&goldens, &order, &writes, &clients) {
        panic!("inconsistent history: {violation}\n  application order: {order:?}");
    }

    let stats = server.stats();
    assert_eq!(stats.completed, (CLIENTS * ITERS + WRITES) as u64);
    assert_eq!(stats.writes, WRITES as u64);
    assert_eq!(stats.rejected, 0);
    // All writes landed: the live version is the end of the chain.
    for (s, name) in STATEMENTS.iter().enumerate() {
        assert_eq!(
            server.engine().session().execute(name).unwrap(),
            *goldens[s].last().unwrap()
        );
    }
    let cache = server.engine().cache_stats();
    assert_eq!(cache.lookups, cache.hits + cache.misses);
}

/// The checker itself must reject what it exists to catch: a stale read
/// (which the old "equals *some* golden" membership test passed), a read
/// from the future, a client going backwards, a torn answer, and writes
/// applied out of arrival order.
#[test]
fn history_checker_rejects_stale_future_backwards_torn_and_reordered() {
    let answer = |n: u64| ExecOutput {
        tuples: (0..n).map(|i| tuple![i as i64]).collect(),
        stats: Default::default(),
    };
    // One statement (index 0), two writes: golden k has k tuples.
    let goldens = vec![vec![answer(0), answer(1), answer(2)]];
    let write = |submit, ack| WriteEvent {
        submit,
        queued: submit + 1,
        ack,
    };
    let read = |submit, response, n| ReadEvent {
        statement: 0,
        submit,
        response,
        answer: answer(n),
    };
    // Write 0 over [10, 20], write 1 over [30, 40].
    let writes = [write(10, 20), write(30, 40)];
    let check =
        |order: &[usize], reads: Vec<ReadEvent>| check_history(&goldens, order, &writes, &[reads]);

    // Consistent: before, during and after each write.
    check(
        &[0, 1],
        vec![
            read(1, 5, 0),
            read(12, 18, 1),
            read(22, 28, 1),
            read(41, 45, 2),
        ],
    )
    .unwrap();
    let stale = check(&[0, 1], vec![read(22, 28, 0)]).unwrap_err();
    assert!(stale.contains("1 <= k <= 1"), "{stale}");
    let future = check(&[0, 1], vec![read(1, 5, 1)]).unwrap_err();
    assert!(future.contains("0 <= k <= 0"), "{future}");
    let backwards = check(&[0, 1], vec![read(12, 14, 1), read(15, 18, 0)]).unwrap_err();
    assert!(backwards.contains("already"), "{backwards}");
    let torn = check(&[0, 1], vec![read(41, 45, 7)]).unwrap_err();
    assert!(torn.contains("torn"), "{torn}");
    let reordered = check(&[1, 0], vec![]).unwrap_err();
    assert!(reordered.contains("applied after"), "{reordered}");
}

/// Batching still batches when there is someone to batch with: 8 clients
/// hammering one statement share flushes.
#[test]
fn eight_clients_on_one_statement_coalesce() {
    const CLIENTS: usize = 8;
    const ITERS: usize = 200;

    let server = Server::with_config(movie_engine(), stress_config());
    prepare_statements(&server);
    let golden = server.engine().session().execute("fig1").unwrap();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                for _ in 0..ITERS {
                    let response = server.execute("fig1").unwrap();
                    assert_eq!(response.output, golden);
                }
            });
        }
    });
    server.drain();
    let stats = server.stats();
    assert_eq!(stats.completed, (CLIENTS * ITERS) as u64);
    assert!(stats.coalesced_reads > 0, "{stats:?}");
    assert!(stats.read_batches < stats.completed, "{stats:?}");
}

/// Group commit: 64 writes issued back-to-back from one thread publish in
/// a handful of batches, applied in arrival order.
#[test]
fn a_burst_of_writes_commits_in_few_batches_in_arrival_order() {
    const BURST: usize = 64;

    let server = Server::with_config(movie_engine(), stress_config());
    let order = Arc::new(Mutex::new(Vec::new()));
    let pendings: Vec<_> = (0..BURST)
        .map(|id| {
            let order = Arc::clone(&order);
            server.submit_mutate(move |db| {
                order.lock().unwrap().push(id);
                db.insert("rating", tuple![3_000_000 + id as i64, 1])
                    .map(drop)
            })
        })
        .collect();
    for pending in pendings {
        pending.wait().unwrap();
    }
    server.drain();
    assert_eq!(*order.lock().unwrap(), (0..BURST).collect::<Vec<_>>());
    let stats = server.stats();
    assert_eq!(stats.writes, BURST as u64);
    assert!(
        (1..=8).contains(&stats.write_batches),
        "64 back-to-back writes must share publishes: {stats:?}"
    );
}

/// Overload: a server admitting at most one request at a time, hammered by
/// 8 clients, must reject with typed `Overloaded` (carrying the configured
/// retry hint) — and every admitted answer is still bit-identical to the
/// direct golden.  Errors never corrupt answers.
#[test]
fn overload_rejections_are_typed_and_answers_stay_exact() {
    const CLIENTS: usize = 8;
    const ITERS: usize = 20;

    let server = Server::with_config(
        movie_engine(),
        ServerConfig {
            max_concurrent: 1,
            retry_after_ms: 3,
            ..stress_config()
        },
    );
    prepare_statements(&server);
    let golden = server.engine().session().execute("fig1").unwrap();

    let served = std::sync::atomic::AtomicU64::new(0);
    let rejected = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            let server = &server;
            let golden = &golden;
            let (served, rejected) = (&served, &rejected);
            scope.spawn(move || {
                for _ in 0..ITERS {
                    match server.execute("fig1") {
                        Ok(response) => {
                            assert_eq!(response.output, *golden, "admitted answers stay exact");
                            served.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                        Err(ServerError::Overloaded { retry_after_ms }) => {
                            assert_eq!(retry_after_ms, 3, "the configured retry hint");
                            rejected.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                        Err(other) => panic!("only Overloaded is acceptable, got {other:?}"),
                    }
                }
            });
        }
    });
    server.drain();

    let stats = server.stats();
    assert_eq!(
        stats.completed + stats.rejected,
        (CLIENTS * ITERS) as u64,
        "every request was answered or typed-rejected — none dropped"
    );
    assert_eq!(
        stats.completed,
        served.load(std::sync::atomic::Ordering::Relaxed)
    );
    assert_eq!(
        stats.rejected,
        rejected.load(std::sync::atomic::Ordering::Relaxed)
    );
    assert!(
        stats.completed >= 1,
        "a capacity of one still serves a closed loop"
    );
    assert!(
        stats.rejected >= 1,
        "8 clients against a capacity of one must overload"
    );
}

/// Cost-class admission: fetch-bound budgets price statements by `|D_ξ|`,
/// so a budget below the statement's cost class rejects deterministically
/// while a cheaper statement still serves.
#[test]
fn cost_class_budget_rejects_expensive_statements_only() {
    let probe = Server::new(movie_engine());
    let expensive = probe.prepare("fig1", Q_XI).unwrap();
    let cheap = probe.prepare("ranks_of_10", RANKS_OF_10).unwrap();
    assert!(
        cheap < expensive,
        "the point lookup must be the cheaper cost class ({cheap} vs {expensive})"
    );

    // Budget admits the point lookup but not the Fig. 1 rewriting.
    let server = Server::with_config(
        movie_engine(),
        ServerConfig {
            max_outstanding_cost: cheap,
            ..stress_config()
        },
    );
    prepare_statements(&server);
    let golden = server.engine().session().execute("ranks_of_10").unwrap();
    assert!(matches!(
        server.execute("fig1"),
        Err(ServerError::Overloaded { .. })
    ));
    assert_eq!(server.execute("ranks_of_10").unwrap().output, golden);
    let stats = server.stats();
    assert_eq!((stats.rejected, stats.completed), (1, 1));
}
