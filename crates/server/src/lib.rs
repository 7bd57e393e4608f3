//! `bqr-server`: an async, batched serving front over one
//! [`Engine`](bqr_engine::Engine).
//!
//! The paper's promise — boundedly evaluable queries cost `O(|D_ξ|)`,
//! independent of `|D|` — only pays off operationally if the system can
//! serve heavy concurrent traffic at that bounded cost.  This crate is the
//! serving layer that cashes the cheque:
//!
//! * **Admission control** ([`ServerConfig::max_concurrent`],
//!   [`ServerConfig::max_outstanding_cost`]): a semaphore-style concurrency
//!   cap plus a per-read *cost class*, the fetch bound `|D_ξ|` its
//!   statement carries on the engine
//!   ([`PreparedStatement::fetch_bound`](bqr_engine::PreparedStatement::fetch_bound)).
//!   Over-budget submissions fail fast with a typed
//!   [`ServerError::Overloaded`] carrying a retry-after hint — never a
//!   wrong or partial answer.  Admitted reads still run under the engine's
//!   guard limits
//!   ([`EngineBuilder::exec_options`](bqr_engine::EngineBuilder::exec_options)),
//!   so deadlines and row/fetch budgets trip cooperatively inside the
//!   pipeline.  The server keeps no registry of its own: statements, their
//!   prices and their limits are read from the engine.
//! * **Read coalescing**, with no window to wait out: a read that finds its
//!   statement idle is executed at once; reads for the same prepared
//!   statement that arrive while an execution of it is in flight or queued
//!   share the next **one** pipeline execution — whose fetches probe each
//!   distinct key once — and every request receives that execution's exact
//!   tuples and [`FetchStats`](bqr_data::FetchStats), bit-identical to an
//!   unbatched [`Session`](bqr_engine::Session) execution on the same
//!   version.  Batches are size one when the server is idle and grow
//!   exactly when it is busy.
//! * **Write batching** (group commit): mutation closures that arrive
//!   while the previous publish runs are applied together, in arrival
//!   order, through
//!   [`Engine::mutate_batch`](bqr_engine::Engine::mutate_batch) in a single
//!   delta-tracked version publish, amortising the copy-on-write fork,
//!   index patching and view maintenance over the burst, with
//!   per-closure isolation inside the batch.
//! * **Dual sync/async entry**: [`Server::execute`]/[`Server::mutate`]
//!   block; [`Server::submit`]/[`Server::submit_mutate`] return a
//!   [`Pending`] that is a plain `Future`, pollable from any runtime.
//!   Both share one admission-and-enqueue step and differ only in who
//!   flushes a queue that was idle.  An async entry leaves it to the
//!   server's own worker pool (a job queue, a condvar and a few threads),
//!   so it never blocks.  A sync entry from the server's only recent
//!   client runs the flush on its own thread, sparing a lone client two
//!   thread hand-offs per request.  While other requests are admitted, or
//!   other threads made the recent sync requests, it leaves the flush to
//!   the pool too, where concurrent clients' reads coalesce.
//!
//! Failure injection: the serving front exposes two failpoint sites
//! (`bqr_data::faults::sites::{SERVER_ACCEPT, BATCH_FLUSH}`).  An injected
//! fault sheds the submission or degrades a batch to serialised execution,
//! but a request is never dropped, duplicated, or handed another request's
//! answer — the umbrella chaos suite pins this down.

#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod error;
mod pool;
mod server;
mod slot;
mod stats;

pub use error::{ServerError, ServerResult};
pub use server::{Response, Server, ServerConfig};
pub use slot::Pending;
pub use stats::ServerStats;

/// Lock `mutex`, recovering the guard if a panicking thread poisoned it:
/// every critical section in this crate leaves its data valid at each step.
fn lock<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqr_data::{tuple, AccessConstraint, AccessSchema, Database, DatabaseSchema};
    use bqr_engine::Engine;
    use bqr_plan::{ExecError, ExecOptions};
    use bqr_workload::movies;
    use std::future::Future;
    use std::pin::pin;
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::task::{Context, Poll, Wake, Waker};

    const Q_XI: &str = "Q(mid) :- movie(mid, ym, 'Universal', '2014'), V1(mid), rating(mid, 5)";

    fn movie_server(config: ServerConfig) -> Server {
        let engine = Engine::builder()
            .setting(movies::setting(100, 40))
            .cache_capacity(16)
            .build()
            .unwrap();
        engine
            .attach(movies::generate(movies::MovieScale::default()))
            .unwrap();
        Server::with_config(engine, config)
    }

    fn workers(workers: usize) -> ServerConfig {
        ServerConfig {
            workers,
            ..ServerConfig::default()
        }
    }

    /// Hold one pool worker inside a write closure until the returned
    /// sender is used (or dropped).  Returns once the closure is running,
    /// with the write's `Pending`.
    fn hold_a_worker(server: &Server) -> (mpsc::Sender<()>, Pending<()>) {
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let held = server.submit_mutate(move |_db| {
            started_tx.send(()).unwrap();
            let _ = release_rx.recv();
            Ok(())
        });
        started_rx.recv().unwrap();
        (release_tx, held)
    }

    /// A minimal foreign executor: poll on this thread, park until woken.
    fn block_on<F: Future>(future: F) -> F::Output {
        struct Unpark(std::thread::Thread);
        impl Wake for Unpark {
            fn wake(self: Arc<Self>) {
                self.0.unpark();
            }
        }
        let waker = Waker::from(Arc::new(Unpark(std::thread::current())));
        let mut cx = Context::from_waker(&waker);
        let mut future = pin!(future);
        loop {
            if let Poll::Ready(output) = future.as_mut().poll(&mut cx) {
                return output;
            }
            std::thread::park();
        }
    }

    #[test]
    fn serves_prepared_statements_bit_identically_to_sessions() {
        let server = movie_server(workers(2));
        let cost = server.prepare("fig1", Q_XI).unwrap();
        assert!(cost >= 1, "fetch-bound cost class");
        let statement = server.engine().statement("fig1").unwrap();
        assert_eq!(cost, statement.fetch_bound().max(1));

        let direct = server.engine().session().execute("fig1").unwrap();
        let served = server.execute("fig1").unwrap();
        assert_eq!(served.output, direct, "tuples AND FetchStats");
        assert_eq!(served.coalesced, 1, "an idle server flushes a lone request");

        // The async entry's blocking adapter: same slot, same answer.
        let pending = server.submit("fig1");
        assert_eq!(pending.wait().unwrap().output, direct);

        server.drain();
        let stats = server.stats();
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.rejected, 0);
        assert_eq!((stats.read_batches, stats.coalesced_reads), (2, 0));
        assert!(stats.p50_us <= stats.p99_us && stats.p99_us <= stats.max_us);
    }

    /// The async entry driven by a foreign executor: reads and writes
    /// resolve to exactly what the blocking entry returns, and a write's
    /// effect is visible to a read submitted after its future resolved.
    #[test]
    fn pendings_resolve_under_a_foreign_executor() {
        let server = movie_server(workers(2));
        server.prepare("fig1", Q_XI).unwrap();
        server
            .prepare("ranks", "Q(r) :- rating(424242, r)")
            .unwrap();

        let waited = server.execute("fig1").unwrap();
        let polled = block_on(server.submit("fig1")).unwrap();
        assert_eq!(polled, waited, "bit-identical to wait()");

        assert!(server.execute("ranks").unwrap().output.tuples.is_empty());
        block_on(server.submit_mutate(|db| db.insert("rating", tuple![424242, 3]).map(drop)))
            .unwrap();
        let after = block_on(async {
            // Two in flight on one task, awaited in turn.
            let (a, b) = (server.submit("ranks"), server.submit("ranks"));
            (a.await.unwrap(), b.await.unwrap())
        });
        assert_eq!(after.0.output.tuples, vec![tuple![3]]);
        assert_eq!(after.1.output, after.0.output);

        // Typed failures travel the same channel.
        match block_on(server.submit("no_such_statement")) {
            Err(ServerError::UnknownStatement(name)) => assert_eq!(name, "no_such_statement"),
            other => panic!("expected UnknownStatement, got {other:?}"),
        }
        let failed = block_on(server.submit_mutate(|db| db.insert("nowhere", tuple![1]).map(drop)));
        assert!(matches!(failed, Err(ServerError::Engine(_))), "{failed:?}");
    }

    /// The server reads each statement and its price from the engine at
    /// admission: one prepared on the engine alone is served, a re-prepare
    /// is priced anew, and a forgotten name is unknown before admission.
    #[test]
    fn statements_registered_lazily_and_unknown_names_are_typed() {
        let server = movie_server(ServerConfig {
            max_outstanding_cost: 1,
            ..workers(2)
        });
        server.engine().prepare("fig1", Q_XI).unwrap();
        assert_eq!(server.prepare("q", "Q(r) :- rating(42, r)").unwrap(), 1);
        let direct = server.engine().session().execute("q").unwrap();
        assert_eq!(server.execute("q").unwrap().output, direct);

        // Re-prepared on the engine behind the server's back: Q_ξ's fetch
        // bound is over the budget of 1.
        let qxi = server.engine().prepare("q", Q_XI).unwrap();
        assert!(qxi.fetch_bound() > 1);
        assert!(
            matches!(server.execute("q"), Err(ServerError::Overloaded { .. })),
            "admitted at the stale price"
        );
        // So is `fig1`, which the server never saw prepared.
        assert!(matches!(
            server.execute("fig1"),
            Err(ServerError::Overloaded { .. })
        ));

        assert!(server.engine().forget("q"));
        let admitted = server.stats().admitted;
        match server.execute("q") {
            Err(ServerError::UnknownStatement(name)) => assert_eq!(name, "q"),
            other => panic!("expected UnknownStatement, got {other:?}"),
        }
        match server.execute("no_such_statement") {
            Err(ServerError::UnknownStatement(name)) => assert_eq!(name, "no_such_statement"),
            other => panic!("expected UnknownStatement, got {other:?}"),
        }
        assert_eq!(
            server.stats().admitted,
            admitted,
            "refused before admission"
        );
    }

    /// A served read runs under the engine's execution limits: with a row
    /// budget of 0 it trips as a direct session execution does, and the
    /// engine's guard counters record the trip.
    #[test]
    fn served_reads_run_under_the_engines_limits() {
        let engine = Engine::builder()
            .setting(movies::setting(100, 40))
            .exec_options(ExecOptions::default().with_row_budget(0))
            .build()
            .unwrap();
        engine
            .attach(movies::generate(movies::MovieScale::default()))
            .unwrap();
        let server = Server::with_config(engine, workers(2));
        server.prepare("fig1", Q_XI).unwrap();
        let trips = server.engine().guard_stats().memory_trips;
        match server.execute("fig1") {
            Err(ServerError::Engine(e)) => assert!(
                matches!(
                    e.exec_error(),
                    Some(ExecError::MemoryBudgetExceeded { budget_rows: 0 })
                ),
                "{e}"
            ),
            other => panic!("expected the engine's row budget to trip, got {other:?}"),
        }
        assert_eq!(server.engine().guard_stats().memory_trips, trips + 1);
    }

    #[test]
    fn overload_is_a_typed_rejection_with_retry_after() {
        let config = ServerConfig {
            // Any read's cost class exceeds a zero budget: every read is
            // rejected, deterministically.
            max_outstanding_cost: 0,
            retry_after_ms: 7,
            ..workers(2)
        };
        let server = movie_server(config);
        server.prepare("fig1", Q_XI).unwrap();
        match server.execute("fig1") {
            Err(ServerError::Overloaded { retry_after_ms }) => assert_eq!(retry_after_ms, 7),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        let stats = server.stats();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.admitted, 0);
        // A rejection holds no slot: there is nothing to drain.
        server.drain();
        // Writes don't consume fetch budget; they still go through.
        server
            .mutate(|db| db.insert("rating", tuple![999_999, 5]).map(drop))
            .unwrap();
    }

    /// A cost class is the plan's fetch bound, and a constraint may bound
    /// its fetches by `usize::MAX`.  Queued behind a held worker with a
    /// cost-2 read admitted, such a read is over the budget: it is rejected,
    /// the queued read still answers, and the budget it never held is free
    /// for the next read.
    #[test]
    fn a_cost_class_of_usize_max_is_overloaded_and_frees_the_budget() {
        let schema =
            DatabaseSchema::with_relations(&[("r", &["x", "y"]), ("s", &["x", "y"])]).unwrap();
        let access = AccessSchema::new(vec![
            AccessConstraint::new("r", &["x"], &["y"], usize::MAX).unwrap(),
            AccessConstraint::new("s", &["x"], &["y"], 2).unwrap(),
        ]);
        let engine = Engine::builder()
            .schema(schema.clone())
            .access(access)
            .build()
            .unwrap();
        let mut db = Database::empty(schema);
        db.insert("r", tuple![1, 2]).unwrap();
        db.insert("s", tuple![1, 3]).unwrap();
        engine.attach(db).unwrap();
        let server = Server::with_config(engine, workers(1));
        assert_eq!(
            server.prepare("huge", "Q(y) :- r(1, y)").unwrap(),
            usize::MAX
        );
        assert_eq!(server.prepare("small", "Q(y) :- s(1, y)").unwrap(), 2);

        let (release, held) = hold_a_worker(&server);
        let queued = server.submit("small");
        match server.submit("huge").wait() {
            Err(ServerError::Overloaded { .. }) => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
        release.send(()).unwrap();
        held.wait().unwrap();
        assert_eq!(queued.wait().unwrap().output.tuples, vec![tuple![3]]);
        server.drain();
        let fresh = server.execute("small").unwrap();
        assert_eq!(fresh.output.tuples, vec![tuple![3]]);
        // Admitted: the held write and the two small reads.
        let stats = server.stats();
        assert_eq!((stats.admitted, stats.rejected), (3, 1));
    }

    #[test]
    fn writes_batch_and_publish() {
        let server = movie_server(workers(2));
        server.prepare("fig1", Q_XI).unwrap();
        let before = server.engine().database().size();
        let pendings: Vec<_> = (0..8)
            .map(|i| {
                server.submit_mutate(move |db| {
                    db.insert("rating", tuple![2_000_000 + i, 1]).map(drop)
                })
            })
            .collect();
        for p in pendings {
            p.wait().unwrap();
        }
        assert_eq!(server.engine().database().size(), before + 8);
        server.drain();
        let stats = server.stats();
        assert_eq!(stats.writes, 8);
        assert!((1..=8).contains(&stats.write_batches));
    }

    /// Single-flight batching, deterministically: with the only worker held
    /// inside a publish, everything that arrives meanwhile — five reads of
    /// one statement, three writes — is served by one flush each.
    #[test]
    fn requests_arriving_while_the_server_is_busy_share_one_flush() {
        let server = movie_server(workers(1));
        server.prepare("fig1", Q_XI).unwrap();
        let golden = server.engine().session().execute("fig1").unwrap();

        let (release, held) = hold_a_worker(&server);
        let reads: Vec<_> = (0..5).map(|_| server.submit("fig1")).collect();
        let writes: Vec<_> = (0..3)
            .map(|i| {
                server.submit_mutate(move |db| {
                    db.insert("rating", tuple![3_000_000 + i, 1]).map(drop)
                })
            })
            .collect();
        release.send(()).unwrap();
        held.wait().unwrap();
        for read in reads {
            let response = read.wait().unwrap();
            assert_eq!(response.output, golden);
            assert_eq!(response.coalesced, 5);
        }
        for write in writes {
            write.wait().unwrap();
        }
        server.drain();
        let stats = server.stats();
        assert_eq!((stats.read_batches, stats.coalesced_reads), (1, 5));
        assert_eq!((stats.write_batches, stats.writes), (2, 4));
        assert_eq!(stats.completed, 9);
    }

    /// A batch whose requests were admitted with two registrations of their
    /// name — re-prepared between the two admissions — answers each request
    /// with the statement it was admitted with, alone.
    #[test]
    fn a_batch_that_straddles_a_re_prepare_answers_each_with_its_own() {
        let server = movie_server(workers(1));
        server.prepare("q", Q_XI).unwrap();
        let old = server.engine().session().execute("q").unwrap();

        let (release, held) = hold_a_worker(&server);
        let first = server.submit("q");
        server.prepare("q", "Q(r) :- rating(424242, r)").unwrap();
        let new = server.engine().session().execute("q").unwrap();
        assert_ne!(old, new);
        let second = server.submit("q");
        release.send(()).unwrap();
        held.wait().unwrap();

        let (first, second) = (first.wait().unwrap(), second.wait().unwrap());
        assert_eq!((first.output, first.coalesced), (old, 1));
        assert_eq!((second.output, second.coalesced), (new, 1));
        server.drain();
        let stats = server.stats();
        assert_eq!((stats.read_batches, stats.coalesced_reads), (1, 2));
    }

    /// A flush job that panics outside its `catch_unwind`s — here in a
    /// foreign waker, while fulfilling the first request of a batch of three
    /// — must not strand its queue with `scheduled` set and nothing
    /// scheduled, nor the two requests it had not reached yet with their
    /// admission slots held: they resolve to a typed error, `drain()`
    /// returns, and the next request is served.
    #[test]
    fn a_flush_job_that_panics_leaves_its_queue_serviceable() {
        struct PanickingWaker;
        impl Wake for PanickingWaker {
            fn wake(self: Arc<Self>) {
                panic!("waker panic (expected by this test)");
            }
        }

        let server = movie_server(workers(1));
        server.prepare("fig1", Q_XI).unwrap();
        let golden = server.engine().session().execute("fig1").unwrap();

        // Park the panicking waker before the flush can run, two more
        // requests of the same statement queued behind it.
        let (release, held) = hold_a_worker(&server);
        let mut doomed = pin!(server.submit("fig1"));
        let waker = Waker::from(Arc::new(PanickingWaker));
        assert!(doomed
            .as_mut()
            .poll(&mut Context::from_waker(&waker))
            .is_pending());
        let behind = [server.submit("fig1"), server.submit("fig1")];
        release.send(()).unwrap();
        held.wait().unwrap();

        // The requests behind the panic were abandoned, not left hanging.
        // (Waiting for them first also keeps this thread from re-polling
        // `doomed` — and replacing the parked waker — before the flush.)
        for pending in behind {
            assert!(matches!(pending.wait(), Err(ServerError::Internal(_))));
        }
        // The doomed request's answer was stored before the waker ran …
        assert_eq!(block_on(doomed).unwrap().output, golden);
        // … and every admission was released: nothing is in flight.
        server.drain();
        assert_eq!(
            server.stats().completed,
            2,
            "the held write, the doomed read"
        );
        // And the statement's queue still serves, as do writes.
        assert_eq!(server.execute("fig1").unwrap().output, golden);
        server
            .mutate(|db| db.insert("rating", tuple![999_998, 5]).map(drop))
            .unwrap();
        server.drain();
        let stats = server.stats();
        assert_eq!((stats.admitted, stats.completed), (6, 4));
    }

    /// A new server starts out calm, and one thread's sync requests keep
    /// it calm: their flushes run on the calling thread — a write's closure
    /// included — and `caller_flushes` counts them.  The async entry never
    /// flushes on its caller.
    #[test]
    fn a_lone_sync_request_flushes_on_the_calling_thread() {
        let server = movie_server(workers(2));
        server.prepare("fig1", Q_XI).unwrap();
        let golden = server.engine().session().execute("fig1").unwrap();

        assert_eq!(server.execute("fig1").unwrap().output, golden);
        assert_eq!(server.stats().caller_flushes, 1);

        let caller = std::thread::current().id();
        let (ran_on_tx, ran_on_rx) = mpsc::channel();
        server
            .mutate(move |db| {
                ran_on_tx.send(std::thread::current().id()).unwrap();
                db.insert("rating", tuple![999_996, 5]).map(drop)
            })
            .unwrap();
        assert_eq!(ran_on_rx.recv().unwrap(), caller);
        assert_eq!(server.stats().caller_flushes, 2);

        assert_eq!(server.submit("fig1").wait().unwrap().output, golden);
        server.drain();
        let stats = server.stats();
        assert_eq!((stats.caller_flushes, stats.completed), (2, 3));
    }

    /// A sync request that finds another request admitted leaves its flush
    /// to the pool even though its own statement's queue is idle: with the
    /// only worker held, it cannot return until the worker is released.
    #[test]
    fn a_sync_request_beside_another_admitted_one_goes_to_the_pool() {
        let server = movie_server(workers(1));
        server.prepare("fig1", Q_XI).unwrap();
        let golden = server.engine().session().execute("fig1").unwrap();

        let (release, held) = hold_a_worker(&server);
        std::thread::scope(|scope| {
            let (answer_tx, answer_rx) = mpsc::channel();
            let server = &server;
            scope.spawn(move || answer_tx.send(server.execute("fig1")).unwrap());
            assert_eq!(
                answer_rx.recv_timeout(std::time::Duration::from_millis(100)),
                Err(mpsc::RecvTimeoutError::Timeout),
                "served before the held worker was released"
            );
            release.send(()).unwrap();
            held.wait().unwrap();
            assert_eq!(answer_rx.recv().unwrap().unwrap().output, golden);
        });
        server.drain();
        let stats = server.stats();
        assert_eq!((stats.caller_flushes, stats.completed), (0, 2));
    }

    /// Two clients show even when their requests never overlap in flight:
    /// after another thread's sync request, this thread's go to the pool
    /// until `CALM` calm ones in a row have passed, reads and writes alike.
    #[test]
    fn a_sync_request_after_another_threads_goes_to_the_pool_for_a_while() {
        let server = movie_server(workers(1));
        server.prepare("fig1", Q_XI).unwrap();
        let golden = server.engine().session().execute("fig1").unwrap();

        std::thread::scope(|scope| {
            scope.spawn(|| server.execute("fig1").unwrap());
        });
        assert_eq!(server.stats().caller_flushes, 1);
        for _ in 0..=crate::server::CALM {
            assert_eq!(server.execute("fig1").unwrap().output, golden);
        }
        assert_eq!(server.stats().caller_flushes, 1, "served on the pool");
        // A write: the pool's last read turn may not have ended yet, and a
        // read that finds it running joins its queue instead.
        server.mutate(|_db| Ok(())).unwrap();
        assert_eq!(server.stats().caller_flushes, 2, "calm again");
    }

    /// The queue map forgets the names the engine forgot: a thousand
    /// fresh names, each prepared, served and forgotten, leave a handful of
    /// queues behind, not a thousand; a live name keeps its queue.
    #[test]
    fn forgotten_statements_leave_no_read_queue_behind() {
        let server = movie_server(workers(2));
        server.prepare("fig1", Q_XI).unwrap();
        let expected = server.execute("fig1").unwrap().output;
        for i in 0..1_000 {
            let name = format!("fresh{i}");
            server.prepare(&name, Q_XI).unwrap();
            let answer = match i % 2 {
                0 => server.execute(&name),
                _ => block_on(server.submit(&name)),
            };
            assert_eq!(answer.unwrap().output, expected);
            assert!(server.engine().forget(&name));
        }
        // A sweep keeps `fig1` and the queues a flush job still holds (at
        // most one per worker), and the map grows to twice that before the
        // next one.
        assert!(server.read_queues() <= 6, "{} queues", server.read_queues());
        assert_eq!(server.execute("fig1").unwrap().output, expected);
    }

    /// A sweep of the queue map keeps a forgotten name's queue while it
    /// holds a request, so teardown still fails that request with the
    /// typed error (a dropped queue would abandon it instead).
    #[test]
    fn a_queue_holding_a_request_outlives_its_forgotten_name() {
        let server = movie_server(workers(1));
        server.prepare("gone", Q_XI).unwrap();
        let (release, held) = hold_a_worker(&server);
        let queued = server.submit("gone");
        assert!(server.engine().forget("gone"));
        let fresh: Vec<_> = (0..8)
            .map(|i| {
                let name = format!("fresh{i}");
                server.prepare(&name, Q_XI).unwrap();
                server.submit(&name)
            })
            .collect();
        assert_eq!(server.read_queues(), 9, "every queue holds a request");
        std::thread::scope(|scope| {
            scope.spawn(move || drop(server));
            assert_eq!(queued.wait(), Err(ServerError::ShuttingDown));
            for pending in fresh {
                assert_eq!(pending.wait(), Err(ServerError::ShuttingDown));
            }
            release.send(()).unwrap();
        });
        held.wait().unwrap();
    }

    #[test]
    fn dropping_the_server_fails_queued_work_with_typed_errors() {
        let server = movie_server(workers(1));
        server.prepare("fig1", Q_XI).unwrap();
        // The single worker is inside a publish: the read and the second
        // write stay queued.
        let (release, held) = hold_a_worker(&server);
        let read = server.submit("fig1");
        let write = server.submit_mutate(|db| db.insert("rating", tuple![999_997, 5]).map(drop));
        std::thread::scope(|scope| {
            // Teardown fails the queued requests at once, then waits for
            // the publish that is running.
            scope.spawn(move || drop(server));
            // The worker is still held, so only teardown can have answered
            // these: typed errors, not hangs, and not partial answers.
            assert_eq!(read.wait(), Err(ServerError::ShuttingDown));
            assert_eq!(write.wait(), Err(ServerError::ShuttingDown));
            release.send(()).unwrap();
        });
        // The publish that was in flight completed.
        held.wait().unwrap();
    }
}
