//! The serving front: admission control, read coalescing, write batching.

use crate::error::{ServerError, ServerResult};
use crate::lock;
use crate::pool::Pool;
use crate::slot::{ready, slot, Pending, Promise};
use crate::stats::{Metrics, ServerStats};
use bqr_data::{faults, Database};
use bqr_engine::{Engine, IntoQuery, PreparedStatement};
use bqr_plan::ExecOutput;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

/// Tuning knobs for a [`Server`]: admission caps and the pool (a served read
/// runs under the engine's execution limits).  The defaults suit the test
/// and bench workloads; production embedders size them from their own SLOs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Semaphore-style cap on requests (reads and writes) admitted and not
    /// yet fulfilled.  Beyond it, submission fails with
    /// [`ServerError::Overloaded`].
    pub max_concurrent: usize,
    /// Cap on the summed *cost class* of admitted reads.  A read's cost
    /// class is its statement's fetch bound `|D_ξ|`
    /// ([`PreparedStatement::fetch_bound`], at least 1) — the paper's
    /// data-independent bound on how many tuples the plan can touch — so
    /// this budget caps worst-case outstanding I/O, not request count.
    pub max_outstanding_cost: usize,
    /// Worker threads in the pool that runs flushes: every async entry's,
    /// and a sync entry's unless it comes from the only recent client.
    pub workers: usize,
    /// Back-off hint attached to [`ServerError::Overloaded`].
    pub retry_after_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_concurrent: 1024,
            max_outstanding_cost: 1 << 20,
            workers: 4,
            retry_after_ms: 1,
        }
    }
}

/// A served answer: the engine's exact [`ExecOutput`] — tuples *and*
/// [`FetchStats`](bqr_data::FetchStats), bit-identical to an unbatched
/// [`Session`](bqr_engine::Session) execution of the same statement on the
/// same version — plus how many requests shared the flush that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The answer tuples and I/O accounting.
    pub output: ExecOutput,
    /// Number of requests served by the same coalesced execution (≥ 1).
    pub coalesced: usize,
}

/// A single-flight batching queue.  Requests accumulate in `pending`; at
/// most one flush job per queue is queued or running (`scheduled`), and
/// each job serves everything that accumulated before it started.  So a
/// request arriving at an idle queue is flushed at once, alone, and
/// requests arriving while a flush of their queue is in flight — or waiting
/// behind other jobs — share the next one: batches grow exactly when the
/// server is busy.
struct Batcher<T> {
    state: Mutex<BatcherState<T>>,
}

struct BatcherState<T> {
    pending: Vec<T>,
    scheduled: bool,
}

impl<T> Batcher<T> {
    fn new() -> Self {
        Batcher {
            state: Mutex::new(BatcherState {
                pending: Vec::new(),
                scheduled: false,
            }),
        }
    }

    /// Queue `request`; `true` iff the caller must schedule the flush job.
    fn push(&self, request: T) -> bool {
        let mut state = lock(&self.state);
        state.pending.push(request);
        !std::mem::replace(&mut state.scheduled, true)
    }

    /// Everything queued so far, in arrival order.
    fn take(&self) -> Vec<T> {
        std::mem::take(&mut lock(&self.state).pending)
    }

    /// The end of a flush job's turn: `true` iff requests queued meanwhile
    /// (`scheduled` stays set, the caller schedules the next job), else the
    /// queue goes idle.
    fn end_turn(&self) -> bool {
        let mut state = lock(&self.state);
        state.scheduled = !state.pending.is_empty();
        state.scheduled
    }
}

/// An admitted read: the statement as registered when it was admitted,
/// and where its answer goes.
struct ReadRequest {
    statement: PreparedStatement,
    promise: Promise<Response>,
    admission: Admission,
    start: Instant,
}

/// One statement name's coalescing queue.
type Reads = Batcher<ReadRequest>;

type WriteOp = Box<dyn FnOnce(&mut Database) -> bqr_data::Result<()> + Send + 'static>;

/// What is left of a write request once its closure went to the engine.
type Waiter = (Promise<()>, Admission, Instant);

struct WriteRequest {
    op: WriteOp,
    promise: Promise<()>,
    admission: Admission,
    start: Instant,
}

/// The admission counters, and the wake-up of whoever waits for them to
/// reach zero.
#[derive(Default)]
struct Gate {
    in_flight: AtomicUsize,
    outstanding_cost: AtomicUsize,
    /// Signalled, under `idle_lock`, when `in_flight` reaches zero.
    idle: Condvar,
    idle_lock: Mutex<()>,
}

impl Gate {
    fn release(&self, cost: usize) {
        self.outstanding_cost.fetch_sub(cost, Ordering::AcqRel);
        if self.in_flight.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Under the lock `drain` holds between its check and its wait,
            // so it cannot miss this.
            let _idle = lock(&self.idle_lock);
            self.idle.notify_all();
        }
    }
}

/// An admitted request's hold on the gate: one request slot plus `cost`
/// units of fetch budget, given back when the guard drops — wherever the
/// request ends up, a flush job unwinding past it included.
struct Admission {
    gate: Arc<Gate>,
    cost: usize,
}

impl Drop for Admission {
    fn drop(&mut self) {
        self.gate.release(self.cost);
    }
}

struct Inner {
    engine: Arc<Engine>,
    config: ServerConfig,
    pool: Pool,
    /// Each statement name's coalescing queue, created at the first
    /// admission of a read of it.  The statements themselves, and their
    /// prices, are the engine's.
    reads: Mutex<HashMap<String, Arc<Reads>>>,
    writes: Batcher<WriteRequest>,
    gate: Arc<Gate>,
    /// The sync arrivals' recent past, read by [`Inner::sync_start`]: the
    /// [`thread_token`] of the last one (0 before the first), and how many
    /// calm ones came in a row, counted up to [`CALM`].
    last_caller: AtomicUsize,
    calm: AtomicU32,
    metrics: Metrics,
}

/// An async, batched serving front over one [`Engine`].
///
/// The server multiplexes any number of logical client sessions over the
/// engine's epoch-pinned snapshot machinery.  Batching is *natural*: there
/// is no window to wait out.  A read that finds its statement idle is
/// executed at once; reads for the same prepared statement that arrive
/// while an execution of it is in flight or queued are coalesced into
/// **one** pipeline execution (whose fetch operators already dedup probe
/// keys and drive [`bqr_data::InternedAccessIndex::probe_batch`] in one
/// vectorised pass), and
/// every coalesced request receives that execution's exact tuples and
/// `FetchStats`.  Writes that arrive while a publish runs are committed
/// together by the next [`Engine::mutate_batch`] (group commit), in arrival
/// order.  Admission control rejects over-budget traffic with a typed
/// [`ServerError::Overloaded`] before any work queues.
///
/// The server keeps no copy of the engine's state: a read is admitted at
/// the fetch bound of its statement as [`Engine::statement`] returns it
/// then (an unknown name is [`ServerError::UnknownStatement`]), and runs
/// under the engine's execution limits.  A coalesced batch answers with the
/// statement as registered at the newest admission in the batch, which was
/// live between each request's submit and its response: a batch whose
/// requests were admitted with different registrations runs each alone.
///
/// Entry points are dual sync/async: [`Server::execute`]/[`Server::mutate`]
/// block, [`Server::submit`]/[`Server::submit_mutate`] return a
/// [`Pending`] that any executor can poll.  An async entry's flush always
/// runs on the server's own worker pool; a sync entry from the server's
/// only recent client runs its flush on its own thread, which spares it two
/// thread hand-offs, and otherwise leaves it to the pool like an async one.
pub struct Server {
    inner: Arc<Inner>,
}

impl Server {
    /// Wrap `engine` with the default [`ServerConfig`].
    pub fn new(engine: impl Into<Arc<Engine>>) -> Self {
        Server::with_config(engine, ServerConfig::default())
    }

    /// Wrap `engine` with an explicit configuration.
    pub fn with_config(engine: impl Into<Arc<Engine>>, config: ServerConfig) -> Self {
        let inner = Arc::new(Inner {
            engine: engine.into(),
            pool: Pool::new(config.workers),
            config,
            reads: Mutex::new(HashMap::new()),
            writes: Batcher::new(),
            gate: Arc::default(),
            last_caller: AtomicUsize::new(0),
            calm: AtomicU32::new(CALM),
            metrics: Metrics::default(),
        });
        Server { inner }
    }

    /// The wrapped engine (for direct sessions, statistics, attachment).
    pub fn engine(&self) -> &Engine {
        &self.inner.engine
    }

    /// Current serving statistics (counters + latency percentiles).
    pub fn stats(&self) -> ServerStats {
        self.inner.metrics.snapshot()
    }

    /// Prepare `query` under `name` on the engine ([`Engine::prepare`]) and
    /// return the cost class its reads are admitted at: the plan's fetch
    /// bound `|D_ξ|`, at least 1.  A statement prepared on the engine
    /// directly is served just the same.
    pub fn prepare<Q: IntoQuery>(&self, name: &str, query: Q) -> ServerResult<usize> {
        let statement = self.inner.engine.prepare(name, query)?;
        Ok(statement.fetch_bound().max(1))
    }

    /// Submit a read of prepared statement `name` (async entry).  Admission
    /// happens now — an overloaded server yields an already-fulfilled typed
    /// error — and the answer arrives through the returned [`Pending`],
    /// flushed on the worker pool: this call never blocks.
    pub fn submit(&self, name: &str) -> Pending<Response> {
        self.inner.read(name, schedule)
    }

    /// Execute prepared statement `name` (sync entry) and block for the
    /// answer.  When this thread is the server's only recent client, the
    /// flush runs on the calling thread; otherwise the pool runs it, as for
    /// [`Server::submit`].
    pub fn execute(&self, name: &str) -> ServerResult<Response> {
        let start = self.inner.sync_start();
        self.inner.read(name, start).wait()
    }

    /// Submit a mutation closure (async entry).  The closure is applied —
    /// together with every other write that queued while the previous
    /// publish ran — in a single [`Engine::mutate_batch`] version publish,
    /// in arrival order; its slot in the batch is isolated (an erroring or
    /// panicking neighbour cannot fail it) and its effect is visible to
    /// every read admitted after the returned [`Pending`] resolves.  The
    /// publish runs on the worker pool: this call never blocks.
    pub fn submit_mutate<F>(&self, op: F) -> Pending<()>
    where
        F: FnOnce(&mut Database) -> bqr_data::Result<()> + Send + 'static,
    {
        self.inner.write(Box::new(op), schedule)
    }

    /// Apply a mutation closure (sync entry) and block until it is
    /// published, as [`Server::submit_mutate`] would.  When this thread is
    /// the server's only recent client, the publish — the closure included
    /// — runs on the calling thread; otherwise the pool runs it.
    pub fn mutate<F>(&self, op: F) -> ServerResult<()>
    where
        F: FnOnce(&mut Database) -> bqr_data::Result<()> + Send + 'static,
    {
        let start = self.inner.sync_start();
        self.inner.write(Box::new(op), start).wait()
    }

    /// Block until every admitted request has been fulfilled.
    pub fn drain(&self) {
        let gate = &self.inner.gate;
        let mut idle = lock(&gate.idle_lock);
        while gate.in_flight.load(Ordering::Acquire) > 0 {
            idle = gate.idle.wait(idle).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Stop the pool taking jobs, fail every request still in a queue
        // with a typed error — never leave a waiter hanging — and wait for
        // the flush jobs that were already running to serve theirs.
        let inner = &self.inner;
        inner.pool.close();
        let queues: Vec<Arc<Reads>> = lock(&inner.reads).values().cloned().collect();
        for reads in queues {
            for request in reads.take() {
                drop(request.admission);
                request.promise.fulfil(Err(ServerError::ShuttingDown));
            }
        }
        for request in inner.writes.take() {
            drop(request.admission);
            request.promise.fulfil(Err(ServerError::ShuttingDown));
        }
        inner.pool.join();
    }
}

/// A failpoint check, panic-contained: `Ok(Err(_))` is an injected error,
/// `Err(_)` an injected panic.
fn failpoint(site: &'static str) -> std::thread::Result<bqr_data::Result<()>> {
    catch_unwind(AssertUnwindSafe(|| faults::check(site)))
}

/// Run an engine call with a panic contained as a typed error.
fn contained<T>(what: &str, call: impl FnOnce() -> bqr_engine::Result<T>) -> ServerResult<T> {
    match catch_unwind(AssertUnwindSafe(call)) {
        Ok(result) => result.map_err(ServerError::Engine),
        Err(_) => Err(ServerError::Internal(format!("panic while {what}"))),
    }
}

impl Inner {
    /// `name`'s coalescing queue, created on first use.
    fn reads(&self, name: &str) -> Arc<Reads> {
        let mut queues = lock(&self.reads);
        if let Some(reads) = queues.get(name) {
            return Arc::clone(reads);
        }
        let reads = Arc::new(Batcher::new());
        queues.insert(name.to_string(), Arc::clone(&reads));
        reads
    }

    /// The admission-and-enqueue step of a read: `accept`, look the
    /// statement up on the engine, `admit` at its cost class, `slot`, and
    /// `push` onto the name's queue.  If the push found the queue idle,
    /// `start` runs its flush — the only thing the sync and async entries do
    /// differently.
    fn read(self: &Arc<Self>, name: &str, start: Start) -> Pending<Response> {
        let queued = || {
            self.accept()?;
            let statement = self
                .engine
                .statement(name)
                .map_err(|_| ServerError::UnknownStatement(name.to_string()))?;
            let admission = self.admit(statement.fetch_bound().max(1))?;
            let reads = self.reads(name);
            let (promise, pending) = slot();
            let request = ReadRequest {
                statement,
                promise,
                admission,
                start: Instant::now(),
            };
            let idle = reads.push(request);
            Ok((pending, idle.then(|| Flush::Reads(reads))))
        };
        self.dispatch(queued(), start)
    }

    /// The admission-and-enqueue step of a write, as [`Inner::read`]'s: a
    /// write costs no fetch budget.
    fn write(self: &Arc<Self>, op: WriteOp, start: Start) -> Pending<()> {
        let queued = || {
            self.accept()?;
            let admission = self.admit(0)?;
            let (promise, pending) = slot();
            let request = WriteRequest {
                op,
                promise,
                admission,
                start: Instant::now(),
            };
            let idle = self.writes.push(request);
            Ok((pending, idle.then_some(Flush::Writes)))
        };
        self.dispatch(queued(), start)
    }

    /// Hand back a queued request's pending answer once `start` has run
    /// the flush its idle queue needs; a refused one's is already fulfilled
    /// with the typed error.
    fn dispatch<T>(
        self: &Arc<Self>,
        queued: ServerResult<(Pending<T>, Option<Flush>)>,
        start: Start,
    ) -> Pending<T> {
        match queued {
            Ok((pending, flush)) => {
                if let Some(target) = flush {
                    start(self, target);
                }
                pending
            }
            Err(e) => ready(Err(e)),
        }
    }

    /// Who starts a sync arrival's flush.  The arrival is calm when no
    /// request is admitted and the last sync arrival came from the same
    /// thread (or there was none); it runs its flush itself ([`run_here`])
    /// only after [`CALM`] calm arrivals in a row, and a new server starts
    /// out calm.  Anything else goes to the pool ([`schedule`]).
    ///
    /// A lone closed-loop client is always calm: [`Inner::finish`] frees a
    /// request's admission before its answer is handed back.  Several
    /// clients are not, even when they share one core and run one after
    /// another, each request a few microseconds and none overlapping
    /// another in flight: the change of thread shows them.  They stay on
    /// the pool, where a client waits for its answer and the others' reads
    /// coalesce meanwhile.  The counts are read and written without a
    /// lock; a stale one only changes which thread runs a flush, never
    /// what the flush does (it takes its batch before it pins a session
    /// either way).
    fn sync_start(&self) -> Start {
        let me = thread_token();
        let last = self.last_caller.swap(me, Ordering::Relaxed);
        let calm = self.gate.in_flight.load(Ordering::Acquire) == 0 && (last == me || last == 0);
        if !calm {
            self.calm.store(0, Ordering::Relaxed);
            return schedule;
        }
        let run = self.calm.load(Ordering::Relaxed);
        if run >= CALM {
            return run_here;
        }
        self.calm.store(run + 1, Ordering::Relaxed);
        schedule
    }

    /// The `SERVER_ACCEPT` failpoint: an injected fault sheds the
    /// submission with a typed error before anything queues.
    fn accept(&self) -> ServerResult<()> {
        let shed = match failpoint(faults::sites::SERVER_ACCEPT) {
            Ok(Ok(())) => return Ok(()),
            Ok(Err(e)) => e.into(),
            Err(_) => ServerError::Internal("panic injected at server.accept".to_string()),
        };
        self.metrics.shed.fetch_add(1, Ordering::Relaxed);
        self.metrics.rejected.fetch_add(1, Ordering::Relaxed);
        Err(shed)
    }

    /// Admission control: a request slot plus `cost` units of fetch budget,
    /// both held by the returned guard and released when it drops.  Exact
    /// under concurrency (fetch-add then check): the caps are never
    /// exceeded by admitted requests.
    fn admit(&self, cost: usize) -> ServerResult<Admission> {
        // Whatever has been taken so far, dropping the guard gives back.
        let taken = self.gate.in_flight.fetch_add(1, Ordering::AcqRel);
        let mut admission = Admission {
            gate: Arc::clone(&self.gate),
            cost: 0,
        };
        // A cost class may be as large as `usize::MAX` (a constraint's bound
        // is).  One over the whole budget is rejected before it is added, so
        // the shared sum never wraps under a concurrent reader; the sum
        // saturates for a budget near `usize::MAX`.
        if taken >= self.config.max_concurrent || cost > self.config.max_outstanding_cost {
            return Err(self.overloaded());
        }
        let used = self.gate.outstanding_cost.fetch_add(cost, Ordering::AcqRel);
        admission.cost = cost;
        if used.saturating_add(cost) > self.config.max_outstanding_cost {
            return Err(self.overloaded());
        }
        self.metrics.admitted.fetch_add(1, Ordering::Relaxed);
        Ok(admission)
    }

    fn overloaded(&self) -> ServerError {
        self.metrics.rejected.fetch_add(1, Ordering::Relaxed);
        ServerError::Overloaded {
            retry_after_ms: self.config.retry_after_ms,
        }
    }

    /// A request is done: free its admission, count it, time it.  The
    /// admission goes before the caller's promise is fulfilled: a closed-loop
    /// client's next request then never counts this one as in flight, so a
    /// lone client's sync entries stay calm ([`Inner::sync_start`]).
    fn finish(&self, admission: Admission, start: Instant) {
        drop(admission);
        self.metrics.completed.fetch_add(1, Ordering::Relaxed);
        let micros = start.elapsed().as_micros() as u64;
        self.metrics.latencies.record(micros);
    }

    fn finish_read(&self, request: ReadRequest, result: ServerResult<Response>) {
        self.finish(request.admission, request.start);
        request.promise.fulfil(result);
    }

    fn finish_write(&self, waiter: Waiter, result: ServerResult<()>) {
        if result.is_ok() {
            self.metrics.writes.fetch_add(1, Ordering::Relaxed);
        }
        let (promise, admission, start) = waiter;
        self.finish(admission, start);
        promise.fulfil(result);
    }

    /// Hand every request of `batch` the same result: cloned for all but
    /// the last, which takes the original (a batch of one clones nothing).
    /// Should a fulfilment panic (a foreign waker), the unwind drops the
    /// requests not yet answered: each gives its admission back and its
    /// waiter a typed error.
    fn finish_reads(&self, mut batch: Vec<ReadRequest>, result: ServerResult<Response>) {
        let last = batch.pop();
        for request in batch {
            self.finish_read(request, result.clone());
        }
        if let Some(request) = last {
            self.finish_read(request, result);
        }
    }
}

/// What a flush job serves.
#[derive(Clone)]
enum Flush {
    Reads(Arc<Reads>),
    Writes,
}

/// Who runs the flush a request's idle queue needs: [`schedule`] for the
/// async entries, [`Inner::sync_start`]'s choice for the sync ones.
type Start = fn(&Arc<Inner>, Flush);

/// Enqueue, at the tail of the run queue, the one flush job `target`'s
/// queue may have outstanding.  The job serves one [`turn`].
fn schedule(inner: &Arc<Inner>, target: Flush) {
    let job_inner = Arc::clone(inner);
    inner.pool.spawn(move || turn(&job_inner, target));
}

/// A sync entry's start when it is alone ([`Inner::sync_start`]): run the
/// flush on the calling thread, panic-contained as a pool job is (a foreign
/// waker of a neighbour that joined the batch must not unwind into the
/// caller).
fn run_here(inner: &Arc<Inner>, target: Flush) {
    inner.metrics.caller_flushes.fetch_add(1, Ordering::Relaxed);
    let _ = catch_unwind(AssertUnwindSafe(|| turn(inner, target)));
}

/// How many calm sync arrivals in a row ([`Inner::sync_start`]) a server
/// must see before a sync entry flushes on its own thread again.
pub(crate) const CALM: u32 = 64;

/// A token for the calling thread: the address of a thread-local, distinct
/// among live threads and never 0.
fn thread_token() -> usize {
    thread_local!(static TOKEN: u8 = const { 0 });
    TOKEN.with(|token| token as *const u8 as usize)
}

/// Serve one batch of `target`'s queue, then end the turn ([`Turn`]): a hot
/// queue goes back behind the other jobs, so it cannot monopolise a worker,
/// nor keep a caller that runs its flush serving others.
fn turn(inner: &Arc<Inner>, target: Flush) {
    let _turn = Turn {
        inner,
        target: &target,
    };
    match &target {
        Flush::Reads(reads) => flush_reads(inner, reads),
        Flush::Writes => flush_writes(inner),
    }
}

/// Ends a flush's turn when it returns **or unwinds**, on the pool or on a
/// caller: the queue goes idle, or — if requests arrived meanwhile — gets
/// its next job on the pool.  A flush that panics outside its
/// `catch_unwind`s therefore cannot leave `scheduled` set with nothing
/// scheduled.
struct Turn<'a> {
    inner: &'a Arc<Inner>,
    target: &'a Flush,
}

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        let more = match self.target {
            Flush::Reads(reads) => reads.end_turn(),
            Flush::Writes => self.inner.writes.end_turn(),
        };
        if more {
            schedule(self.inner, self.target.clone());
        }
    }
}

/// Flush one read batch: take everything queued for the statement, *then*
/// pin a session, execute **once**, and hand every coalesced request the
/// same exact `ExecOutput`.  The order matters: a request admitted after a
/// write was acknowledged is either in this batch — taken before the pin,
/// so the pinned version includes that write — or in a later one; it can
/// never ride a version pinned before it arrived.  The execution is
/// deterministic (prepared statements are parameterless and the session
/// pins one version), so each request's tuples and `FetchStats` are
/// bit-identical to what its own unbatched `Session` execution on that
/// version would produce — the stress test's history checker holds the
/// server to exactly that.
///
/// Each request looked its statement up after it was submitted, so when
/// every handle in the batch is one registration, that registration was
/// live for each; a batch that straddles a re-prepare runs each request on
/// its own handle instead, as the `BATCH_FLUSH` fault path does.
fn flush_reads(inner: &Inner, reads: &Reads) {
    let batch = reads.take();
    let Some(newest) = batch.last() else {
        return;
    };
    let coalesced = batch.len();
    inner.metrics.read_batches.fetch_add(1, Ordering::Relaxed);
    if coalesced > 1 {
        inner
            .metrics
            .coalesced_reads
            .fetch_add(coalesced as u64, Ordering::Relaxed);
    }
    let execute = |statement: &PreparedStatement, coalesced| {
        contained("serving a read", || {
            inner.engine.session().execute_statement(statement)
        })
        .map(|output| Response { output, coalesced })
    };
    // Handles of one registration share its query object.
    let registered = newest.statement.query();
    let one_registration = batch
        .iter()
        .all(|request| std::ptr::eq(request.statement.query(), registered));
    match failpoint(faults::sites::BATCH_FLUSH) {
        Ok(Ok(())) if one_registration => {
            let result = execute(&newest.statement, coalesced);
            inner.finish_reads(batch, result);
        }
        // Injected flush fault, or a batch that straddles a re-prepare:
        // serialised per-request execution.  Every request is still
        // answered (exactly once) by its own full-fidelity session
        // execution.
        Ok(_) => {
            for request in batch {
                let result = execute(&request.statement, 1);
                inner.finish_read(request, result);
            }
        }
        // Injected flush panic: shed the whole batch with typed errors.
        Err(_) => {
            inner
                .metrics
                .shed
                .fetch_add(coalesced as u64, Ordering::Relaxed);
            inner.finish_reads(batch, Err(flush_panic()));
        }
    }
}

fn flush_panic() -> ServerError {
    ServerError::Internal("panic injected at server.batch.flush".to_string())
}

/// Flush one write batch — whatever queued while the previous publish ran
/// — through [`Engine::mutate_batch`]: one delta-tracked version publish
/// for the whole batch, closures applied in arrival order, per-closure
/// isolation inside it.
fn flush_writes(inner: &Inner) {
    let (ops, waiters): (Vec<WriteOp>, Vec<Waiter>) = inner
        .writes
        .take()
        .into_iter()
        .map(|r| (r.op, (r.promise, r.admission, r.start)))
        .unzip();
    inner.metrics.write_batches.fetch_add(1, Ordering::Relaxed);
    let all = |error: ServerError| vec![Err(error); waiters.len()];
    let results = match failpoint(faults::sites::BATCH_FLUSH) {
        Ok(Ok(())) => {
            match contained("publishing a write batch", || {
                inner.engine.mutate_batch(ops)
            }) {
                Ok(results) => results
                    .into_iter()
                    .map(|result| result.map_err(ServerError::Engine))
                    .collect(),
                // Version construction failed: nothing was published,
                // every write in the batch reports the same typed error.
                Err(e) => all(e),
            }
        }
        // Injected flush fault: serialise — each closure becomes its own
        // `Engine::mutate`, applied exactly once, in arrival order.
        Ok(Err(_)) => ops
            .into_iter()
            .map(|op| contained("applying a serialised write", || inner.engine.mutate(op)))
            .collect(),
        // Injected flush panic: shed the batch with typed errors; nothing
        // was applied (the engine never saw the closures).
        Err(_) => {
            let shed = waiters.len() as u64;
            inner.metrics.shed.fetch_add(shed, Ordering::Relaxed);
            all(flush_panic())
        }
    };
    debug_assert_eq!(results.len(), waiters.len());
    for (waiter, result) in waiters.into_iter().zip(results) {
        inner.finish_write(waiter, result);
    }
}
