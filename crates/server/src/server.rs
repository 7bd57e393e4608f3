//! The serving front: admission control, read coalescing, write batching.

use crate::error::{ServerError, ServerResult};
use crate::lock;
use crate::pool::Pool;
use crate::slot::{ready, slot, Pending, Promise};
use crate::stats::{Metrics, ServerStats};
use bqr_data::{faults, Database};
use bqr_engine::{Analysis, Engine, IntoQuery};
use bqr_plan::{ExecOptions, ExecOutput};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

/// Tuning knobs for a [`Server`].  The defaults suit the test and bench
/// workloads; production embedders size them from their own SLOs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Semaphore-style cap on requests (reads and writes) admitted and not
    /// yet fulfilled.  Beyond it, submission fails with
    /// [`ServerError::Overloaded`].
    pub max_concurrent: usize,
    /// Cap on the summed *cost class* of admitted reads.  A statement's
    /// cost class is its fetch bound `|D_ξ|` — the paper's data-independent
    /// bound on how many tuples the plan can touch — so this budget caps
    /// worst-case outstanding I/O, not request count.
    pub max_outstanding_cost: usize,
    /// Worker threads in the pool that runs flushes: every async entry's,
    /// and a sync entry's unless it comes from the only recent client.
    pub workers: usize,
    /// Back-off hint attached to [`ServerError::Overloaded`].
    pub retry_after_ms: u64,
    /// Execution options (and through them the PR 6 guard limits) applied
    /// to every admitted read: an admitted query still trips deadlines and
    /// row/fetch budgets cooperatively.
    pub options: ExecOptions,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_concurrent: 1024,
            max_outstanding_cost: 1 << 20,
            workers: 4,
            retry_after_ms: 1,
            options: ExecOptions::default(),
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

struct ReadRequest {
    promise: Promise<Response>,
    admission: Admission,
    start: Instant,
}

/// A statement's registry entry: its admission cost class (the plan's
/// fetch bound) and its coalescing queue, found with one map lookup.
struct Statement {
    name: Arc<str>,
    cost: AtomicUsize,
    reads: Batcher<ReadRequest>,
}

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
    /// Registered statements; an entry is created by `prepare`/`register`
    /// or lazily on first submission.
    statements: Mutex<HashMap<Arc<str>, Arc<Statement>>>,
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
            statements: Mutex::new(HashMap::new()),
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

    /// Analyse and prepare `query` under `name` on the engine, and register
    /// its admission cost class (the plan's fetch bound `|D_ξ|`).  Returns
    /// the cost class.
    pub fn prepare<Q: IntoQuery>(&self, name: &str, query: Q) -> ServerResult<usize> {
        let analysis = self.inner.engine.analyze(query)?;
        self.inner.engine.prepare_from(name, &analysis)?;
        Ok(self.inner.enrol(name, &analysis).cost())
    }

    /// Register an admission cost class for a statement already prepared on
    /// the engine (re-deriving its fetch bound from its query).  Returns
    /// the cost class.  Statements submitted without prior registration are
    /// registered lazily on first use.
    pub fn register(&self, name: &str) -> ServerResult<usize> {
        self.inner.register(name).map(|statement| statement.cost())
    }

    /// The registered admission cost class of `name`, if any.
    pub fn cost_class(&self, name: &str) -> Option<usize> {
        self.inner.statement(name).map(|statement| statement.cost())
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
        let statements: Vec<Arc<Statement>> = lock(&inner.statements).values().cloned().collect();
        for statement in statements {
            for request in statement.reads.take() {
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

impl Statement {
    fn cost(&self) -> usize {
        // A plain number: it publishes no other data.
        self.cost.load(Ordering::Relaxed)
    }
}

impl Inner {
    fn statement(&self, name: &str) -> Option<Arc<Statement>> {
        lock(&self.statements).get(name).cloned()
    }

    /// Create or update `name`'s registry entry from its analysis.
    fn enrol(&self, name: &str, analysis: &Analysis) -> Arc<Statement> {
        // The cost class: the plan's fetch bound `|D_ξ|`, at least 1.
        let cost = analysis.fetch_bound().unwrap_or(1).max(1);
        let mut statements = lock(&self.statements);
        if let Some(statement) = statements.get(name) {
            statement.cost.store(cost, Ordering::Relaxed);
            return Arc::clone(statement);
        }
        let name: Arc<str> = Arc::from(name);
        let statement = Arc::new(Statement {
            name: Arc::clone(&name),
            cost: AtomicUsize::new(cost),
            reads: Batcher::new(),
        });
        statements.insert(name, Arc::clone(&statement));
        statement
    }

    /// The admission-and-enqueue step of a read: `accept`, find or register
    /// the statement, `admit` at its cost class, `slot`, `push`.  If the
    /// push found the statement's queue idle, `start` runs its flush — the
    /// only thing the sync and async entries do differently.
    fn read(self: &Arc<Self>, name: &str, start: Start) -> Pending<Response> {
        let queued = || {
            self.accept()?;
            let statement = match self.statement(name) {
                Some(statement) => statement,
                None => self.register(name)?,
            };
            let admission = self.admit(statement.cost())?;
            let (promise, pending) = slot();
            let request = ReadRequest {
                promise,
                admission,
                start: Instant::now(),
            };
            let idle = statement.reads.push(request);
            Ok((pending, idle.then(|| Flush::Reads(statement))))
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

    fn register(&self, name: &str) -> ServerResult<Arc<Statement>> {
        let prepared = self
            .engine
            .statement(name)
            .map_err(|_| ServerError::UnknownStatement(name.to_string()))?;
        let analysis = self.engine.analyze(prepared.query().clone())?;
        Ok(self.enrol(name, &analysis))
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
    Reads(Arc<Statement>),
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
        Flush::Reads(statement) => flush_reads(inner, statement),
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
            Flush::Reads(statement) => statement.reads.end_turn(),
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
fn flush_reads(inner: &Inner, statement: &Statement) {
    let batch = statement.reads.take();
    let coalesced = batch.len();
    inner.metrics.read_batches.fetch_add(1, Ordering::Relaxed);
    if coalesced > 1 {
        inner
            .metrics
            .coalesced_reads
            .fetch_add(coalesced as u64, Ordering::Relaxed);
    }
    let execute = |coalesced| {
        contained("serving a read", || {
            let session = inner.engine.session();
            session.execute_with(&statement.name, &inner.config.options)
        })
        .map(|output| Response { output, coalesced })
    };
    match failpoint(faults::sites::BATCH_FLUSH) {
        Ok(Ok(())) => inner.finish_reads(batch, execute(coalesced)),
        // Injected flush fault: degrade the batch to serialised per-request
        // execution.  Every request is still answered (exactly once) by its
        // own full-fidelity session execution.
        Ok(Err(_)) => {
            for request in batch {
                inner.finish_read(request, execute(1));
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
