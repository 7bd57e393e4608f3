//! Umbrella crate for the reproduction of *Bounded Query Rewriting Using
//! Views* (Cao, Fan, Geerts, Lu; PODS'16).
//!
//! The front door is the [`Engine`] facade: one object that owns the
//! rewriting setting `(R, V, A, M)`, the data, and the full request
//! lifecycle — analyse a query's boundedness, register its rewriting as a
//! named prepared statement, and serve it over epoch-pinned sessions while
//! the instance mutates underneath.  Everything returns the single
//! [`Error`] type.
//!
//! # Analyse, prepare, serve
//!
//! ```
//! use bqr::{tuple, Engine};
//! use bqr::data::{AccessConstraint, AccessSchema, Database, DatabaseSchema};
//!
//! # fn main() -> bqr::Result<()> {
//! // The setting: schema R, access schema A (rating has a key on mid),
//! // no views, plan-size bound M = 8.
//! let schema = DatabaseSchema::with_relations(&[("rating", &["mid", "rank"])])
//!     .map_err(bqr::Error::Data)?;
//! let engine = Engine::builder()
//!     .schema(schema.clone())
//!     .access(AccessSchema::new(vec![
//!         AccessConstraint::new("rating", &["mid"], &["rank"], 1).unwrap(),
//!     ]))
//!     .bound(8)
//!     .build()?;
//!
//! // Attach data.
//! let mut db = Database::empty(schema);
//! db.insert("rating", tuple![42, 5]).map_err(bqr::Error::Data)?;
//! db.insert("rating", tuple![7, 3]).map_err(bqr::Error::Data)?;
//! engine.attach(db)?;
//!
//! // Analyse: the point lookup is boundedly rewritable (one fetch).
//! let analysis = engine.analyze("Q(r) :- rating(42, r)")?;
//! assert!(analysis.bounded());
//! assert!(analysis.explain()?.contains("fetch["));
//!
//! // Prepare + serve.  `explain` already compiled the pipeline into the
//! // engine's cache, so both executions are warm cache hits.
//! engine.prepare("rank_of_42", "Q(r) :- rating(42, r)")?;
//! let session = engine.session();
//! assert_eq!(session.execute("rank_of_42")?.tuples, vec![tuple![5]]);
//! assert_eq!(session.execute("rank_of_42")?.tuples, vec![tuple![5]]);
//! let stats = engine.cache_stats();
//! assert_eq!((stats.misses, stats.hits), (1, 2));
//! # Ok(())
//! # }
//! ```
//!
//! # Epoch-pinned sessions
//!
//! A [`Session`] pins the data version current at [`Engine::session`]; its
//! reads are snapshot-consistent no matter what mutations land concurrently:
//!
//! ```
//! use bqr::{tuple, Engine};
//! use bqr::data::{AccessConstraint, AccessSchema, Database, DatabaseSchema};
//!
//! # fn main() -> bqr::Result<()> {
//! # let schema = DatabaseSchema::with_relations(&[("rating", &["mid", "rank"])])
//! #     .map_err(bqr::Error::Data)?;
//! # let engine = Engine::builder()
//! #     .schema(schema.clone())
//! #     .access(AccessSchema::new(vec![
//! #         AccessConstraint::new("rating", &["mid"], &["rank"], 2).unwrap(),
//! #     ]))
//! #     .bound(8)
//! #     .build()?;
//! # let mut db = Database::empty(schema);
//! # db.insert("rating", tuple![42, 5]).map_err(bqr::Error::Data)?;
//! # engine.attach(db)?;
//! engine.prepare("ranks", "Q(r) :- rating(42, r)")?;
//! let pinned = engine.session();
//! assert_eq!(pinned.execute("ranks")?.tuples, vec![tuple![5]]);
//!
//! // A write bumps the relation's epoch and publishes a new version...
//! engine.mutate(|db| db.insert("rating", tuple![42, 4]))?;
//!
//! // ...the pinned session still reads its snapshot; a fresh one sees the
//! // write (through the same compiled pipeline, bound to the new version).
//! assert_eq!(pinned.execute("ranks")?.tuples, vec![tuple![5]]);
//! assert_eq!(
//!     engine.session().execute("ranks")?.tuples,
//!     vec![tuple![4], tuple![5]],
//! );
//! # Ok(())
//! # }
//! ```
//!
//! # Mutation
//!
//! [`Engine::mutate`] runs a closure against a copy-on-write clone of the
//! current instance and publishes the result as a new version — but its
//! cost is proportional to the *delta*, not the database.  The relation
//! mutators record the net write set (inserts and removes cancel; a
//! do-undo closure leaves no trace), and version construction dispatches on
//! what the delta looks like, per relation and per view.  What each step
//! costs, for a relation `R` with `G` index groups of at most `N` entries
//! (chunks hold ≤ 512 tuples, indexes have 256 shards):
//!
//! | step | cost |
//! |---|---|
//! | clone the instance for the closure | `O(#chunks)` pointer copies, no tuple |
//! | one `insert` / `remove` | one pool lookup per value (an insert mints an id for a value never seen, the only interning a write does), `O(log \|R\|)` to find the chunk, one chunk of ids copied on its first write (two when chunks merge) |
//! | drop the superseded version | `O(#chunks)` pointer drops, frees only the chunks it did not share |
//! | every index the relation holds — its access constraints' (built on attach) and its keyed ones (built by the first view maintenance, or for a view extent the first read joining the view, to ask) | carried by the `insert` / `remove` itself, per index: `256` pointer copies on the version's first write, one forked shard, `O(G / 256)`, plus the written group; nothing is looked up again or interned |
//! | CQ / UCQ view extents | per Δ tuple, a fixed chain of keyed probes: `O(Σ matches)`, see below |
//!
//! * **Exact delta** (the normal case — the closure only called `insert` /
//!   `remove`): a CQ or UCQ view is the list of its CQ rules (the query,
//!   or the disjuncts), and its extent is maintained semi-naively through
//!   every rule — insertions re-derive only tuples with a delta-atom
//!   binding; deletions over-delete candidates and keep those that *any*
//!   rule still derives, so a UCQ tuple one disjunct lost survives while
//!   another derives it.  Each Δ tuple is joined to the rest of a rule body
//!   by a *delta plan* ([`query::maintain`]): a chain of probes in an order
//!   fixed by the view's syntax, each served by the relation version itself
//!   — a binary-searched run of its sorted storage when the bound positions
//!   lead the schema ([`data::Relation::prefix_range`]), otherwise a keyed
//!   index ([`data::Relation::keyed_index`]) that the first write to
//!   need it builds (`O(|R|)`, once) and every later write to the relation
//!   carries forward.  Nothing is planned, compiled, interned or indexed per
//!   write.  The same plans with no seed — a filtered scan, then probes —
//!   materialise a view on attach.
//! * **Indexes belong to their relation.**  An access constraint's index is
//!   one more index the relation carries, beside its keyed ones, and every
//!   `insert` / `remove` patches all of them — inserts *and* removals: keys
//!   are spread over 256 shards by their hash, each shard three flat arrays
//!   (its keys in ascending id order, one row offset per key, the groups
//!   back to back), a successor shares every shard its writes do not land
//!   in and copies the one each write does, and groups are kept in sorted
//!   order so a patched index is bit-identical to a rebuilt one.
//!   Each group entry carries a per-projection *source multiplicity*, so a
//!   removed tuple decrements its entry and the entry only disappears when
//!   no source tuple supports it any more.  Publishing a version takes the
//!   indexes its relations carry; it patches nothing.
//! * **Wholesale replacement** (the closure *assigned* a relation, and its
//!   write tracking with it): the relation's delta is a diff against its
//!   previous version, one `O(|R|)` merge of the two sorted row sequences,
//!   so it is as exact as a tracked one and its views are maintained by
//!   their rules like any others.  The publish builds the replacement's
//!   access indexes from its rows, and its keyed indexes are built again by
//!   whoever next asks.  A replacement with equal contents diffs to nothing
//!   and publishes nothing.  A closure that changes the schema fails typed
//!   and is rolled back.
//! * **Non-CQ FO views** always re-materialise, through the naive
//!   evaluator — only CQ/UCQ definitions have a sound semi-naive path.
//!
//! Untouched relations share their epochs and indexes (access and keyed)
//! into the new version, and the pipeline cache is keyed by plan shape
//! alone — a compiled pipeline holds no data, so no write invalidates one,
//! and the first read after a write is a cache hit.  A net no-op mutation
//! publishes nothing at all: no epoch moves.  This is the only way a
//! mutation publishes; the from-scratch version it must agree with (same
//! contents, same extents, bit-identical answers) is what
//! [`Engine::attach`] builds from a clone of the same database, which is how
//! the differential tests check it.  Failures anywhere — closure error,
//! closure panic, or a fault inside maintenance — are all-or-nothing: the
//! serving version never moves.
//!
//! ```
//! use bqr::{tuple, Engine};
//! use bqr::data::{AccessConstraint, AccessSchema, Database, DatabaseSchema};
//!
//! # fn main() -> bqr::Result<()> {
//! # let schema = DatabaseSchema::with_relations(&[("rating", &["mid", "rank"])])
//! #     .map_err(bqr::Error::Data)?;
//! # let engine = Engine::builder()
//! #     .schema(schema.clone())
//! #     .access(AccessSchema::new(vec![
//! #         AccessConstraint::new("rating", &["mid"], &["rank"], 2).unwrap(),
//! #     ]))
//! #     .bound(8)
//! #     .build()?;
//! # let mut db = Database::empty(schema);
//! # db.insert("rating", tuple![42, 5]).map_err(bqr::Error::Data)?;
//! # engine.attach(db)?;
//! let before = engine.session().epochs();
//! // Re-inserting a present tuple and a do-undo pair are net no-ops:
//! // nothing is published, no epoch moves.
//! engine.mutate(|db| {
//!     db.insert("rating", tuple![42, 5])?; // already present
//!     db.insert("rating", tuple![42, 4])?; // inserted...
//!     db.remove("rating", &tuple![42, 4])?; // ...and undone
//!     Ok(())
//! })?;
//! assert_eq!(engine.session().epochs(), before);
//! # Ok(())
//! # }
//! ```
//!
//! # Runtime guardrails
//!
//! Every execution runs under a [`Guard`](plan::Guard): set a wall-clock
//! deadline, an intermediate-row budget, or a runtime fetch cap on
//! [`ExecOptions`](plan::ExecOptions) (or engine-wide via
//! [`EngineBuilder::exec_options`]), and hand out a
//! [`CancellationToken`](plan::CancellationToken) to cancel from another
//! thread.  Trips surface as typed [`ExecError`](plan::ExecError)s inside
//! [`Error::Execution`] — reachable via [`Error::exec_error`](engine::Error::exec_error) —
//! and are counted per engine in [`Engine::guard_stats`].  A panicking
//! mutate closure returns [`Error::MutationPanicked`]
//! and publishes nothing.  On success the [`FetchStats`](data::FetchStats)
//! accounting is unchanged — guards only ever turn answers into errors,
//! never alter answers.
//!
//! ```
//! use bqr::{tuple, Engine};
//! use bqr::data::{AccessConstraint, AccessSchema, Database, DatabaseSchema};
//! use bqr::plan::{ExecError, ExecOptions};
//!
//! # fn main() -> bqr::Result<()> {
//! # let schema = DatabaseSchema::with_relations(&[("rating", &["mid", "rank"])])
//! #     .map_err(bqr::Error::Data)?;
//! # let engine = Engine::builder()
//! #     .schema(schema.clone())
//! #     .access(AccessSchema::new(vec![
//! #         AccessConstraint::new("rating", &["mid"], &["rank"], 1).unwrap(),
//! #     ]))
//! #     .bound(8)
//! #     .build()?;
//! # let mut db = Database::empty(schema);
//! # db.insert("rating", tuple![42, 5]).map_err(bqr::Error::Data)?;
//! # engine.attach(db)?;
//! engine.prepare("ranks", "Q(r) :- rating(42, r)")?;
//! let session = engine.session();
//! // A zero-row budget trips before any intermediate result materialises.
//! let strangled = ExecOptions::default().with_row_budget(0);
//! let err = session.execute_with("ranks", &strangled).unwrap_err();
//! assert!(matches!(
//!     err.exec_error(),
//!     Some(ExecError::MemoryBudgetExceeded { budget_rows: 0 })
//! ));
//! // The same engine keeps serving under sane limits.
//! let sane = ExecOptions::default().with_deadline_ms(10_000);
//! assert_eq!(session.execute_with("ranks", &sane)?.tuples, vec![tuple![5]]);
//! assert_eq!(engine.guard_stats().memory_trips, 1);
//! # Ok(())
//! # }
//! ```
//!
//! # Execution
//!
//! Prepared statements compile to a flat operator pipeline over interned
//! ids.  A view under an equi-join is not scanned: the rows fetched so far
//! probe the keyed index its extent carries from version to version, so a
//! read is bounded in `|V(D)|` as it is in `|D|` (`FetchStats::view_tuples`
//! counts the rows those probes return).  A plan node compiles to one
//! operator — fetch, view scan, view probe, hash join, selection,
//! projection, product, union or difference — and every operator is one
//! loop over its input on the calling thread.  A bounded plan reads `|D_ξ|`
//! tuples, a number set by the access schema and the plan rather than by
//! `|D|`, so no operator has enough rows to be worth batching or
//! splitting; concurrency is across requests (the server's worker pool),
//! never inside one.  Guard checks and row-budget charges happen once per
//! 1 024 input rows of a loop and at its end, so the guardrails above cost
//! next to nothing.
//!
//! # Query shapes: analyse and compile a question once
//!
//! The paper's effective syntax decides boundedness from a query's
//! *syntax*, in which a constant matters only through where it sits and
//! which other constants — of the query or of a view definition — it
//! equals.  Its running examples ("movies of studio *s* released in *y*")
//! are families that share one analysis and one plan, and the engine treats
//! them so, with no placeholder syntax to learn:
//!
//! * the **pipeline cache** is keyed by the plan's *shape* — its structure
//!   with the constants left out ([`QueryPlan::shape`](plan::QueryPlan::shape)).
//!   Compiled operators hold constant *slots*; a statement executes the
//!   shared operators with its own constants, interned once, bound to them.
//!   Sixty-four statements asking one question about sixty-four customers
//!   compile once, and no write ever makes them compile again;
//! * in front of [`Engine::analyze`] (and so [`Engine::prepare`] and
//!   [`Session::query`]) sits a bounded memo from query shape to the first
//!   topped analysis of that shape.  A shape is the CQ or UCQ as written
//!   with each constant that occurs in *no view definition* replaced by a
//!   parameter, numbered by distinct value — so which constants coincide is
//!   part of the shape, and a constant a view also uses stays itself
//!   (`V(x, 'premium')` and `V(x, 'basic')` are analysed separately: the
//!   checker may well tell them apart).  `tests/shape_diff.rs` holds the
//!   checker to the uniformity this relies on.
//!
//! An ad-hoc text of a seen shape therefore costs a parse and an execution —
//! no checker run, no compile, no plan tree, nothing left behind in any
//! cache.  Rejected queries are analysed (and their reasons worded) afresh
//! every time, as are queries handed in as FO ASTs.
//!
//! ```
//! use bqr::{tuple, Engine};
//! use bqr::data::{AccessConstraint, AccessSchema, Database, DatabaseSchema};
//!
//! # fn main() -> bqr::Result<()> {
//! # let schema = DatabaseSchema::with_relations(&[("rating", &["mid", "rank"])])
//! #     .map_err(bqr::Error::Data)?;
//! # let engine = Engine::builder()
//! #     .schema(schema.clone())
//! #     .access(AccessSchema::new(vec![
//! #         AccessConstraint::new("rating", &["mid"], &["rank"], 1).unwrap(),
//! #     ]))
//! #     .bound(8)
//! #     .build()?;
//! # let mut db = Database::empty(schema);
//! # db.insert("rating", tuple![42, 5]).map_err(bqr::Error::Data)?;
//! # db.insert("rating", tuple![7, 3]).map_err(bqr::Error::Data)?;
//! # engine.attach(db)?;
//! let session = engine.session();
//! // A new shape: one checker run, one compile.
//! assert_eq!(session.query("Q(r) :- rating(42, r)")?.tuples, vec![tuple![5]]);
//! // The same question about another movie: neither.
//! assert_eq!(session.query("Q(r) :- rating(7, r)")?.tuples, vec![tuple![3]]);
//! assert!(session.query("Q(r) :- rating(1234, r)")?.tuples.is_empty());
//! assert_eq!(engine.analysed_shapes(), 1);
//! let stats = engine.cache_stats();
//! assert_eq!((stats.misses, stats.hits, stats.evictions), (1, 2, 0));
//! // An analysis of the shape still reports this query's own closed plan.
//! let analysis = engine.analyze("Q(r) :- rating(7, r)")?;
//! assert!(analysis.plan().unwrap().to_string().contains('7'));
//! # Ok(())
//! # }
//! ```
//!
//! # Serving
//!
//! [`server::Server`] wraps one engine in an async, batched serving front:
//! admission control priced by each statement's fetch bound `|D_ξ|`
//! (over-budget submissions fail fast with a typed
//! [`server::ServerError::Overloaded`], never a wrong answer), read
//! coalescing (a request that finds its statement idle executes at once;
//! same-statement requests that arrive while an execution is in flight
//! share the next one, and each receive its exact tuples and
//! [`FetchStats`](data::FetchStats)), and write batching through
//! [`Engine::mutate_batch`] (writes that arrive during a publish commit
//! together in the next, in arrival order, with per-closure isolation).
//! There is no batch window to tune.  [`server::Server::execute`] blocks,
//! and runs its flush on the calling thread when it comes from the server's
//! only recent client (on the server's worker pool otherwise);
//! [`server::Server::submit`] returns a [`server::Pending`] that is a plain
//! `Future`, always flushed on the pool.  Statements, their prices and the
//! execution limits a served read runs under are the engine's:
//!
//! ```
//! use bqr::{tuple, Engine};
//! use bqr::data::{AccessConstraint, AccessSchema, Database, DatabaseSchema};
//! use bqr::server::{Server, ServerConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let schema = DatabaseSchema::with_relations(&[("rating", &["mid", "rank"])])
//! #     .map_err(bqr::Error::Data)?;
//! # let engine = Engine::builder()
//! #     .schema(schema.clone())
//! #     .access(AccessSchema::new(vec![
//! #         AccessConstraint::new("rating", &["mid"], &["rank"], 2).unwrap(),
//! #     ]))
//! #     .bound(8)
//! #     .build()?;
//! # let mut db = Database::empty(schema);
//! # db.insert("rating", tuple![42, 5]).map_err(bqr::Error::Data)?;
//! # engine.attach(db)?;
//! let server = Server::with_config(
//!     engine,
//!     ServerConfig {
//!         workers: 2,
//!         ..ServerConfig::default()
//!     },
//! );
//! // Prepare on the engine: the returned cost class is the statement's
//! // fetch bound, the currency of admission control.
//! let cost = server.prepare("ranks", "Q(r) :- rating(42, r)")?;
//! assert!(cost >= 1);
//!
//! // Concurrent clients; coalesced requests share one execution, and every
//! // answer is bit-identical to an unbatched session execution.
//! let golden = server.engine().session().execute("ranks")?;
//! std::thread::scope(|scope| {
//!     for _ in 0..4 {
//!         scope.spawn(|| assert_eq!(server.execute("ranks").unwrap().output, golden));
//!     }
//! });
//!
//! // The async entry hands back a `Future`; `wait()` is the sync adapter.
//! let pending = server.submit("ranks");
//! assert_eq!(pending.wait()?.output, golden);
//!
//! server.drain();
//! let stats = server.stats();
//! assert_eq!((stats.admitted, stats.completed, stats.rejected), (5, 5, 0));
//! assert!(stats.p50_us <= stats.p99_us);
//! # Ok(())
//! # }
//! ```
//!
//! # The layers underneath
//!
//! The facade is a thin, allocation-conscious composition of the workspace
//! crates, all re-exported here for direct use (the `effective_syntax`
//! example walks the low-level API):
//!
//! * [`bqr_data`] (as [`data`]) — values, tuples, relations, access schemas,
//!   epoch-stamped instances of interned id rows, indices, and the view
//!   extents [`MaterializedViews`](data::MaterializedViews);
//! * [`bqr_query`] (as [`query`]) — CQ/UCQ/FO ASTs, homomorphisms,
//!   containment, `A`-equivalence, the chase, the cost-based join planner;
//! * [`bqr_plan`] (as [`plan`]) — bounded query plans, the compiled operator
//!   [`Pipeline`](plan::Pipeline), plan shapes and the shape-keyed
//!   [`PipelineCache`](plan::PipelineCache),
//!   plus the runtime [`Guard`](plan::Guard) machinery;
//! * [`bqr_core`] (as [`core`]) — the topped-query checker (effective
//!   syntax), the exact decision procedures for `VBRP`, and the two analyses
//!   of a plan they run: the query `Q_ξ` it expresses
//!   ([`to_query`](core::to_query)) and its
//!   [conformance](core::check_conformance) to `A`;
//! * [`bqr_engine`] (as [`engine`]) — the [`Engine`] facade itself;
//! * [`bqr_server`] (as [`server`]) — the async serving front (admission
//!   control, read coalescing, write batching);
//! * [`bqr_workload`] (as [`workload`]) — synthetic workloads (movies,
//!   social, CDR, random);
//! * [`bqr_bench`] (as [`bench`](mod@bench)) — the experiment harness.

pub use bqr_bench as bench;
pub use bqr_core as core;
pub use bqr_data as data;
pub use bqr_engine as engine;
pub use bqr_plan as plan;
pub use bqr_query as query;
pub use bqr_server as server;
pub use bqr_workload as workload;

pub use bqr_data::tuple;
pub use bqr_engine::{
    Analysis, Engine, EngineBuilder, Error, IntoQuery, PreparedStatement, Result, Session,
};
