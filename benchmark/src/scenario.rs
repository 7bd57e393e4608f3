//! The benchmark's inputs: the two generated instances, the prepared
//! statements, the ad-hoc query texts and the write cycles, all derived from
//! `--seed`; plus set-up of the program under its shipped defaults.

use crate::util::Rng;
use bqr_core::RewritingSetting;
use bqr_data::{tuple, Database, Tuple, Value};
use bqr_engine::Engine;
use bqr_plan::ExecOutput;
use bqr_query::parser::parse_cq;
use bqr_query::ConjunctiveQuery;
use bqr_server::Server;
use bqr_workload::{cdr, movies};
use std::time::{Duration, Instant};

/// The fixed sizes of a run.  `full` is what `BENCHMARK.json` measures;
/// `smoke` exercises the same code in well under a second per workload.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub cdr_customers: usize,
    pub cdr_days: usize,
    pub cdr_statements: usize,
    pub movie_persons: usize,
    pub movie_movies: usize,
    pub movie_n0: usize,
    /// Discarded closed-loop time before the measured window.
    pub warmup: Duration,
    /// Timed set-ups per run, at least (`setup_s` is their median).
    pub setups: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            cdr_customers: 10_000,
            cdr_days: 14,
            cdr_statements: 64,
            movie_persons: 20_000,
            movie_movies: 5_000,
            movie_n0: 250,
            warmup: Duration::from_secs(1),
            setups: 3,
        }
    }

    pub fn smoke() -> Scale {
        Scale {
            cdr_customers: 300,
            cdr_days: 5,
            cdr_statements: 18,
            movie_persons: 600,
            movie_movies: 200,
            movie_n0: 40,
            warmup: Duration::from_millis(50),
            setups: 2,
        }
    }
}

/// `cdr::view_bounds()` declares 200 premium customers, which the generator
/// exceeds from 7 400 customers on (one in 37 is premium: 271 at 10 000).
/// The benchmark declares bounds that hold at its scale, and checks them.
const CDR_VIEW_BOUNDS: [(&str, usize); 2] = [("V_premium", 512), ("V_north_towers", 64)];

/// Plan-size bound `M` of the CDR setting: the value the repo's serving
/// harness uses; every one of the nine rewritable templates fits under it.
const CDR_BOUND_M: usize = 120;
/// `M` of the movies setting (`Q_ξ` has size 8).
const MOVIES_BOUND_M: usize = 40;

/// Stand-ins for `cid` and `day` in the rendered CDR templates; no generated
/// value comes near them, so substituting them is unambiguous.
const CID_SENTINEL: i64 = 9_000_000_001;
const DAY_SENTINEL: i64 = 8_000_000_002;

/// One write of a churn cycle and what the first read after it must show.
#[derive(Debug, Clone)]
pub struct Write {
    pub relation: &'static str,
    pub tuple: Tuple,
    pub insert: bool,
    /// The statement read first after the acknowledgement.
    pub target: usize,
    /// The answer tuple the target statement gains while `tuple` is present
    /// (`None`: the write must leave every answer as it was).
    pub adds: Option<Tuple>,
    /// A view whose extent — and epoch — the write must not move.
    pub frozen_view: Option<&'static str>,
}

/// The never-prepared query texts of `cdr_adhoc_reads`.
#[derive(Debug, Clone)]
pub struct Adhoc {
    templates: Vec<String>,
    days: usize,
    total: u64,
    offset: u64,
}

impl Adhoc {
    /// The `k`-th text.  `k ↦ (cid, day, template)` walks the whole
    /// `customers × days × templates` space with a stride coprime to its
    /// size, so no text repeats before every text was used once.
    pub fn text(&self, k: u64) -> String {
        const STRIDE: u64 = 1_000_003;
        let idx = (self.offset + k.wrapping_mul(STRIDE)) % self.total;
        let templates = self.templates.len() as u64;
        let template = &self.templates[(idx % templates) as usize];
        let day = (idx / templates) % self.days as u64;
        let cid = idx / (templates * self.days as u64);
        template
            .replace(&CID_SENTINEL.to_string(), &cid.to_string())
            .replace(&DAY_SENTINEL.to_string(), &day.to_string())
    }
}

enum Generator {
    Cdr(cdr::CdrScale),
    Movies(movies::MovieScale),
}

/// Everything one workload family feeds the program.
pub struct Scenario {
    generator: Generator,
    pub setting: RewritingSetting,
    pub view_bounds: Vec<(&'static str, usize)>,
    /// The prepared statements, by name.
    pub queries: Vec<(String, ConjunctiveQuery)>,
    /// The churn cycle; applied in order it returns the instance to its
    /// generated state.
    pub writes: Vec<Write>,
    /// Reads after each write of the churn loop, chosen so that both read
    /// percentiles sit well inside one kind of read.  CDR: every first read
    /// after a write stalls (re-interning `calls`), so with 7 reads a seventh
    /// stall — `read_p90_us` is a stall, `read_p50_us` a warm read; with 3 the
    /// median sat on the edge between the first warm read after a stall
    /// (slow) and the second, and jumped 0.5–2 ms from run to run.  Movies:
    /// only the two `V1`-changing writes of the four make the next read slow,
    /// so with 3 reads a sixth are slow and `read_p90_us` is one of them; with
    /// 7 it would fall among the warm reads.
    pub reads_per_write: usize,
    /// How many traced writes fit in a second of `--seconds`: a write with
    /// its replay on the replica and its two first touches takes most of a
    /// second on the CDR instance, ~60 ms on the movies one.
    pub traced_writes_per_s: f64,
    pub adhoc: Option<Adhoc>,
}

impl Scenario {
    /// A fresh copy of the generated instance: same contents for the same
    /// seed, fresh relation epochs — so no snapshot or index interned for an
    /// earlier copy is reused.
    pub fn generate(&self) -> Database {
        match &self.generator {
            Generator::Cdr(scale) => cdr::generate(*scale),
            Generator::Movies(scale) => movies::generate(*scale),
        }
    }

    /// The CDR family (`cdr_hot_reads`, `cdr_adhoc_reads`, `cdr_fact_churn`).
    pub fn cdr(scale: &Scale, seed: u64) -> (Scenario, Database) {
        let cdr_scale = cdr::CdrScale {
            customers: scale.cdr_customers,
            days: scale.cdr_days,
            seed,
            ..cdr::CdrScale::default()
        };
        let db = cdr::generate(cdr_scale);
        let calls = db.relation("calls").expect("CDR has calls");
        let mut rng = Rng::new(seed, 0xC0);
        let pick = |rng: &mut Rng| {
            (
                rng.below(scale.cdr_customers) as i64,
                rng.below(scale.cdr_days) as i64,
            )
        };

        // Statement 0 (`callees_of_day`) reads the group the churn workload
        // writes into: it needs room for one more tuple under the `calls`
        // bound, or the write would break `D |= A`.
        let (cid0, day0) = loop {
            let (cid, day) = pick(&mut rng);
            let group = calls.select_eq(&[0, 1], &[Value::int(cid), Value::int(day)]);
            if group.len() < cdr_scale.max_calls_per_day {
                break (cid, day);
            }
        };
        let queries = (0..scale.cdr_statements)
            .map(|i| {
                let (cid, day) = if i == 0 { (cid0, day0) } else { pick(&mut rng) };
                let q = cdr::workload(cid, day).swap_remove(i % 9);
                assert!(q.expected_bounded, "templates 0..9 are rewritable");
                (format!("s{i:02}_{}", q.name), q.query)
            })
            .collect();

        // A callee id no customer has: the target's answer holds it exactly
        // while the written tuple is present.
        let ghost = scale.cdr_customers as i64 + 17;
        let written = tuple![cid0, day0, ghost, 60];
        assert!(!calls.contains(&written));
        let write = |insert| Write {
            relation: "calls",
            tuple: written.clone(),
            insert,
            target: 0,
            adds: Some(tuple![ghost]),
            frozen_view: None,
        };

        let templates = cdr::workload(CID_SENTINEL, DAY_SENTINEL)
            .into_iter()
            .filter(|q| q.expected_bounded)
            .map(|q| q.query.to_string())
            .collect::<Vec<_>>();
        let total = (scale.cdr_customers * scale.cdr_days * templates.len()) as u64;
        let adhoc = Adhoc {
            templates,
            days: scale.cdr_days,
            total,
            offset: rng.next() % total,
        };
        parse_cq(&adhoc.text(0)).expect("rendered ad-hoc texts parse");

        let scenario = Scenario {
            generator: Generator::Cdr(cdr_scale),
            setting: cdr::setting(&cdr_scale, CDR_BOUND_M),
            view_bounds: CDR_VIEW_BOUNDS.to_vec(),
            queries,
            writes: vec![write(true), write(false)],
            reads_per_write: 7,
            traced_writes_per_s: 0.6,
            adhoc: Some(adhoc),
        };
        (scenario, db)
    }

    /// The movies family (`movies_view_churn`): the paper's Fig. 1 setting,
    /// one `Q_ξ(studio, year)` statement per populated group.
    pub fn movies(scale: &Scale, seed: u64) -> (Scenario, Database) {
        let movie_scale = movies::MovieScale {
            persons: scale.movie_persons,
            movies: scale.movie_movies,
            n0: scale.movie_n0,
            seed,
        };
        let db = movies::generate(movie_scale);
        let movie = db.relation("movie").expect("movies has movie");
        let like = db.relation("like").expect("movies has like");

        let template = movies::q_xi().to_string();
        let mut groups: Vec<(Value, Value)> = Vec::new();
        let mut queries = Vec::new();
        for studio in movie.distinct_values(2) {
            for year in movie.distinct_values(3) {
                let text = template
                    .replace("\"Universal\"", &studio.to_string())
                    .replace("\"2014\"", &year.to_string());
                let name = format!("qxi_{}_{}", studio.render(), year.render());
                queries.push((name, parse_cq(&text).expect("Q_ξ(studio, year) parses")));
                groups.push((studio.clone(), year));
            }
        }
        let statement_of = |mid: &Value| {
            let m = movie.select_eq(&[0], std::slice::from_ref(mid))[0];
            groups
                .iter()
                .position(|(s, y)| *s == m[2] && *y == m[3])
                .expect("every movie is in a group")
        };

        // V1 = movies liked by a NASA person.  The writer `p` is the first
        // NASA person; (a) is a rating-5 movie outside V1, (b) a movie some
        // *other* NASA person likes and `p` does not.
        let nasa: Vec<Value> = db
            .relation("person")
            .expect("movies has person")
            .select_eq(&[2], &[Value::str("NASA")])
            .iter()
            .map(|t| t[0].clone())
            .collect();
        let p = nasa.first().expect("a NASA person exists").clone();
        let mut in_v1 = std::collections::BTreeSet::new();
        let mut liked_by_others = std::collections::BTreeSet::new();
        let mut liked_by_p = std::collections::BTreeSet::new();
        for t in like.iter() {
            if nasa.binary_search(&t[0]).is_ok() {
                in_v1.insert(t[1].clone());
                if t[0] == p {
                    liked_by_p.insert(t[1].clone());
                } else {
                    liked_by_others.insert(t[1].clone());
                }
            }
        }
        let top_rated = |mid: &Value| {
            db.relation("rating")
                .expect("movies has rating")
                .contains(&Tuple::new(vec![mid.clone(), Value::int(5)]))
        };
        let mut rng = Rng::new(seed, 0xF1);
        let outside: Vec<Value> = movie
            .distinct_values(0)
            .into_iter()
            .filter(|m| !in_v1.contains(m) && top_rated(m))
            .collect();
        assert!(
            !outside.is_empty(),
            "no rating-5 movie outside V1 at this scale and seed"
        );
        let a = outside[rng.below(outside.len())].clone();
        let inside: Vec<Value> = liked_by_others.difference(&liked_by_p).cloned().collect();
        let b = inside[rng.below(inside.len())].clone();

        let write = |mid: &Value, insert, joins_v1: bool| Write {
            relation: "like",
            tuple: Tuple::new(vec![p.clone(), mid.clone(), Value::str("movie")]),
            insert,
            target: statement_of(mid),
            adds: joins_v1.then(|| Tuple::new(vec![mid.clone()])),
            frozen_view: (!joins_v1).then_some("V1"),
        };
        let scenario = Scenario {
            generator: Generator::Movies(movie_scale),
            setting: movies::setting(scale.movie_n0, MOVIES_BOUND_M),
            view_bounds: Vec::new(),
            queries,
            writes: vec![
                write(&a, true, true),
                write(&a, false, true),
                write(&b, true, false),
                write(&b, false, false),
            ],
            reads_per_write: 3,
            traced_writes_per_s: 8.0,
            adhoc: None,
        };
        (scenario, db)
    }
}

/// One prepared statement as served.
pub struct Statement {
    pub name: String,
    pub query: ConjunctiveQuery,
    /// The plan's bound on fetched tuples, the paper's `|D_ξ|`.
    pub fetch_bound: usize,
    /// The answer (tuples and `FetchStats`) on the generated instance.
    pub golden: ExecOutput,
}

/// The program, set up and warm: what every workload runs against.
pub struct Served {
    pub server: Server,
    pub statements: Vec<Statement>,
    pub attach_s: f64,
    pub first_touch_s: f64,
    pub setup_s: f64,
}

/// Set the program up the way an embedder would, with nothing but defaults:
/// build the engine, attach the instance, wrap it in a server, prepare every
/// statement and execute each once (which finishes the lazy interning of
/// every relation and index the statements read).
pub fn set_up(scenario: &Scenario, db: Database) -> Served {
    let start = Instant::now();
    let mut builder = Engine::builder().setting(scenario.setting.clone());
    for (view, bound) in &scenario.view_bounds {
        builder = builder.annotate_view_bound(*view, *bound);
    }
    let engine = builder.build().expect("the scenario's setting is valid");
    let attach = Instant::now();
    engine.attach(db).expect("the generated instance attaches");
    let attach_s = attach.elapsed().as_secs_f64();
    let server = Server::new(engine);
    let bounds: Vec<usize> = scenario
        .queries
        .iter()
        .map(|(name, query)| {
            server
                .prepare(name, query.clone())
                .unwrap_or_else(|e| panic!("{name} has no bounded rewriting: {e}"))
        })
        .collect();
    let first_touch = Instant::now();
    let session = server.engine().session();
    let statements = scenario
        .queries
        .iter()
        .zip(bounds)
        .map(|((name, query), fetch_bound)| Statement {
            name: name.clone(),
            query: query.clone(),
            fetch_bound,
            golden: session
                .execute(name)
                .unwrap_or_else(|e| panic!("first execution of {name}: {e}")),
        })
        .collect();
    drop(session);
    Served {
        server,
        statements,
        attach_s,
        first_touch_s: first_touch.elapsed().as_secs_f64(),
        setup_s: start.elapsed().as_secs_f64(),
    }
}
