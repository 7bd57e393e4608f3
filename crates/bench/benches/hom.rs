//! Criterion bench for the homomorphism engine: repeated containment checks
//! (same query pair, 1000×) through the slot-based engine with cached
//! relation indexes versus the retained pre-refactor `BTreeMap` engine, plus
//! single-shot homomorphism enumeration over a generated instance.

use bqr_bench::hom_bench;
use bqr_query::containment::ContainmentChecker;
use bqr_query::eval::Evaluator;
use bqr_query::hom::{enumerate_homomorphisms, reference, Assignment, MatchLimit};
use bqr_workload::movies;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::BTreeMap;

/// The headline number: 1000 containment checks of the same pair.  The
/// baseline rebuilds canonical instance and indexes per check (pre-refactor
/// behaviour); the slot engine reuses both through a `ContainmentChecker`.
fn bench_repeated_containment(c: &mut Criterion) {
    const REPEATS: usize = 1_000;
    let mut group = c.benchmark_group("repeated_containment_1000x");
    group.sample_size(10);
    for case in hom_bench::cases() {
        group.bench_with_input(BenchmarkId::new("baseline", case.name), &case, |b, case| {
            b.iter(|| {
                for _ in 0..REPEATS {
                    let got =
                        hom_bench::reference_cq_contained_in(&case.q1, &case.q2, &case.schema);
                    assert_eq!(got, case.expected);
                }
            })
        });
        group.bench_with_input(
            BenchmarkId::new("slot_cached", case.name),
            &case,
            |b, case| {
                b.iter(|| {
                    let checker = ContainmentChecker::new(&case.schema);
                    for _ in 0..REPEATS {
                        let got = checker.cq_contained_in(&case.q1, &case.q2).unwrap();
                        assert_eq!(got, case.expected);
                    }
                })
            },
        );
    }
    group.finish();
}

/// One-shot enumeration over a generated movie instance: slot engine vs
/// reference engine, cold caches on both sides.
fn bench_enumeration(c: &mut Criterion) {
    let db = movies::generate(movies::MovieScale {
        persons: 2_000,
        movies: 500,
        n0: 50,
        seed: 11,
    });
    let rels: BTreeMap<String, &bqr_data::Relation> =
        db.relations().map(|r| (r.name().to_string(), r)).collect();
    let atoms = movies::q0().atoms().to_vec();
    let mut group = c.benchmark_group("hom_enumeration");
    group.sample_size(10);
    group.bench_function("slot", |b| {
        b.iter(|| {
            enumerate_homomorphisms(
                &atoms,
                &rels,
                &Assignment::new(),
                MatchLimit::AtMost(100_000),
            )
            .unwrap()
        })
    });
    group.bench_function("reference", |b| {
        b.iter(|| {
            reference::enumerate_homomorphisms(
                &atoms,
                &rels,
                &Assignment::new(),
                MatchLimit::AtMost(100_000),
            )
            .unwrap()
        })
    });
    group.finish();
}

/// Repeated CQ evaluation against one instance: a shared `Evaluator` (warm
/// index cache) vs the one-shot free function (cold cache per call).
fn bench_repeated_eval(c: &mut Criterion) {
    let db = movies::generate(movies::MovieScale {
        persons: 2_000,
        movies: 500,
        n0: 50,
        seed: 11,
    });
    let q0 = movies::q0();
    let mut group = c.benchmark_group("repeated_eval_100x");
    group.sample_size(10);
    group.bench_function("warm_evaluator", |b| {
        let evaluator = Evaluator::new();
        b.iter(|| {
            for _ in 0..100 {
                evaluator.eval_cq(&q0, &db, None).unwrap();
            }
        })
    });
    group.bench_function("cold_per_call", |b| {
        b.iter(|| {
            for _ in 0..100 {
                bqr_query::eval::eval_cq(&q0, &db, None).unwrap();
            }
        })
    });
    group.finish();
}

/// Planner cases: cyclic / skewed workloads evaluated by the pre-refactor
/// reference engine versus the slot engine's cost-based atom order.
fn bench_planner_vs_reference(c: &mut Criterion) {
    let mut group = c.benchmark_group("planner_vs_reference");
    group.sample_size(10);
    for case in hom_bench::eval_cases() {
        group.bench_with_input(
            BenchmarkId::new("reference", case.name),
            &case,
            |b, case| b.iter(|| hom_bench::reference_eval_cq(&case.query, &case.db)),
        );
        group.bench_with_input(BenchmarkId::new("planner", case.name), &case, |b, case| {
            let evaluator = Evaluator::new();
            b.iter(|| evaluator.eval_cq(&case.query, &case.db, None).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_repeated_containment,
    bench_enumeration,
    bench_repeated_eval,
    bench_planner_vs_reference
);
criterion_main!(benches);
