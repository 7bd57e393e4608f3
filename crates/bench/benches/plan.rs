//! Criterion bench for plan execution: the compiled operator pipeline
//! (interned ids, hash joins, id-native fetches) versus the retained
//! tree-walking interpreter (`exec::reference`).  The committed rows live
//! in `BENCH_plan.json` (harness `plan` mode).

use bqr_bench::plan_bench;
use bqr_plan::exec::{reference, ExecOptions, Pipeline};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// Reference interpreter vs compiled pipeline (compile once, execute per
/// iteration) on every plan-execution case.
fn bench_plan_executors(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_exec");
    group.sample_size(10);
    for case in plan_bench::cases() {
        group.bench_with_input(
            BenchmarkId::new("reference", case.name),
            &case,
            |b, case| b.iter(|| reference::execute(&case.plan, &case.idb, &case.views).unwrap()),
        );
        group.bench_with_input(BenchmarkId::new("compiled", case.name), &case, |b, case| {
            let pipeline = Pipeline::compile(&case.plan, &case.idb, &case.views).unwrap();
            let options = ExecOptions::default();
            b.iter(|| pipeline.execute(&case.idb, &options).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_plan_executors);
criterion_main!(benches);
