//! E14 — set-at-a-time planned algebra vs the tuple-at-a-time evaluator.
//!
//! The planner (`itq_algebra::plan`) rewrites `σ_F(A × B)` shapes into hash /
//! member joins with pushed-down selections and fused projections, and the
//! executor runs them over `ValueId`-interned relations; the tuple-at-a-time
//! evaluator materialises the full Cartesian product first.  This bench
//! quantifies the gap on the product-heavy grid shared with
//! `report --algebra-json` (`itq_bench::algebra_exec_workloads`): grandparent
//! and sibling via `Product`+`Select` and a quadratic self-pairs filter.
//!
//! Both engines share one `Prepared` handle per expression, so the measured
//! difference is purely the execute phase — planning happens once, at prepare
//! time, and is amortised exactly like the Theorem 3.8 compilation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use itq_bench::algebra_exec_workloads;
use itq_core::prelude::*;

fn bench_planned_vs_tuple(c: &mut Criterion) {
    let mut group = c.benchmark_group("E14/planned-vs-tuple");
    group.sample_size(10);
    let planner_engine = Engine::new();
    let tuple_engine = Engine::builder().backend(Backend::Compiled).build();
    for (name, expr, schema, db) in algebra_exec_workloads() {
        let planned = planner_engine.prepare_algebra(&expr, &schema).unwrap();
        let tuple = tuple_engine.prepare_algebra(&expr, &schema).unwrap();
        // The answers are identical by the backend-differential contract;
        // assert it here too so a bench run can never record a lie.
        assert_eq!(
            planned.execute(&db, Semantics::Limited).unwrap().result,
            tuple.execute(&db, Semantics::Limited).unwrap().result,
            "{name}"
        );
        group.bench_with_input(BenchmarkId::new("planned", name), &db, |b, db| {
            b.iter(|| {
                planned
                    .execute(db, Semantics::Limited)
                    .unwrap()
                    .result
                    .len()
            })
        });
        group.bench_with_input(BenchmarkId::new("tuple", name), &db, |b, db| {
            b.iter(|| tuple.execute(db, Semantics::Limited).unwrap().result.len())
        });
    }
    group.finish();
}

/// Prepare-time cost of planning: the planner runs once per handle, so its
/// overhead must stay ignorable next to the Theorem 3.8 compilation that
/// shares the prepare step.
fn bench_prepare_with_planner(c: &mut Criterion) {
    let mut group = c.benchmark_group("E14/prepare");
    group.sample_size(10);
    let engine = Engine::new();
    let (name, expr, schema, _) = algebra_exec_workloads().remove(0);
    group.bench_function(name, |b| {
        b.iter(|| engine.prepare_algebra(&expr, &schema).unwrap().is_algebra())
    });
    group.finish();
}

criterion_group!(benches, bench_planned_vs_tuple, bench_prepare_with_planner);
criterion_main!(benches);
