//! Serving-path benchmark: direct per-thread-predictor single queries
//! against the `Service` front door's single queries, plus
//! the batched client entry point. The multi-thread snapshot equivalent is
//! recorded in `BENCH_serve.json` by `bench_snapshot`.

use bellamy_core::{Predictor, Service};
use bench::predict::workload;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

fn bench_serve(c: &mut Criterion) {
    let w = workload();
    let mut group = c.benchmark_group("serve");

    // The per-thread optimum: a warm predictor queried directly.
    let mut predictor = Predictor::new();
    group.bench_function("direct_single_query", |b| {
        b.iter(|| black_box(predictor.predict_one(&w.state, 6.0, &w.props)))
    });

    // The front door: the same single query through admission, panic
    // isolation and the counters, on this thread's predictor.
    let service = Service::builder().build().expect("in-memory service");
    let client = service.client_for_state(Arc::clone(&w.state));
    group.bench_function("service_single_query", |b| {
        b.iter(|| black_box(client.predict(6.0, &w.props).expect("admitted")))
    });

    // The batched client entry point on the standard 64-query sweep.
    group.bench_function("client_sweep_64", |b| {
        b.iter(|| black_box(client.predict_sweep(&w.props, &w.scale_outs)))
    });
    group.finish();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
