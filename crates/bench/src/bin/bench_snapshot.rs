//! Snapshots the train-step, predict, hub, and serve benchmarks to
//! `BENCH_train.json` / `BENCH_predict.json` / `BENCH_hub.json` /
//! `BENCH_serve.json` so successive PRs can track the trajectory of the
//! hot paths.
//!
//! ```text
//! cargo run --release -p bench --bin bench_snapshot \
//!     [-- <train-path> [predict-path [hub-path [serve-path]]]]
//! ```
//!
//! Train step: µs per minibatch step (default `PretrainConfig`, 900-sample
//! SGD workload) for the seed-style legacy step, the zero-allocation
//! sequential step, and the data-parallel step.
//!
//! Predict: µs per query on a 64-query scale-out sweep of one context, for
//! the seed-style per-query path (clone + re-encode + fresh graph + full
//! forward with decoder) and the batched arena-backed `Predictor`.
//!
//! Hub: recall latency (memory registry vs cold disk) and concurrent
//! shared-snapshot predict throughput at 1/2/4 threads.
//!
//! Serve: per-query latency and queries/s of single-query serving at
//! 2/4/8 submitting threads — direct per-thread predictor vs the
//! `Service` front door's client.

use bellamy_linalg::kernels::{self, KernelTable};
use bench::train_step::{workload, EpochRunner, StepImpl};
use bench::{hub, predict, serve};
use std::time::Instant;

/// The kernel backend every snapshot ran on, recorded in each JSON so a
/// number is never compared against one taken with a different backend
/// (`BELLAMY_KERNEL` can force scalar).
fn backend() -> &'static str {
    kernels::backend_name()
}

/// The full tier resolution (`requested -> resolved`), recorded alongside
/// the backend so a snapshot taken under a degraded request (e.g.
/// `BELLAMY_KERNEL=fma` on a host without FMA) is distinguishable from one
/// where the request was honored.
fn resolution_fields() -> String {
    let r = kernels::resolution();
    format!(
        "\"kernel_requested\": \"{}\",\n  \"kernel_resolved\": \"{}\"",
        r.requested_name(),
        r.resolved_name()
    )
}

/// Times `table.matmul` on one shape: µs per call, best of `reps` batches.
fn time_matmul(table: &KernelTable, m: usize, k: usize, n: usize, reps: usize) -> f64 {
    let a: Vec<f64> = (0..m * k).map(|i| (i as f64 * 0.13) - 3.0).collect();
    let b: Vec<f64> = (0..k * n).map(|i| (i as f64 * 0.29) - 7.0).collect();
    let mut out = vec![0.0; m * n];
    table.matmul(&a, &b, &mut out, m, k, n); // warm-up
    let inner = 64;
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..inner {
            table.matmul(&a, &b, &mut out, m, k, n);
        }
        best = best.min(t0.elapsed().as_secs_f64() / inner as f64);
    }
    std::hint::black_box(&out);
    best * 1e6
}

/// Exact-vs-Fast matmul comparison rows: the two Exact backends and the
/// Fast (FMA) table timed head to head on representative shapes, driven
/// through the tables directly so one process can measure both tiers
/// regardless of the process-wide dispatch. Shapes cover the n==8
/// register kernel the predict path leans on, the 40-wide decode GEMM,
/// and a larger blocked shape.
fn tier_comparison_json() -> String {
    let shapes: [(usize, usize, usize); 3] = [(64, 8, 8), (64, 40, 8), (128, 64, 64)];
    let scalar = kernels::scalar();
    let simd = kernels::simd();
    let fma = kernels::fma();
    let mut rows = Vec::new();
    for (m, k, n) in shapes {
        let scalar_us = time_matmul(scalar, m, k, n, 5);
        let simd_us = simd.map(|t| time_matmul(t, m, k, n, 5));
        let fma_us = fma.map(|t| time_matmul(t, m, k, n, 5));
        let fmt_opt = |v: Option<f64>| {
            v.map(|us| format!("{us:.3}"))
                .unwrap_or_else(|| "null".to_string())
        };
        let fast_vs_exact = match (simd_us.or(Some(scalar_us)), fma_us) {
            (Some(exact), Some(fast)) if fast > 0.0 => format!("{:.2}", exact / fast),
            _ => "null".to_string(),
        };
        eprintln!(
            "{:<22} scalar {scalar_us:8.3} us  simd {:>8} us  fma {:>8} us  fast_vs_exact {fast_vs_exact}x",
            format!("matmul_{m}x{k}x{n}"),
            fmt_opt(simd_us),
            fmt_opt(fma_us),
        );
        rows.push(format!(
            "    {{\"shape\": \"{m}x{k}x{n}\", \"scalar_us\": {scalar_us:.3}, \
             \"simd_us\": {}, \"fma_us\": {}, \"fast_vs_exact_speedup\": {fast_vs_exact}}}",
            fmt_opt(simd_us),
            fmt_opt(fma_us),
        ));
    }
    format!(
        "\"kernel_tiers\": {{\n    \"note\": \"exact-vs-fast matmul, tables driven directly; \
         null when the backend is unavailable on this host\",\n    \"unit\": \"us_per_call\",\n    \
         \"rows\": [\n{}\n    ]\n  }}",
        rows.join(",\n")
    )
}

fn main() {
    let train_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_train.json".to_string());
    let predict_path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "BENCH_predict.json".to_string());
    let hub_path = std::env::args()
        .nth(3)
        .unwrap_or_else(|| "BENCH_hub.json".to_string());
    let serve_path = std::env::args()
        .nth(4)
        .unwrap_or_else(|| "BENCH_serve.json".to_string());

    snapshot_train(&train_path);
    snapshot_predict(&predict_path);
    snapshot_hub(&hub_path);
    snapshot_serve(&serve_path);
}

fn snapshot_train(path: &str) {
    let samples = workload();
    let threads = bellamy_par::default_threads();

    let impls = [
        StepImpl::Legacy,
        StepImpl::Optimized,
        StepImpl::Parallel { workers: 0 },
    ];
    let mut results = Vec::new();
    for which in impls {
        let mut runner = EpochRunner::new(&samples, which);
        let us_per_step = runner.time_per_step(2, 8) * 1e6;
        eprintln!("{:<22} {us_per_step:9.1} us/step", which.label());
        results.push((which.label(), us_per_step));
    }

    let legacy = results[0].1;
    let entries: Vec<String> = results
        .iter()
        .map(|(name, us)| {
            format!(
                "    {{\"name\": \"{name}\", \"us_per_step\": {us:.1}, \"speedup_vs_legacy\": {:.2}}}",
                legacy / us
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"train_step\",\n  \"workload\": \"SGD C3O history, {} samples, \
         PretrainConfig::default() (batch 64)\",\n  \"machine_threads\": {threads},\n  \
         \"kernel_backend\": \"{}\",\n  {},\n  {},\n  \
         \"unit\": \"us_per_minibatch_step\",\n  \"results\": [\n{}\n  ]\n}}\n",
        samples.len(),
        backend(),
        resolution_fields(),
        tier_comparison_json(),
        entries.join(",\n")
    );
    std::fs::write(path, json).expect("write train benchmark snapshot");
    eprintln!("wrote {path}");
}

fn snapshot_predict(path: &str) {
    let w = predict::workload();
    let seed_us = w.time_seed_style(2, 10) * 1e6;
    eprintln!("{:<22} {seed_us:9.2} us/query", "predict_seed_style");
    let batched_us = w.time_batched(2, 50) * 1e6;
    eprintln!("{:<22} {batched_us:9.2} us/query", "predict_batched_64");

    let json = format!(
        "{{\n  \"benchmark\": \"predict\",\n  \"workload\": \"64-query scale-out sweep of one \
         SGD context, pre-trained default model\",\n  \"kernel_backend\": \"{}\",\n  {},\n  {},\n  \
         \"unit\": \"us_per_query\",\n  \
         \"results\": [\n    {{\"name\": \"seed_style_single\", \"us_per_query\": {seed_us:.2}, \
         \"speedup_vs_seed\": 1.00}},\n    {{\"name\": \"predictor_batch_64\", \
         \"us_per_query\": {batched_us:.2}, \"speedup_vs_seed\": {:.2}}}\n  ]\n}}\n",
        backend(),
        resolution_fields(),
        tier_comparison_json(),
        seed_us / batched_us
    );
    std::fs::write(path, json).expect("write predict benchmark snapshot");
    eprintln!("wrote {path}");
}

fn snapshot_hub(path: &str) {
    let r = hub::run();
    eprintln!("{:<22} {:9.2} us", "hub_recall_memory", r.recall_memory_us);
    let mut disk_entries = Vec::new();
    for d in &r.disk {
        eprintln!(
            "{:<22} {:9.2} us cold / {:8.2} us warm",
            format!("hub_recall_{}", d.mode),
            d.cold_us,
            d.warm_us
        );
        disk_entries.push(format!(
            "      {{\"recall_mode\": \"{}\", \"cold_us\": {:.2}, \"warm_us\": {:.2}}}",
            d.mode, d.cold_us, d.warm_us
        ));
    }
    let mut qps_entries = Vec::new();
    for (threads, qps) in &r.concurrent_qps {
        eprintln!("{:<22} {qps:9.0} q/s", format!("predict_{threads}_threads"));
        qps_entries.push(format!(
            "    {{\"threads\": {threads}, \"queries_per_second\": {qps:.0}}}"
        ));
    }
    let json = format!(
        "{{\n  \"benchmark\": \"hub\",\n  \"workload\": \"recall of one pretrained SGD model + \
         concurrent 64-query sweeps on one shared Arc<ModelState>\",\n  \
         \"kernel_backend\": \"{}\",\n  {},\n  \"recall\": {{\n    \
         \"memory_us\": {:.2},\n    \"disk\": [\n{}\n    ]\n  }},\n  \
         \"concurrent_predict\": [\n{}\n  ]\n}}\n",
        backend(),
        resolution_fields(),
        r.recall_memory_us,
        disk_entries.join(",\n"),
        qps_entries.join(",\n")
    );
    std::fs::write(path, json).expect("write hub benchmark snapshot");
    eprintln!("wrote {path}");
}

fn snapshot_serve(path: &str) {
    let r = serve::run();
    let mut entries = Vec::new();
    for row in &r.rows {
        eprintln!(
            "{:<26} {:9.2} us/query (p50 {:.1} p99 {:.1}) {:9.0} q/s",
            format!("{}_{}_threads", row.mode, row.threads),
            row.us_per_query,
            row.p50_us,
            row.p99_us,
            row.qps,
        );
        entries.push(format!(
            "    {{\"mode\": \"{}\", \"threads\": {}, \"us_per_query\": {:.2}, \
             \"p50_us\": {:.2}, \"p99_us\": {:.2}, \
             \"queries_per_second\": {:.0}}}",
            row.mode, row.threads, row.us_per_query, row.p50_us, row.p99_us, row.qps,
        ));
    }
    let ratio_4t = r
        .qps_pair(4)
        .map(|(direct, service)| service / direct)
        .unwrap_or(f64::NAN);
    eprintln!("{:<26} {ratio_4t:9.2}x", "service_vs_direct_4t");
    eprintln!(
        "{:<26} shed {} deadline_expired {} panics {}",
        "robustness_counters", r.shed, r.deadline_expired, r.panics
    );
    let overhead = serve::measure_telemetry_overhead();
    eprintln!(
        "{:<26} {:9.2} us/query off, {:.2} us/query on ({:+.2}%)",
        "telemetry_overhead",
        overhead.uninstrumented_us,
        overhead.instrumented_us,
        overhead.overhead_pct
    );
    let json = format!(
        "{{\n  \"benchmark\": \"serve\",\n  \"workload\": \"single-query serving of one \
         pre-trained SGD model, {} queries/thread, direct per-thread Predictor vs \
         Service client\",\n  \
         \"kernel_backend\": \"{}\",\n  {},\n  \
         \"service_vs_direct_qps_at_4_threads\": {ratio_4t:.2},\n  \
         \"robustness\": {{\"shed\": {}, \"deadline_expired\": {}, \"panics\": {}}},\n  \
         \"telemetry_overhead\": {{\"uninstrumented_us_per_query\": {:.2}, \
         \"instrumented_us_per_query\": {:.2}, \"overhead_pct\": {:.2}}},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        serve::QUERIES_PER_THREAD,
        backend(),
        resolution_fields(),
        r.shed,
        r.deadline_expired,
        r.panics,
        overhead.uninstrumented_us,
        overhead.instrumented_us,
        overhead.overhead_pct,
        entries.join(",\n")
    );
    std::fs::write(path, json).expect("write serve benchmark snapshot");
    eprintln!("wrote {path}");
}
