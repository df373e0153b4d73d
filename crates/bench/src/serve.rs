//! Serving benchmark harness for `bench_snapshot` and `benches/serve.rs`:
//! per-query latency (mean, p50, p99) and total throughput of single-query
//! serving at 2/4/8 closed-loop submitting threads, comparing the direct
//! per-thread-predictor path against the [`Service`] client path.
//!
//! Direct serving is the per-thread optimum (no admission, no counters).
//! The service runs the same `predict_one` on the caller's thread and adds
//! an admission `fetch_add`, `catch_unwind`, the counters and the sampled
//! latency timing, so its ratio to direct is the front door's overhead.
//! The tail percentiles are what the robustness layer watches: shedding is
//! tuned against p99, not the mean. The service's robustness counters
//! (shed / deadline / panics) ride along in the result — all zero in a
//! healthy run, so any non-zero value in a snapshot is itself a regression
//! signal.

use crate::predict::workload;
use bellamy_core::{Predictor, Service};
use bellamy_telemetry::nearest_rank;
use std::sync::Arc;
use std::time::Instant;

/// Queries each submitting thread issues per measurement.
pub const QUERIES_PER_THREAD: usize = 2000;

/// Warm-up queries each thread issues before its timed queries.
const WARMUP_PER_THREAD: usize = 200;

/// Submitting-thread counts of one run.
pub const THREADS: [usize; 3] = [2, 4, 8];

/// One (mode, thread-count) measurement.
#[derive(Debug, Clone)]
pub struct ServeBenchRow {
    /// `"direct"` or `"service"`.
    pub mode: &'static str,
    /// Submitting threads.
    pub threads: usize,
    /// Mean wall-clock µs per query, per submitting thread.
    pub us_per_query: f64,
    /// Median per-query latency in µs (across all threads' queries).
    pub p50_us: f64,
    /// 99th-percentile per-query latency in µs.
    pub p99_us: f64,
    /// Total queries per second across all threads.
    pub qps: f64,
}

/// All rows of one serving benchmark run.
pub struct ServeBenchResult {
    /// Measurements for both modes at each of [`THREADS`].
    pub rows: Vec<ServeBenchRow>,
    /// Robustness counters summed over the service runs: queries shed at
    /// admission, expired deadline budgets and caught forward-pass panics.
    /// A healthy benchmark records zeros; anything else is a regression
    /// worth investigating.
    pub shed: u64,
    /// See [`ServeBenchResult::shed`].
    pub deadline_expired: u64,
    /// See [`ServeBenchResult::shed`].
    pub panics: u64,
}

impl ServeBenchResult {
    /// The `(direct, service)` qps pair at `threads`.
    pub fn qps_pair(&self, threads: usize) -> Option<(f64, f64)> {
        let find = |mode: &str| {
            self.rows
                .iter()
                .find(|r| r.mode == mode && r.threads == threads)
                .map(|r| r.qps)
        };
        Some((find("direct")?, find("service")?))
    }
}

/// Runs the serving benchmark on the standard pre-trained SGD workload.
pub fn run() -> ServeBenchResult {
    let w = workload();
    let props = &w.props;
    let mut rows = Vec::new();
    let (mut shed, mut deadline_expired, mut panics) = (0, 0, 0);
    for threads in THREADS {
        // Direct serving: each thread owns a `Predictor` and queries the
        // shared snapshot one call at a time.
        rows.push(measure("direct", threads, || {
            let state = Arc::clone(&w.state);
            let mut predictor = Predictor::new();
            move |x| predictor.predict_one(&state, x, props)
        }));
        // Service serving: every thread predicts through a clone of one
        // client, sharing its admission window and counters.
        let service = Service::builder().build().expect("in-memory service");
        let client = service.client_for_state(Arc::clone(&w.state));
        rows.push(measure("service", threads, || {
            let client = client.clone();
            move |x| client.predict(x, props).expect("admitted")
        }));
        let stats = client.batcher_stats();
        shed += stats.shed;
        deadline_expired += stats.deadline_expired;
        panics += stats.panics;
    }
    ServeBenchResult {
        rows,
        shed,
        deadline_expired,
        panics,
    }
}

/// Times `threads` closed-loop submitters, each issuing single queries
/// through its own `make_query()` closure: a warm-up, then a barrier-free
/// timed run (threads start within microseconds of each other; the
/// workload dwarfs the skew).
fn measure<Q: FnMut(f64) -> f64>(
    mode: &'static str,
    threads: usize,
    make_query: impl Fn() -> Q + Sync,
) -> ServeBenchRow {
    let mut latencies: Vec<u64> = Vec::with_capacity(threads * QUERIES_PER_THREAD);
    let mut elapsed = 0.0;
    std::thread::scope(|scope| {
        let start = Instant::now();
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let make_query = &make_query;
                scope.spawn(move || {
                    let mut query = make_query();
                    for i in 0..WARMUP_PER_THREAD {
                        std::hint::black_box(query(2.0 + (i % 11) as f64));
                    }
                    let mut lat = Vec::with_capacity(QUERIES_PER_THREAD);
                    let mut acc = 0.0;
                    for i in 0..QUERIES_PER_THREAD {
                        let issued = Instant::now();
                        acc += query(2.0 + (i % 11) as f64);
                        lat.push(issued.elapsed().as_nanos() as u64);
                    }
                    std::hint::black_box(acc);
                    lat
                })
            })
            .collect();
        for handle in handles {
            latencies.extend(handle.join().expect("bench thread"));
        }
        elapsed = start.elapsed().as_secs_f64();
    });
    row(mode, threads, elapsed, &mut latencies)
}

/// Cost of the telemetry instrumentation on the steady-state client predict path:
/// single-thread µs/query with latency timing disabled vs enabled.
#[derive(Debug, Clone)]
pub struct TelemetryOverheadRow {
    /// Best-of-run µs per query with `bellamy_telemetry::set_timing_enabled(false)`.
    pub uninstrumented_us: f64,
    /// Best-of-run µs per query with timing enabled (the default).
    pub instrumented_us: f64,
    /// `(instrumented - uninstrumented) / uninstrumented * 100`. Can dip
    /// slightly negative on a noisy host; the acceptance bound is ≤ 2%.
    pub overhead_pct: f64,
}

/// Measures the predict-path cost of the latency-timing instrumentation
/// (the only telemetry the toggle gates — counters always run, exactly as
/// they did before the telemetry subsystem existed). The timing itself is
/// sampled 1-in-8 inside the admission gate, so the ON side pays one sampler
/// `fetch_add` per query plus an amortized `Instant` pair. OFF/ON runs are
/// interleaved and each side keeps its best of five windows, cancelling
/// frequency drift and background noise on shared hosts.
pub fn measure_telemetry_overhead() -> TelemetryOverheadRow {
    let w = workload();
    let service = Service::builder().build().expect("in-memory service");
    let client = service.client_for_state(Arc::clone(&w.state));
    let props = &w.props;
    for i in 0..WARMUP_PER_THREAD {
        std::hint::black_box(
            client
                .predict(2.0 + (i % 11) as f64, props)
                .expect("service is live"),
        );
    }
    let time_window = || {
        let start = Instant::now();
        let mut acc = 0.0;
        for i in 0..QUERIES_PER_THREAD {
            acc += client
                .predict(2.0 + (i % 11) as f64, props)
                .expect("service is live");
        }
        std::hint::black_box(acc);
        start.elapsed().as_secs_f64() / QUERIES_PER_THREAD as f64 * 1e6
    };
    let mut best_off = f64::INFINITY;
    let mut best_on = f64::INFINITY;
    for _ in 0..5 {
        bellamy_telemetry::set_timing_enabled(false);
        best_off = best_off.min(time_window());
        bellamy_telemetry::set_timing_enabled(true);
        best_on = best_on.min(time_window());
    }
    TelemetryOverheadRow {
        uninstrumented_us: best_off,
        instrumented_us: best_on,
        overhead_pct: (best_on - best_off) / best_off * 100.0,
    }
}

/// Nearest-rank percentile over a *sorted* nanosecond sample, in µs. The
/// rank selection is `bellamy_telemetry::nearest_rank` — the same shared
/// implementation the telemetry histograms use — so bench and runtime
/// percentiles can never disagree on convention.
fn percentile_us(sorted: &[u64], q: f64) -> f64 {
    nearest_rank(sorted, q) as f64 / 1e3
}

fn row(mode: &'static str, threads: usize, elapsed_s: f64, latencies: &mut [u64]) -> ServeBenchRow {
    latencies.sort_unstable();
    // Warm-up queries are inside the window; subtract them from neither
    // side — they are the same 10% for both modes.
    let per_thread = QUERIES_PER_THREAD + WARMUP_PER_THREAD;
    ServeBenchRow {
        mode,
        threads,
        us_per_query: elapsed_s / per_thread as f64 * 1e6,
        p50_us: percentile_us(latencies, 0.50),
        p99_us: percentile_us(latencies, 0.99),
        qps: (threads * per_thread) as f64 / elapsed_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_bench_produces_sane_numbers() {
        let r = run();
        assert_eq!(r.rows.len(), 6);
        for row in &r.rows {
            assert!(
                row.qps > 0.0,
                "{} @ {}: no throughput",
                row.mode,
                row.threads
            );
            assert!(row.us_per_query > 0.0);
            assert!(
                row.p50_us > 0.0,
                "{} @ {}: empty p50",
                row.mode,
                row.threads
            );
            assert!(
                row.p99_us >= row.p50_us,
                "{} @ {}: p99 below p50",
                row.mode,
                row.threads
            );
        }
        let (direct, service) = r.qps_pair(4).expect("4-thread rows exist");
        assert!(direct > 0.0 && service > 0.0);
        // A healthy benchmark never sheds, revokes, or panics.
        assert_eq!(
            (r.shed, r.deadline_expired, r.panics),
            (0, 0, 0),
            "robustness counters must stay zero under benchmark load"
        );
    }

    #[test]
    fn telemetry_overhead_is_finite_and_restores_timing() {
        let row = measure_telemetry_overhead();
        assert!(row.uninstrumented_us > 0.0);
        assert!(row.instrumented_us > 0.0);
        assert!(row.overhead_pct.is_finite());
        // The toggle must be back on after the measurement.
        assert!(bellamy_telemetry::timing_enabled());
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut lat: Vec<u64> = (0..=100).map(|i| i * 1000).collect();
        lat.sort_unstable();
        assert_eq!(percentile_us(&lat, 0.0), 0.0);
        assert_eq!(percentile_us(&lat, 0.50), 50.0);
        assert_eq!(percentile_us(&lat, 0.99), 99.0);
        assert_eq!(percentile_us(&lat, 1.0), 100.0);
        assert_eq!(percentile_us(&[], 0.99), 0.0);
    }
}
