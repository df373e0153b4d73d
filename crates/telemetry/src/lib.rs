//! Zero-overhead runtime observability for the Bellamy serving stack.
//!
//! This crate is the bottom layer of the workspace (even `bellamy_linalg`
//! depends on it) and therefore depends on nothing but `std`. It provides
//! three things:
//!
//! 1. **Lock-free metric primitives** — [`Counter`], [`Gauge`], and a
//!    fixed-bucket log₂-scale latency [`Histogram`] whose record path is a
//!    single relaxed `fetch_add`: no locks, no allocation, safe to call from
//!    the zero-alloc steady-state serving paths. Handles are resolved once
//!    (owned by the instrumented component, or via the process-wide
//!    [`global()`] registry behind a `OnceLock`, the same pattern as
//!    `bellamy_linalg::kernels`).
//! 2. **A structured event log** — a bounded ring buffer ([`EventLog`],
//!    process-global via [`events()`]) for *rare* events: kernel-tier
//!    degradation, checkpoint quarantine, forward-pass panics caught on the
//!    serve path, injected faults. Recording an event takes a
//!    mutex and may allocate; none of these events fire on the hot path.
//! 3. **Exporters** — [`TelemetrySnapshot`], a typed point-in-time read of
//!    every metric, with JSON ([`TelemetrySnapshot::to_json`]) and
//!    Prometheus text ([`TelemetrySnapshot::to_prometheus`]) rendering.
//!    `bellamy_core::Service::telemetry()` assembles one from the live
//!    counters.
//!
//! "Consistent" here means each individual metric is read atomically and the
//! whole snapshot is taken in one pass; counters incremented concurrently
//! with the read may land on either side of it, as with any lock-free
//! registry.
//!
//! # Metric reference
//!
//! | name | type | unit | emitted by |
//! |------|------|------|-----------|
//! | `bellamy_serve_queries_total` | counter | queries | core/serve (single queries served) |
//! | `bellamy_serve_shed_total` | counter | queries | core/serve |
//! | `bellamy_serve_deadline_expired_total` | counter | queries | core/serve |
//! | `bellamy_serve_panics_total` | counter | panics | core/serve |
//! | `bellamy_serve_inflight` | gauge | queries | core/serve (admission in-flight count) |
//! | `bellamy_serve_submit_latency_seconds` | histogram | seconds | core/serve (admission → return, sampled 1-in-8) |
//! | `bellamy_hub_memory_recalls_total` | counter | recalls | core/hub |
//! | `bellamy_hub_disk_recalls_total` | counter | recalls | core/hub |
//! | `bellamy_hub_pretrains_total` | counter | trainings | core/hub |
//! | `bellamy_hub_finetune_hits_total` | counter | recalls | core/hub |
//! | `bellamy_hub_finetunes_total` | counter | trainings | core/hub |
//! | `bellamy_hub_disk_retries_total` | counter | retries | core/hub |
//! | `bellamy_hub_quarantined_total` | counter | checkpoints | core/hub |
//! | `bellamy_hub_recall_latency_seconds{mode}` | histogram | seconds | core/hub (`mode` ∈ deserialize, mmap) |
//! | `bellamy_predict_batch_rows` | histogram | rows | core/predictor (forward-pass batch sizes) |
//! | `bellamy_predict_queries_total` | counter | rows | core/predictor |
//! | `bellamy_train_steps_total` | counter | steps | core/train |
//! | `bellamy_train_step_latency_seconds` | histogram | seconds | core/train (per optimizer step) |
//! | `bellamy_kernel_info{requested,resolved,source}` | gauge | — | linalg/kernels (constant 1) |
//! | `bellamy_kernel_degraded` | gauge | — | linalg/kernels (1 if tier degraded) |
//!
//! # Event kinds
//!
//! See [`event_kind`]: `kernel.degraded`, `hub.quarantine`, `serve.panic`,
//! `fault.injected`.
//!
//! # Timing toggle
//!
//! [`set_timing_enabled`] gates only the *supplemental latency timing* added
//! by this crate (the `Instant::now()` pair + histogram record on the
//! single-query predict path — itself gated behind a 1-in-8 [`Sampler`], because a clock read
//! costs more than the whole record path). Counters are never gated: they
//! are the single source of truth behind `BatcherStats`/`HubStats`. The
//! bench harness uses the toggle to measure instrumented-vs-uninstrumented
//! overhead.

mod events;
mod metrics;
mod snapshot;

pub use events::{event_kind, events, process_start, Event, EventLog};
pub use metrics::{
    nearest_rank, Counter, Gauge, Histogram, HistogramSnapshot, Sampler, NUM_BUCKETS,
};
pub use snapshot::{MetricValue, Sample, TelemetrySnapshot};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Process-wide metrics that do not belong to any one `Service`/`ModelHub`
/// instance: predictor batch-size distribution and train step timing.
///
/// Handles are resolved once through a `OnceLock` (the same pattern as
/// `bellamy_linalg::kernels::resolution()`); after the first call every
/// access is a plain shared reference and every record is one `fetch_add`.
pub struct GlobalMetrics {
    /// Distribution of rows per forward pass (unit: rows).
    pub predict_batch_rows: Histogram,
    /// Total rows pushed through the forward pass.
    pub predict_queries: Counter,
    /// Total optimizer steps taken.
    pub train_steps: Counter,
    /// Per-step wall time (recorded in nanoseconds).
    pub train_step_nanos: Histogram,
}

impl GlobalMetrics {
    const fn new() -> Self {
        Self {
            predict_batch_rows: Histogram::new(),
            predict_queries: Counter::new(),
            train_steps: Counter::new(),
            train_step_nanos: Histogram::new(),
        }
    }
}

static GLOBAL: OnceLock<GlobalMetrics> = OnceLock::new();

/// The process-wide metric registry. First call initialises it; subsequent
/// calls are a single atomic load.
pub fn global() -> &'static GlobalMetrics {
    GLOBAL.get_or_init(GlobalMetrics::new)
}

static TIMING: AtomicBool = AtomicBool::new(true);

/// Enable or disable the supplemental latency timing instrumentation
/// (defaults to enabled). Counters and the event log are unaffected.
pub fn set_timing_enabled(on: bool) {
    TIMING.store(on, Ordering::Relaxed);
}

/// Whether latency timing instrumentation is currently enabled.
#[inline]
pub fn timing_enabled() -> bool {
    TIMING.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_a_singleton() {
        let a = global() as *const GlobalMetrics;
        let b = global() as *const GlobalMetrics;
        assert_eq!(a, b);
    }

    #[test]
    fn timing_toggle_round_trips() {
        assert!(timing_enabled());
        set_timing_enabled(false);
        assert!(!timing_enabled());
        set_timing_enabled(true);
        assert!(timing_enabled());
    }
}
