//! `bellamy::serve` — the unified serving front door.
//!
//! Everything below this module already exists as parts: the [`ModelHub`]
//! registry, `Arc`-shared [`ModelState`] snapshots, the allocation-free
//! [`Predictor`]. What callers had to do by hand — build a key, recall,
//! snapshot, keep a per-thread predictor, drive fine-tune strategies — is
//! one object here: a [`Service`] built via [`Service::builder`] hands out
//! cheap, cloneable [`ModelClient`] handles per [`ModelKey`], and every
//! client serves through the same shared machinery.
//!
//! # Caller → predictor lifecycle
//!
//! ```text
//!   caller ──predict()──► admission gate ──► Predictor::with_thread_local
//!     ▲                   (one per model)     └─ predict_one, on the
//!     │                                          caller's own thread
//!     └──────── value, or a typed error ◄────────┘
//! ```
//!
//! 1. **Admit.** [`ModelClient::predict`] takes one slot of its model's
//!    admission window — one `fetch_add` — or sheds.
//! 2. **Predict.** The query runs on the calling thread through that
//!    thread's warm [`Predictor`] arena, inside `catch_unwind`. There is no
//!    queue, no handoff and no serving thread: a Bellamy model is ~13 KB
//!    and one query takes a few microseconds, so coalescing queries across
//!    callers cannot pay for the handoffs it needs. Results are the
//!    [`Predictor::predict_one`] values, bit-identical on every thread
//!    (proven under 8 concurrent callers in `crates/core/tests/serve.rs`).
//! 3. **Return.** The slot is released — by an RAII guard, so also on a
//!    panic — and the value returned. Allocation-free at steady state.
//!
//! Already-batched work — [`ModelClient::predict_batch`],
//! [`ModelClient::predict_sweep`], [`ModelClient::recommend_scale_out`] —
//! runs on the same thread-local arena without the admission gate.
//!
//! Every client of one `Arc<ModelState>` shares one gate: one set of
//! counters ([`BatcherStats`], [`Service::telemetry`]) and one admission
//! window. The service keeps the gates in a registry keyed by snapshot
//! identity and reaps those no client holds anymore. A gate owns no thread,
//! so serving a model never spawns one.
//!
//! # Failure semantics
//!
//! Every failure is typed, counted, and tells the caller what to do next:
//!
//! | error | cause | caller action | counter |
//! |---|---|---|---|
//! | [`BellamyError::Overloaded`] | admission window ([`BatcherConfig::max_inflight`]) full — more concurrent callers of this model than it admits | back off `retry_after_hint`, retry | [`BatcherStats::shed`] |
//! | [`BellamyError::DeadlineExceeded`] | the query's budget ([`BatcherConfig::deadline`] / [`ModelClient::predict_with_deadline`]) was already spent at admission | retry with a budget | [`BatcherStats::deadline_expired`] |
//! | [`BellamyError::BatchPanicked`] | the forward pass panicked; only this call failed | retry (the next call serves normally) | [`BatcherStats::panics`] |
//!
//! The pieces behind the table:
//!
//! - **Admission control.** At most [`BatcherConfig::max_inflight`] single
//!   queries run at once per model. Beyond that, `predict` *sheds* — fails
//!   fast with [`BellamyError::Overloaded`] — instead of piling more
//!   threads onto a saturated model. The retry hint is the recent predict
//!   time (an EWMA over the sampled latencies), never below 50 µs.
//! - **Deadline budgets.** A query is claimed the moment it is admitted:
//!   nothing waits between admission and the forward pass. So, by the
//!   rule that a claimed query is always delivered, an admitted query
//!   returns its value even if the pass ends past the budget. Only a budget
//!   already spent at admission — a zero budget — gets
//!   [`BellamyError::DeadlineExceeded`], without taking a window slot.
//! - **Panic isolation.** A panic in the forward pass fails only its own
//!   call ([`BellamyError::BatchPanicked`]). The unwind releases the
//!   thread's predictor and the admission slot, so the next call on the
//!   same thread serves normally and bit-identically.
//! - **Fault injection.** Each single-query predict hits the
//!   [`crate::faults::SERVE_PREDICT`] failpoint inside the thread's
//!   predictor borrow, so tests inject mid-call panics and artificial
//!   latency deterministically; the hub's disk paths carry their own
//!   failpoints.
//!
//! Errors from every layer surface as one [`BellamyError`].

use crate::allocation::{cheapest_scale_out, min_scale_out_meeting, ScaleOutRecommendation};
use crate::config::{FinetuneConfig, PretrainConfig};
use crate::error::BellamyError;
use crate::faults;
use crate::features::{ContextProperties, TrainingSample};
use crate::finetune::ReuseStrategy;
use crate::hub::{HubStats, ModelHub, ModelKey, RecallMode};
use crate::model::Bellamy;
use crate::predictor::{PredictQuery, Predictor};
use crate::state::ModelState;
use bellamy_linalg::kernels::{self, RequestSource, TierRequest};
use bellamy_telemetry::{
    self as telemetry, event_kind, Counter, Histogram, Sampler, TelemetrySnapshot,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Limits of one model's single-query serving path.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatcherConfig {
    /// Admission window: the most single queries one model serves at once,
    /// across all of its clients, before `predict` sheds with
    /// [`BellamyError::Overloaded`]. `0` (the default) means 256.
    pub max_inflight: usize,
    /// Default per-query deadline budget. `None` (the default): no budget.
    /// [`ModelClient::predict_with_deadline`] overrides this per call. See
    /// the module docs for what a direct call does with a budget.
    pub deadline: Option<Duration>,
}

/// The admission window used when [`BatcherConfig::max_inflight`] is 0.
const DEFAULT_MAX_INFLIGHT: u64 = 256;

/// Operation counters of one model's single-query serving path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatcherStats {
    /// Single queries served. Shed, expired and panicked calls are not
    /// counted.
    pub queries: u64,
    /// Forward passes run for single queries. Every query is its own pass,
    /// so this equals `queries`.
    pub batches: u64,
    /// Always 0: no query is served on another caller's thread. The field
    /// remains only until the benchmark is next revised.
    pub assist_flushes: u64,
    /// Queries shed at admission because [`BatcherConfig::max_inflight`]
    /// was reached ([`BellamyError::Overloaded`]).
    pub shed: u64,
    /// Queries turned away because their deadline budget was already spent
    /// at admission ([`BellamyError::DeadlineExceeded`]).
    pub deadline_expired: u64,
    /// Forward-pass panics caught; each failed exactly its own call with
    /// [`BellamyError::BatchPanicked`].
    pub panics: u64,
    /// Always 0: there is no serving loop to restart. The field remains
    /// only until the benchmark is next revised.
    pub restarts: u64,
}

/// Every `N`-th served query pays the latency clock pair.
const LATENCY_SAMPLE_PERIOD: u64 = 8;

/// The shared serving state of one model: its admission window and the
/// counters every client of the snapshot reports into. Holds no thread.
///
/// The counters are the single source of truth: [`BatcherStats`] and
/// [`Service::telemetry`] are both snapshot reads of these handles, so the
/// two views cannot drift.
struct Gate {
    /// The served snapshot; held so its address — the registry key — stays
    /// unique while the gate lives.
    state: Arc<ModelState>,
    max_inflight: u64,
    deadline: Option<Duration>,
    /// Queries admitted and not yet returned.
    inflight: AtomicU64,
    /// EWMA of sampled predict time in nanoseconds (feeds the
    /// [`BellamyError::Overloaded`] retry hint).
    predict_nanos: AtomicU64,
    queries: Counter,
    shed: Counter,
    deadline_expired: Counter,
    panics: Counter,
    /// Gates the latency `Instant` pair to 1 in [`LATENCY_SAMPLE_PERIOD`]
    /// queries: a clock read costs more than the entire rest of the record
    /// path (~75 ns on VM hosts without a vDSO fast path), so timing every
    /// query would dominate the instrumentation budget on µs-scale calls.
    sampler: Sampler,
    /// Sampled admission → return latency in nanoseconds. Recorded only
    /// while `bellamy_telemetry::timing_enabled()` (the default); the record
    /// is one `fetch_add`, keeping the path allocation-free.
    latency: Histogram,
}

impl Gate {
    fn new(state: Arc<ModelState>, cfg: &BatcherConfig) -> Self {
        Self {
            state,
            max_inflight: match cfg.max_inflight {
                0 => DEFAULT_MAX_INFLIGHT,
                n => n as u64,
            },
            deadline: cfg.deadline,
            inflight: AtomicU64::new(0),
            predict_nanos: AtomicU64::new(0),
            queries: Counter::new(),
            shed: Counter::new(),
            deadline_expired: Counter::new(),
            panics: Counter::new(),
            sampler: Sampler::every(LATENCY_SAMPLE_PERIOD),
            latency: Histogram::new(),
        }
    }

    /// Human-readable identity of the served model for events and metric
    /// labels: the hub registry key, or `<unkeyed>` for ad hoc snapshots.
    fn model_label(&self) -> &str {
        self.state.registry_key().unwrap_or("<unkeyed>")
    }

    /// How long a shed caller should back off: the recent predict time,
    /// roughly when one admitted query will have left the window.
    fn retry_after_hint(&self) -> Duration {
        Duration::from_nanos(self.predict_nanos.load(Ordering::Relaxed))
            .max(Duration::from_micros(50))
    }

    /// Records one sampled latency and folds it into the EWMA (weight 1/4 —
    /// responsive to load shifts, stable against single outliers).
    fn record_latency(&self, elapsed: Duration) {
        self.latency.record_duration(elapsed);
        let sample = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        let old = self.predict_nanos.load(Ordering::Relaxed);
        let new = if old == 0 {
            sample
        } else {
            old - old / 4 + sample / 4
        };
        self.predict_nanos.store(new, Ordering::Relaxed);
    }

    /// Admits one query and predicts it on this thread; see the module
    /// docs for the failure semantics.
    fn predict(
        &self,
        scale_out: f64,
        props: &ContextProperties,
        deadline: Option<Duration>,
    ) -> Result<f64, BellamyError> {
        if deadline.is_some_and(|d| d.is_zero()) {
            self.deadline_expired.inc();
            return Err(BellamyError::DeadlineExceeded);
        }
        if self.inflight.fetch_add(1, Ordering::AcqRel) >= self.max_inflight {
            self.inflight.fetch_sub(1, Ordering::AcqRel);
            self.shed.inc();
            return Err(BellamyError::Overloaded {
                retry_after_hint: self.retry_after_hint(),
            });
        }
        let _admission = AdmissionGuard(&self.inflight);
        // Supplemental latency timing: one `Instant` pair plus one
        // histogram `fetch_add`, paid by 1 query in 8 and gated so the bench
        // harness can measure its cost. Allocation-free either way.
        let started = (telemetry::timing_enabled() && self.sampler.tick()).then(Instant::now);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Predictor::with_thread_local(|p| {
                let _ = faults::SERVE_PREDICT.check();
                p.predict_one(&self.state, scale_out, props)
            })
        }));
        match outcome {
            Ok(value) => {
                if let Some(t0) = started {
                    self.record_latency(t0.elapsed());
                }
                self.queries.inc();
                Ok(value)
            }
            Err(_) => {
                self.panics.inc();
                telemetry::events().record(
                    event_kind::SERVE_PANIC,
                    format!(
                        "model `{}`: forward pass panicked; only its own call failed",
                        self.model_label()
                    ),
                );
                Err(BellamyError::BatchPanicked)
            }
        }
    }

    fn stats(&self) -> BatcherStats {
        let queries = self.queries.get();
        BatcherStats {
            queries,
            batches: queries,
            shed: self.shed.get(),
            deadline_expired: self.deadline_expired.get(),
            panics: self.panics.get(),
            ..BatcherStats::default()
        }
    }

    /// Contributes this gate's metrics to a telemetry snapshot, labelled by
    /// the served model's registry key.
    fn collect_telemetry(&self, snap: &mut TelemetrySnapshot) {
        let labels = || vec![("model", self.model_label().to_string())];
        for (name, unit, help, value) in [
            (
                "bellamy_serve_queries_total",
                "queries",
                "Single queries served.",
                self.queries.get(),
            ),
            (
                "bellamy_serve_shed_total",
                "queries",
                "Queries shed at admission (max_inflight reached).",
                self.shed.get(),
            ),
            (
                "bellamy_serve_deadline_expired_total",
                "queries",
                "Queries whose deadline budget was spent at admission.",
                self.deadline_expired.get(),
            ),
            (
                "bellamy_serve_panics_total",
                "panics",
                "Forward-pass panics caught (each failed only its own call).",
                self.panics.get(),
            ),
        ] {
            snap.push_counter(name, labels(), unit, help, value);
        }
        snap.push_gauge(
            "bellamy_serve_inflight",
            labels(),
            "queries",
            "Single queries currently admitted.",
            self.inflight.load(Ordering::Relaxed) as i64,
        );
        snap.push_histogram(
            "bellamy_serve_submit_latency_seconds",
            labels(),
            "seconds",
            "Admission-to-return latency of single queries, sampled 1 in 8.",
            self.latency.snapshot(),
        );
    }
}

/// Releases one admission slot on every `predict` exit, including a
/// panicking forward pass.
struct AdmissionGuard<'a>(&'a AtomicU64);

impl Drop for AdmissionGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The service's fine-tuning defaults, applied by
/// [`Service::finetuned_client`].
#[derive(Debug, Clone)]
pub struct FinetunePolicy {
    /// Fine-tuning budget and optimizer settings.
    pub config: FinetuneConfig,
    /// Which components to freeze/reset (paper §IV-C2).
    pub strategy: ReuseStrategy,
    /// Seed for the fine-tuning run.
    pub seed: u64,
}

impl Default for FinetunePolicy {
    fn default() -> Self {
        Self {
            config: FinetuneConfig::default(),
            strategy: ReuseStrategy::PartialUnfreeze,
            seed: 0,
        }
    }
}

struct ServiceInner {
    hub: Arc<ModelHub>,
    batcher_cfg: BatcherConfig,
    finetune: FinetunePolicy,
    /// One gate per served model, keyed by snapshot identity (`Arc`
    /// address — stable because each gate holds its state alive). Created
    /// lazily on the first single-query `predict` through a client.
    gates: Mutex<HashMap<usize, Arc<Gate>>>,
}

impl ServiceInner {
    fn gate_for(&self, state: &Arc<ModelState>) -> Arc<Gate> {
        let id = Arc::as_ptr(state) as usize;
        let mut gates = self.gates.lock();
        // Reap gates no client references anymore (strong count 1 =
        // registry only; clients cache the Arc in their OnceLock, and the
        // map lock serializes every clone out of the registry, so the
        // check cannot race a new borrower). Without this, a long-running
        // service creating clients per context would pin one ModelState
        // per served snapshot forever.
        gates.retain(|&key, gate| key == id || Arc::strong_count(gate) > 1);
        let gate = gates
            .entry(id)
            .or_insert_with(|| Arc::new(Gate::new(Arc::clone(state), &self.batcher_cfg)));
        Arc::clone(gate)
    }
}

/// Builder for [`Service`]; see [`Service::builder`].
#[derive(Default)]
pub struct ServiceBuilder {
    hub: Option<Arc<ModelHub>>,
    hub_dir: Option<PathBuf>,
    recall_mode: Option<RecallMode>,
    batcher: Option<BatcherConfig>,
    finetune: Option<FinetunePolicy>,
    kernel: Option<TierRequest>,
}

impl ServiceBuilder {
    /// Serves from an existing hub (shared with other services or direct
    /// hub users). Overrides [`ServiceBuilder::hub_dir`].
    pub fn hub(mut self, hub: Arc<ModelHub>) -> Self {
        self.hub = Some(hub);
        self
    }

    /// Serves from a disk-backed hub at `dir` (created if absent); two
    /// services pointed at the same directory share the pretrained
    /// registry across processes and restarts.
    pub fn hub_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.hub_dir = Some(dir.into());
        self
    }

    /// How a [`ServiceBuilder::hub_dir`] hub recalls checkpoints from
    /// disk (mmap by default; see [`RecallMode`]). Ignored when an
    /// existing hub is supplied via [`ServiceBuilder::hub`].
    pub fn recall_mode(mut self, mode: RecallMode) -> Self {
        self.recall_mode = Some(mode);
        self
    }

    /// Overrides the single-query serving limits (admission window and
    /// default deadline budget).
    pub fn batcher(mut self, cfg: BatcherConfig) -> Self {
        self.batcher = Some(cfg);
        self
    }

    /// Sets the fine-tuning defaults used by [`Service::finetuned_client`].
    pub fn finetune_policy(mut self, policy: FinetunePolicy) -> Self {
        self.finetune = Some(policy);
        self
    }

    /// Requests a kernel tier for this **process** (e.g.
    /// [`TierRequest::Fma`] for the ULP-bounded Fast tier; see
    /// `bellamy_linalg::kernels` for the tier contract). Kernel dispatch
    /// resolves once per process: a programmatic request made before the
    /// first kernel runs takes precedence over `BELLAMY_KERNEL`; after
    /// that, the standing resolution wins and this call has no effect.
    /// Either way `bellamy_linalg::kernels::resolution()` (and the
    /// `bellamy_kernel_info` series of [`Service::telemetry`]) reports
    /// requested vs resolved so a lost or degraded request is visible, and an
    /// unsupported tier logs a one-time warning while degrading
    /// (fma → simd → scalar) rather than failing the build.
    pub fn kernel_tier(mut self, tier: TierRequest) -> Self {
        self.kernel = Some(tier);
        self
    }

    /// Builds the service. Fails only when a [`ServiceBuilder::hub_dir`]
    /// cannot be created.
    pub fn build(self) -> Result<Service, BellamyError> {
        if let Some(tier) = self.kernel {
            // First resolution wins process-wide; a lost request is
            // surfaced through stats rather than failing the build.
            let _ = kernels::request_tier(tier);
        }
        let hub = match (self.hub, self.hub_dir) {
            (Some(hub), _) => hub,
            (None, Some(dir)) => {
                let mut hub = ModelHub::at(dir)?;
                if let Some(mode) = self.recall_mode {
                    hub = hub.with_recall_mode(mode);
                }
                Arc::new(hub)
            }
            (None, None) => Arc::new(ModelHub::in_memory()),
        };
        Ok(Service {
            inner: Arc::new(ServiceInner {
                hub,
                batcher_cfg: self.batcher.unwrap_or_default(),
                finetune: self.finetune.unwrap_or_default(),
                gates: Mutex::new(HashMap::new()),
            }),
        })
    }
}

/// The serving front door: one shared hub, one admission gate per served
/// model, cheap [`ModelClient`] handles for callers. Cloning a `Service`
/// clones a handle to the same service. See the module docs.
#[derive(Clone)]
pub struct Service {
    inner: Arc<ServiceInner>,
}

impl Service {
    /// Starts building a service.
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder::default()
    }

    /// A service over a fresh in-memory hub with default batching and
    /// fine-tuning policies.
    pub fn in_memory() -> Self {
        Self::builder()
            .build()
            .expect("in-memory build cannot fail")
    }

    /// The underlying model hub (for direct registry operations).
    pub fn hub(&self) -> &ModelHub {
        &self.inner.hub
    }

    /// Hub operation counters.
    pub fn stats(&self) -> HubStats {
        self.inner.hub.stats()
    }

    /// A typed point-in-time snapshot of every metric this service can see:
    /// per-model serve metrics (latency histogram, in-flight count, shed /
    /// deadline / panic counts), hub recall metrics (per-mode
    /// latency, retries, quarantines), process-wide predictor and train
    /// metrics, the kernel resolution, and the recent structured events.
    /// Render it with [`TelemetrySnapshot::to_json`] or
    /// [`TelemetrySnapshot::to_prometheus`].
    ///
    /// Reading is lock-free on the hot-path atomics (the per-service gate
    /// registry lock is held only to walk the gate list) and safe to call
    /// from a scrape loop at any frequency.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::new();
        let res = kernels::resolution();
        let source = match res.source {
            RequestSource::Default => "default",
            RequestSource::Env => "env",
            RequestSource::Program => "program",
        };
        snap.push_gauge(
            "bellamy_kernel_info",
            vec![
                ("requested", res.requested_name().to_string()),
                ("resolved", res.resolved_name().to_string()),
                ("source", source.to_string()),
            ],
            "",
            "Kernel dispatch resolution for this process (constant 1).",
            1,
        );
        snap.push_gauge(
            "bellamy_kernel_degraded",
            Vec::new(),
            "",
            "1 if the requested kernel tier was unavailable and dispatch degraded.",
            res.degraded as i64,
        );
        self.inner.hub.collect_telemetry(&mut snap);
        {
            let gates = self.inner.gates.lock();
            for gate in gates.values() {
                gate.collect_telemetry(&mut snap);
            }
        }
        let g = telemetry::global();
        snap.push_histogram(
            "bellamy_predict_batch_rows",
            Vec::new(),
            "rows",
            "Rows per forward pass (process-wide, direct and batched paths).",
            g.predict_batch_rows.snapshot(),
        );
        snap.push_counter(
            "bellamy_predict_queries_total",
            Vec::new(),
            "rows",
            "Total rows pushed through the forward pass (process-wide).",
            g.predict_queries.get(),
        );
        snap.push_counter(
            "bellamy_train_steps_total",
            Vec::new(),
            "steps",
            "Total optimizer steps taken (process-wide).",
            g.train_steps.get(),
        );
        snap.push_histogram(
            "bellamy_train_step_latency_seconds",
            Vec::new(),
            "seconds",
            "Per-step optimizer wall time (process-wide).",
            g.train_step_nanos.snapshot(),
        );
        snap.set_events(telemetry::events().recent());
        snap
    }

    /// A client for the model registered under `key` (memory, then disk).
    /// Never trains.
    pub fn client(&self, key: &ModelKey) -> Result<ModelClient, BellamyError> {
        Ok(self.client_for_state(self.inner.hub.recall(key)?))
    }

    /// A client for `key`, pre-training on `samples()` when the hub has
    /// never seen the key (see [`ModelHub::recall_or_pretrain`]).
    pub fn client_or_pretrain(
        &self,
        key: &ModelKey,
        cfg: &PretrainConfig,
        seed: u64,
        samples: impl FnOnce() -> Vec<TrainingSample>,
    ) -> Result<ModelClient, BellamyError> {
        let state = self.inner.hub.recall_or_pretrain(key, cfg, seed, samples)?;
        Ok(self.client_for_state(state))
    }

    /// Publishes an externally trained model under `key` and returns a
    /// client serving it.
    pub fn publish(&self, key: &ModelKey, model: &Bellamy) -> Result<ModelClient, BellamyError> {
        Ok(self.client_for_state(self.inner.hub.publish(key, model)?))
    }

    /// A client for the fine-tuned descendant of `key` in `context`, using
    /// the service's [`FinetunePolicy`] (see
    /// [`ServiceBuilder::finetune_policy`]). Descendants are cached in the
    /// hub's LRU, so identical requests share one fine-tuning run.
    pub fn finetuned_client(
        &self,
        key: &ModelKey,
        context: &str,
        samples: &[TrainingSample],
    ) -> Result<ModelClient, BellamyError> {
        let policy = self.inner.finetune.clone();
        self.finetuned_client_with(
            key,
            context,
            samples,
            &policy.config,
            policy.strategy,
            policy.seed,
        )
    }

    /// [`Service::finetuned_client`] with explicit fine-tuning settings
    /// overriding the service policy.
    pub fn finetuned_client_with(
        &self,
        key: &ModelKey,
        context: &str,
        samples: &[TrainingSample],
        cfg: &FinetuneConfig,
        strategy: ReuseStrategy,
        seed: u64,
    ) -> Result<ModelClient, BellamyError> {
        let state = self
            .inner
            .hub
            .fine_tuned_for(key, context, samples, cfg, strategy, seed)?;
        Ok(self.client_for_state(state))
    }

    /// A client serving an arbitrary snapshot — models that live outside
    /// the hub (locally trained baselines, ad hoc states). Clients for the
    /// same `Arc` share one admission gate and its counters.
    pub fn client_for_state(&self, state: Arc<ModelState>) -> ModelClient {
        ModelClient {
            state,
            service: Arc::clone(&self.inner),
            gate: OnceLock::new(),
        }
    }
}

/// A cheap, cloneable handle serving one model through the service: every
/// call runs on the caller's thread, single queries through the model's
/// shared admission gate. Create via [`Service::client`] and friends; clone
/// freely (clones share the same underlying state and gate).
#[derive(Clone)]
pub struct ModelClient {
    state: Arc<ModelState>,
    service: Arc<ServiceInner>,
    /// Lazily resolved gate (shared through the service registry, cached
    /// here so steady-state calls skip the registry lock).
    gate: OnceLock<Arc<Gate>>,
}

impl std::fmt::Debug for ModelClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelClient")
            .field("registry_key", &self.state.registry_key())
            .field("params_fingerprint", &self.state.params_fingerprint())
            .finish_non_exhaustive()
    }
}

impl ModelClient {
    /// The served snapshot.
    pub fn state(&self) -> &Arc<ModelState> {
        &self.state
    }

    /// The hub registry key of the served model, if it has one.
    pub fn registry_key(&self) -> Option<&str> {
        self.state.registry_key()
    }

    fn gate(&self) -> &Arc<Gate> {
        self.gate.get_or_init(|| self.service.gate_for(&self.state))
    }

    /// Predicts the runtime (seconds) for one scale-out in a described
    /// context on this thread, through the model's admission gate. The
    /// value is bit-identical to a direct [`Predictor::predict_one`] call.
    /// Allocation-free at steady state.
    pub fn predict(&self, scale_out: f64, props: &ContextProperties) -> Result<f64, BellamyError> {
        let gate = self.gate();
        gate.predict(scale_out, props, gate.deadline)
    }

    /// [`ModelClient::predict`] with an explicit deadline budget overriding
    /// [`BatcherConfig::deadline`]. The query is claimed the moment it is
    /// admitted, so an admitted query returns its value even if the forward
    /// pass ends past the budget; only a budget already spent at admission
    /// (zero) returns [`BellamyError::DeadlineExceeded`]. See the module
    /// docs' failure-semantics table.
    pub fn predict_with_deadline(
        &self,
        scale_out: f64,
        props: &ContextProperties,
        deadline: Duration,
    ) -> Result<f64, BellamyError> {
        self.gate().predict(scale_out, props, Some(deadline))
    }

    /// Predicted runtimes for a caller-assembled batch, in query order.
    /// Runs on this thread's warm predictor arena, without the admission
    /// gate.
    pub fn predict_batch(&self, queries: &[PredictQuery<'_>]) -> Vec<f64> {
        Predictor::with_thread_local(|p| p.predict_batch(&self.state, queries).to_vec())
    }

    /// Predicted runtimes for one context swept over many scale-outs (the
    /// §IV allocation-search shape). Bypasses the admission gate.
    pub fn predict_sweep(&self, props: &ContextProperties, scale_outs: &[f64]) -> Vec<f64> {
        Predictor::with_thread_local(|p| p.predict_sweep(&self.state, props, scale_outs).to_vec())
    }

    /// The smallest scale-out in `[lo, hi]` predicted to meet `target_s`,
    /// or `None` when no candidate does. The candidate curve is evaluated
    /// in one batched sweep.
    pub fn recommend_scale_out(
        &self,
        props: &ContextProperties,
        target_s: f64,
        lo: u32,
        hi: u32,
    ) -> Option<ScaleOutRecommendation> {
        let xs: Vec<f64> = (lo..=hi).map(f64::from).collect();
        let curve = self.predict_sweep(props, &xs);
        min_scale_out_meeting(|x| curve[(x - lo) as usize], target_s, lo, hi)
    }

    /// The cheapest scale-out in `[lo, hi]` under a per-machine-hour price,
    /// optionally subject to a runtime deadline. One batched sweep.
    pub fn cheapest_scale_out(
        &self,
        props: &ContextProperties,
        price_per_machine_hour: f64,
        target_s: Option<f64>,
        lo: u32,
        hi: u32,
    ) -> Option<ScaleOutRecommendation> {
        let xs: Vec<f64> = (lo..=hi).map(f64::from).collect();
        let curve = self.predict_sweep(props, &xs);
        cheapest_scale_out(
            |x| curve[(x - lo) as usize],
            price_per_machine_hour,
            target_s,
            lo,
            hi,
        )
    }

    /// Single-query counters for this model, shared by every client of its
    /// state (zeros until the first [`ModelClient::predict`] through any of
    /// them).
    pub fn batcher_stats(&self) -> BatcherStats {
        if let Some(gate) = self.gate.get() {
            return gate.stats();
        }
        // This handle never predicted, but a clone may have: consult the
        // service registry without creating a gate.
        let id = Arc::as_ptr(&self.state) as usize;
        self.service
            .gates
            .lock()
            .get(&id)
            .map_or_else(BatcherStats::default, |gate| gate.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BellamyConfig;
    use bellamy_encoding::PropertyValue;

    fn tiny_state() -> Arc<ModelState> {
        let samples: Vec<TrainingSample> = (0..6)
            .map(|i| TrainingSample {
                scale_out: 2.0 + i as f64,
                runtime_s: 100.0 - 5.0 * i as f64,
                props: ContextProperties {
                    essential: vec![PropertyValue::Number(1024 + i as u64)],
                    optional: vec![],
                },
            })
            .collect();
        let mut model = Bellamy::new(BellamyConfig::default(), 1);
        model.fit_normalization(&samples);
        model.snapshot().expect("fitted")
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let service = Service::builder()
            .batcher(BatcherConfig {
                max_inflight: 8,
                ..BatcherConfig::default()
            })
            .finetune_policy(FinetunePolicy {
                seed: 42,
                ..FinetunePolicy::default()
            })
            .build()
            .expect("in-memory service");
        assert_eq!(service.inner.batcher_cfg.max_inflight, 8);
        assert_eq!(service.inner.finetune.seed, 42);
        assert_eq!(service.stats(), HubStats::default());
        let state = tiny_state();
        let gate = Gate::new(Arc::clone(&state), &service.inner.batcher_cfg);
        assert_eq!(gate.max_inflight, 8);
        assert_eq!(
            Gate::new(state, &BatcherConfig::default()).max_inflight,
            DEFAULT_MAX_INFLIGHT,
            "0 means the fixed default window"
        );
    }

    #[test]
    fn client_of_unknown_key_errors() {
        let service = Service::in_memory();
        let key = ModelKey::new("sgd", "runtime", &BellamyConfig::default());
        assert!(matches!(
            service.client(&key),
            Err(BellamyError::Hub(crate::hub::HubError::UnknownModel(_)))
        ));
    }

    #[test]
    fn clients_for_one_state_share_counters() {
        let service = Service::in_memory();
        let state = tiny_state();
        let props = ContextProperties {
            essential: vec![PropertyValue::Number(1024)],
            optional: vec![],
        };
        let a = service.client_for_state(Arc::clone(&state));
        let b = a.clone();
        let c = service.client_for_state(state);
        let direct = a.predict(4.0, &props).unwrap();
        let clone_pred = b.predict(4.0, &props).unwrap();
        let fresh = c.predict(4.0, &props).unwrap();
        assert_eq!(direct.to_bits(), clone_pred.to_bits());
        assert_eq!(direct.to_bits(), fresh.to_bits());
        assert_eq!(a.batcher_stats().queries, 3);
        assert_eq!(c.batcher_stats(), a.batcher_stats());
        assert_eq!(service.inner.gates.lock().len(), 1);
    }

    #[test]
    fn dead_gates_are_reaped_when_new_ones_are_made() {
        let service = Service::in_memory();
        let props = ContextProperties {
            essential: vec![PropertyValue::Number(1024)],
            optional: vec![],
        };
        {
            let first = service.client_for_state(tiny_state());
            first.predict(4.0, &props).unwrap();
            assert_eq!(service.inner.gates.lock().len(), 1);
        } // `first` (and its cached gate Arc) dropped: registry-only now.
        let second = service.client_for_state(tiny_state());
        second.predict(4.0, &props).unwrap();
        assert_eq!(
            service.inner.gates.lock().len(),
            1,
            "making a new gate must reap client-less ones"
        );
    }

    #[test]
    fn recommendations_come_from_the_swept_curve() {
        let service = Service::in_memory();
        let client = service.client_for_state(tiny_state());
        let props = ContextProperties {
            essential: vec![PropertyValue::Number(2048)],
            optional: vec![],
        };
        let xs: Vec<f64> = (2..=12).map(f64::from).collect();
        let curve = client.predict_sweep(&props, &xs);
        // A target below the whole curve is unreachable; the max is always
        // reachable.
        let max = curve.iter().cloned().fold(f64::MIN, f64::max);
        let min = curve.iter().cloned().fold(f64::MAX, f64::min);
        assert!(client
            .recommend_scale_out(&props, min - 1.0, 2, 12)
            .is_none());
        let rec = client
            .recommend_scale_out(&props, max, 2, 12)
            .expect("max is reachable");
        assert_eq!(
            rec.predicted_runtime_s.to_bits(),
            curve[(rec.scale_out - 2) as usize].to_bits(),
            "recommendation must quote the swept curve"
        );
        let cheapest = client
            .cheapest_scale_out(&props, 1.0, None, 2, 12)
            .expect("unconstrained cheapest exists");
        // Untrained weights may predict negative runtimes; the cost just
        // has to be the curve's minimum, finite, and curve-derived.
        assert!(cheapest.predicted_cost.is_finite());
        assert_eq!(
            cheapest.predicted_runtime_s.to_bits(),
            curve[(cheapest.scale_out - 2) as usize].to_bits()
        );
    }
}
