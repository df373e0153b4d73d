//! # Bellamy — reusable performance models for distributed dataflow jobs
//!
//! A from-scratch Rust reproduction of *Bellamy: Reusing Performance Models
//! for Distributed Dataflow Jobs Across Contexts* (Scheinert et al., IEEE
//! CLUSTER 2021, arXiv:2107.13921).
//!
//! Bellamy predicts the runtime of a distributed dataflow job (Spark-like)
//! from its horizontal scale-out **and** descriptive properties of the
//! execution context (node type, dataset size and characteristics, job
//! parameters). Encoding the context lets one model learn from historical
//! executions *across* contexts: pre-train a general model per algorithm,
//! then fine-tune it in seconds for the concrete situation at hand.
//!
//! ## Quickstart
//!
//! ```
//! use bellamy::prelude::*;
//!
//! // Synthetic stand-in for the public C3O traces (same shape).
//! let data = generate_c3o(&GeneratorConfig::seeded(42));
//!
//! // Pre-train a general model for one algorithm on *other* contexts ...
//! let target = data.contexts_for(Algorithm::Grep)[0];
//! let history: Vec<TrainingSample> = data
//!     .runs_for_algorithm_excluding(Algorithm::Grep, Some(target.id))
//!     .iter()
//!     .map(|r| TrainingSample::from_run(&data.contexts[r.context_id], r))
//!     .collect();
//! let mut model = Bellamy::new(BellamyConfig::default(), 7);
//! pretrain(&mut model, &history, &PretrainConfig { epochs: 30, ..Default::default() }, 7);
//!
//! // ... then fine-tune on a few observations from the new context ...
//! let few: Vec<TrainingSample> = data
//!     .runs_for_context(target.id)
//!     .iter()
//!     .take(3)
//!     .map(|r| TrainingSample::from_run(target, r))
//!     .collect();
//! fine_tune(
//!     &mut model,
//!     &few,
//!     &FinetuneConfig { max_epochs: 50, ..Default::default() },
//!     ReuseStrategy::PartialUnfreeze,
//!     7,
//! );
//!
//! // ... publish an immutable snapshot and predict at an unseen scale-out.
//! let state = model.snapshot().expect("fitted");
//! let props = context_properties(target);
//! let predicted = state.predict(8.0, &props);
//! assert!(predicted.is_finite() && predicted > 0.0);
//! ```
//!
//! For the full *recall → fine-tune → serve* reuse workflow (shared
//! pretrained models, on-disk registry, fine-tuned-descendant cache,
//! single-query serving with admission control), go through the
//! [`core::serve::Service`] front door — see the [`prelude`] docs for the
//! 5-line quickstart and the `quickstart` / `pretrain_finetune` examples
//! for the long form.
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`core`] (re-export of `bellamy-core`) | the model, pre-training, fine-tuning, reuse strategies, hyperparameter search, resource allocation |
//! | [`baselines`] | Ernest (NNLS) and Bell, the paper's comparison methods |
//! | [`data`] | synthetic C3O / Bell trace generators, CSV I/O |
//! | [`eval`] | the paper's split protocol and experiment runners (Figs. 5–8) |
//! | [`encoding`] | property encoders (binarizer, hashing vectorizer) |
//! | [`nn`] / [`autograd`] / [`linalg`] | the neural-network substrate built for this reproduction |
//! | [`par`] | the thread-pool / parallel-map substrate |
//! | [`telemetry`] | lock-free metrics registry, structured event log, JSON/Prometheus exporters |
//!
//! Run `cargo run --release -p bench --bin repro -- all` to regenerate every
//! table and figure of the paper's evaluation section; see `EXPERIMENTS.md`
//! for recorded results.

pub use bellamy_autograd as autograd;
pub use bellamy_baselines as baselines;
pub use bellamy_core as core;
pub use bellamy_data as data;
pub use bellamy_encoding as encoding;
pub use bellamy_eval as eval;
pub use bellamy_linalg as linalg;
pub use bellamy_nn as nn;
pub use bellamy_par as par;
pub use bellamy_telemetry as telemetry;

/// The most common imports in one place.
///
/// The serving front door is five lines end to end — build a [`Service`](bellamy_core::Service),
/// get a client (pre-training only on the first request for the key),
/// fine-tune for the context at hand, predict:
///
/// ```
/// use bellamy::prelude::*;
///
/// # let data = generate_c3o(&GeneratorConfig::seeded(1));
/// # let target = data.contexts_for(Algorithm::Grep)[0];
/// # let history = || data
/// #     .runs_for_algorithm_excluding(Algorithm::Grep, Some(target.id))
/// #     .iter().take(60)
/// #     .map(|r| TrainingSample::from_run(&data.contexts[r.context_id], r))
/// #     .collect::<Vec<_>>();
/// # let observed: Vec<TrainingSample> = data.runs_for_context(target.id)
/// #     .iter().take(3).map(|r| TrainingSample::from_run(target, r)).collect();
/// # let props = context_properties(target);
/// # let quick = PretrainConfig { epochs: 5, ..PretrainConfig::default() };
/// # let policy = FinetunePolicy {
/// #     config: FinetuneConfig { max_epochs: 20, patience: 10, ..FinetuneConfig::default() },
/// #     ..FinetunePolicy::default()
/// # };
/// let service = Service::builder().finetune_policy(policy).build()?;
/// let key = ModelKey::new("grep", "runtime", &BellamyConfig::default());
/// let general = service.client_or_pretrain(&key, &quick, 7, history)?;
/// let tuned = service.finetuned_client(&key, "new-context", &observed)?;
/// let runtime_s = tuned.predict(8.0, &props)?;
/// # assert!(runtime_s.is_finite());
///
/// // Every layer is instrumented: one snapshot call exposes serve latency
/// // histograms, hub recall metrics, train-step timing, and the kernel
/// // resolution — renderable as JSON or Prometheus text for a scrape loop.
/// let snapshot = service.telemetry();
/// assert!(snapshot.counter("bellamy_serve_queries_total") >= Some(1));
/// let _scrape_body = snapshot.to_prometheus();
/// # Ok::<(), BellamyError>(())
/// ```
///
/// Single-query `predict` calls run on the calling thread: any number of
/// threads share one clonable client (or clones of it), each predicting
/// through its own warm arena behind the model's shared admission window —
/// bit-identical to direct [`Predictor`](bellamy_core::Predictor) calls.
pub mod prelude {
    pub use bellamy_baselines::{BellModel, ErnestModel, ScaleOutModel};
    pub use bellamy_core::finetune::{fine_tune, fit_local};
    pub use bellamy_core::train::pretrain;
    pub use bellamy_core::{
        cheapest_scale_out, context_properties, min_scale_out_meeting, search_pretrain,
        BatcherConfig, BatcherStats, Bellamy, BellamyConfig, BellamyError, ContextProperties,
        Event, FinetuneConfig, FinetunePolicy, HistogramSnapshot, HubError, MetricValue,
        ModelClient, ModelHub, ModelKey, ModelState, PredictError, PredictQuery, Predictor,
        PretrainConfig, ReuseStrategy, Sample, SearchSpace, Service, ServiceBuilder,
        TelemetrySnapshot, TrainingSample,
    };
    pub use bellamy_data::{
        generate_bell, generate_c3o, ground_truth_profile, Algorithm, Dataset, Environment,
        GeneratorConfig, JobContext, JobRun, NodeType,
    };
    pub use bellamy_encoding::PropertyValue;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_exposes_the_workflow() {
        let data = generate_c3o(&GeneratorConfig::seeded(1));
        assert_eq!(data.contexts.len(), 155);
        let model = Bellamy::new(BellamyConfig::default(), 0);
        assert!(!model.is_fitted());
    }
}
