//! The Bellamy runtime-prediction model (paper §III).
//!
//! Bellamy predicts the runtime of a distributed dataflow job from its
//! horizontal scale-out *and* descriptive properties of the execution
//! context, which lets one model learn from historical executions across
//! contexts — the paper's central contribution. The architecture is four
//! two-layer feed-forward networks (§III-B/C/D, §IV-A):
//!
//! ```text
//!   scale-out x ──[1/x, log x, x]──► f: 3→16→8 ──────────────► e ∈ R^8
//!   property p⁽ⁱ⁾ ──[λ, q]──► g: 40→8→4 ──► code c⁽ⁱ⁾ ∈ R^4 ──┐
//!                         └─► h: 4→8→40 (reconstruction loss)  │
//!   r = e ⊕ c⁽¹⁾…c⁽ᵐ⁾ ⊕ mean(optional codes) ∈ R^28 ──► z: 28→8→1
//! ```
//!
//! Training jointly minimizes Huber(runtime) + MSE(reconstruction). The
//! workflow is two-step: [`train::pretrain`] on historical executions of
//! the same algorithm from *other* contexts, then [`finetune::fine_tune`] on
//! the few observations available for the context at hand, with most
//! components frozen (§III-A). Cross-environment reuse strategies
//! (partial/full unfreeze/reset, §IV-C2) are in [`finetune::ReuseStrategy`].
//!
//! # Training / serving split
//!
//! [`Bellamy`] is the mutable *trainer handle*; [`Bellamy::snapshot`]
//! publishes an immutable, `Arc`-shared [`ModelState`] that any number of
//! threads serve concurrently through the batched, arena-backed
//! [`predictor::Predictor`] (allocation-free after warm-up, with a
//! lock-sharded property-encoding cache shared across threads). The
//! [`hub::ModelHub`] builds the paper's *recall → fine-tune → serve* reuse
//! workflow on top: a content-addressed registry of pretrained snapshots
//! (in memory + on disk) plus an LRU of fine-tuned descendants with
//! parent-checkpoint provenance. See the [`state`] and [`hub`] module docs.
//!
//! The [`serve`] module is the unified front door over all of it: a
//! [`serve::Service`] hands out cheap [`serve::ModelClient`] handles whose
//! single-query predictions run on the caller's own thread through one
//! admission gate per model, and every layer's error surfaces as one
//! [`error::BellamyError`]. New callers should start there.

pub mod allocation;
pub mod config;
pub mod error;
pub mod faults;
pub mod features;
pub mod finetune;
pub mod hub;
pub mod model;
pub mod predictor;
pub mod search;
pub mod serve;
pub mod state;
pub mod train;

pub use allocation::{cheapest_scale_out, min_scale_out_meeting, ScaleOutRecommendation};
pub use config::{BellamyConfig, FinetuneConfig, PretrainConfig};
pub use error::BellamyError;
pub use faults::{ArmedGuard, Failpoint, Fault, FaultPlan};
pub use features::{context_properties, scale_out_features, ContextProperties, TrainingSample};
pub use finetune::{FinetuneReport, ReuseStrategy};
pub use hub::{HubError, HubStats, ModelHub, ModelKey, RecallMode};
pub use model::{Bellamy, PredictError};
pub use predictor::{PredictQuery, Predictor};
pub use search::{search_pretrain, SearchError, SearchReport, SearchSpace};
pub use serve::{
    BatcherConfig, BatcherStats, FinetunePolicy, ModelClient, Service, ServiceBuilder,
};
pub use state::{ModelState, StateFromCheckpointError};
pub use train::PretrainReport;

pub use bellamy_linalg::kernels::{
    Backend as KernelBackend, KernelTier, Resolution as KernelResolution, TierRequest,
};

pub use bellamy_telemetry::{
    event_kind, Event, HistogramSnapshot, MetricValue, Sample, TelemetrySnapshot,
};
