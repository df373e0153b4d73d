//! The benchmark's inputs, generated from the seed, and the paper's
//! two-step reuse pass (pretrain general models, then onboard held-out
//! contexts) that every workload's set-up runs and times.

use crate::stats::{nanos, Grouped, GroupedRate, Ledger, Stream};
use crate::trace::SpanBuf;
use bellamy_core::{
    context_properties, min_scale_out_meeting, BatcherStats, BellamyConfig, ContextProperties,
    FinetuneConfig, HubStats, ModelClient, ModelKey, ModelState, Predictor, PretrainConfig,
    ReuseStrategy, ScaleOutRecommendation, Service, TrainingSample,
};
use bellamy_data::{generate_c3o, Algorithm, Dataset, GeneratorConfig};
use std::sync::Arc;
use std::time::Instant;

/// Context folds per algorithm. Each fold's contexts are onboarded onto a
/// general model pretrained on the other folds, so every one of the 155
/// contexts is onboarded once per observed-run count: 775 onboards per
/// pass. Averaging over all of them, and over ten general models, keeps the
/// onboarding figures steady from one generated dataset to the next.
pub const FOLDS: usize = 2;
/// Observed runs an onboarded context is fine-tuned on: 1..=MAX_OBSERVED.
pub const MAX_OBSERVED: usize = 5;
/// Scale-out range every recommendation searches (the C3O grid's span).
pub const SCALE_LO: u32 = 2;
/// See [`SCALE_LO`].
pub const SCALE_HI: u32 = 12;
/// Objective label of the general models.
pub const OBJECTIVE: &str = "runtime";

/// Pre-training budget of the general models. The paper's 2500 epochs take
/// about a minute per model on a 2-core x86-64 VM; 40 epochs keep a whole
/// reuse pass (10 general models, 775 onboards) to a few seconds there,
/// while the fine-tuning that follows still starts from a fitted model.
pub fn pretrain_config() -> PretrainConfig {
    PretrainConfig {
        epochs: 40,
        ..PretrainConfig::default()
    }
}

/// Fine-tuning settings of every onboard: Table I's optimizer and
/// schedule with a fixed 40-epoch budget. Early stopping (MAE <= 5 s or
/// 1000 stale epochs) makes the epochs an onboard takes depend on the
/// generated data, 4 to 8 at the median from one dataset to the next, so
/// onboarding time would not compare across seeds. The per-layer
/// fine-tune probe uses the same settings.
pub fn finetune_config() -> FinetuneConfig {
    FinetuneConfig {
        max_epochs: 40,
        patience: 40,
        target_mae: 0.0,
        ..FinetuneConfig::default()
    }
}

/// Reuse strategy of every onboard: the paper's default.
pub const STRATEGY: ReuseStrategy = ReuseStrategy::PartialUnfreeze;

/// A general model to pretrain: one per algorithm and fold.
pub struct General {
    /// The algorithm.
    pub algorithm: Algorithm,
    /// The hub key.
    pub key: ModelKey,
    /// Pre-training corpus: every run of the algorithm outside the fold.
    pub corpus: Vec<TrainingSample>,
}

/// One context to onboard with a given number of observed runs.
pub struct Onboarding {
    /// Index of its general model in [`World::generals`].
    pub general: usize,
    /// Context id in the dataset.
    pub ctx: usize,
    /// Fine-tuning label of the context.
    pub label: String,
    /// The observed runs the model is fine-tuned on.
    pub observed: Vec<TrainingSample>,
    /// `(scale_out, runtime_s)` of every run not observed.
    pub unobserved: Vec<(f64, f64)>,
    /// Fine-tuning seed.
    pub seed: u64,
}

/// Everything generated from one seed and part number.
pub struct World {
    /// Seed of this part's dataset and streams.
    pub seed: u64,
    /// The synthetic C3O dataset.
    pub data: Dataset,
    /// Properties of every context, by context id.
    pub props: Vec<ContextProperties>,
    /// Runtime target of every context's recommendations: one of its
    /// observed runtimes, drawn from the seed.
    pub target_s: Vec<f64>,
    /// Pre-training settings of the general models.
    pub pretrain: PretrainConfig,
    /// The general models to pretrain.
    pub generals: Vec<General>,
    /// Every (context, observed count) pair, in seeded order.
    pub onboardings: Vec<Onboarding>,
    /// Each context's runs in seeded order; the first `n` are "observed".
    pub runs_by_ctx: Vec<Vec<TrainingSample>>,
}

impl World {
    /// Generates part `part` of the inputs of the workload seed `seed`.
    /// Parts are independent datasets; a run that needs more data than one
    /// dataset holds takes parts 0, 1, 2, ... in turn.
    pub fn new(seed: u64, part: u64) -> Self {
        let seed = Stream::new(seed, 1000 + part).next_u64();
        let data = generate_c3o(&GeneratorConfig::seeded(seed));
        let props: Vec<ContextProperties> = data.contexts.iter().map(context_properties).collect();
        let mut runs_by_ctx: Vec<Vec<TrainingSample>> = vec![Vec::new(); data.contexts.len()];
        for run in &data.runs {
            runs_by_ctx[run.context_id].push(TrainingSample::from_run(
                &data.contexts[run.context_id],
                run,
            ));
        }
        let mut order = Stream::new(seed, 2);
        for runs in &mut runs_by_ctx {
            order.shuffle(runs);
        }
        let target_s = runs_by_ctx.iter().map(|runs| runs[0].runtime_s).collect();

        let mut pick = Stream::new(seed, 1);
        let mut generals = Vec::new();
        let mut onboardings = Vec::new();
        for algorithm in Algorithm::ALL {
            let mut ctxs: Vec<usize> = data.contexts_for(algorithm).iter().map(|c| c.id).collect();
            pick.shuffle(&mut ctxs);
            for fold in 0..FOLDS {
                let held: Vec<usize> = ctxs.iter().copied().skip(fold).step_by(FOLDS).collect();
                let corpus = data
                    .runs
                    .iter()
                    .filter(|r| {
                        data.contexts[r.context_id].algorithm == algorithm
                            && !held.contains(&r.context_id)
                    })
                    .map(|r| TrainingSample::from_run(&data.contexts[r.context_id], r))
                    .collect();
                let general = generals.len();
                generals.push(General {
                    algorithm,
                    key: ModelKey::new(
                        algorithm.name(),
                        format!("{OBJECTIVE}-fold{fold}"),
                        &BellamyConfig::default(),
                    ),
                    corpus,
                });
                for &ctx in &held {
                    for n in 1..=MAX_OBSERVED {
                        let runs = &runs_by_ctx[ctx];
                        onboardings.push(Onboarding {
                            general,
                            ctx,
                            label: format!("ctx{ctx}"),
                            observed: runs[..n].to_vec(),
                            unobserved: runs[n..]
                                .iter()
                                .map(|s| (s.scale_out, s.runtime_s))
                                .collect(),
                            seed: seed ^ ((ctx as u64) << 8 | n as u64),
                        });
                    }
                }
            }
        }
        Stream::new(seed, 3).shuffle(&mut onboardings);
        Self {
            seed,
            data,
            props,
            target_s,
            pretrain: pretrain_config(),
            generals,
            onboardings,
            runs_by_ctx,
        }
    }

    /// Index of the first general model of `algorithm`.
    pub fn general_of(&self, algorithm: Algorithm) -> usize {
        self.generals
            .iter()
            .position(|g| g.algorithm == algorithm)
            .expect("every algorithm has general models")
    }
}

/// Raw measurements of one workload pass.
#[derive(Default)]
pub struct Samples {
    /// The measurement group new samples land in (see [`Grouped`]).
    pub group: usize,
    /// Latency of single `ModelClient::predict` calls, ns. Onboarding's
    /// first predict, which starts the model's serving thread, counts in
    /// `onboard_ns` instead.
    pub predict_ns: Grouped,
    /// Latency of every `recommend_scale_out`, ns.
    pub recommend_ns: Grouped,
    /// From asking for a client to that client's first recommendation, ns.
    pub ready_ns: Grouped,
    /// Fine-tune + first recommendation + first predict of a new context, ns.
    pub onboard_ns: Grouped,
    /// Sample-epochs per second of each general model's pre-training.
    pub pretrain_rates: Vec<f64>,
    /// Mean relative error of each onboarded model on its unobserved runs,
    /// in onboarding order.
    pub onboard_errors: Vec<f64>,
    /// Calls issued, per group, with each group's duration.
    pub calls: GroupedRate,
    /// Attempted and failed operations.
    pub ledger: Ledger,
    /// Micro-batcher counters of the batchers this pass used.
    pub batcher: BatcherStats,
    /// Hub counters of the services this pass used.
    pub hub: HubStats,
    /// Property-encoding lookups issued (one per property per query row
    /// shape: a single predict or a whole sweep).
    pub lookups: u64,
    /// Encodings the touched states' caches hold after the pass.
    pub cached: u64,
    /// Output checks that failed, with a description of the first few.
    pub check_failures: Vec<String>,
    /// Served predictions that were finite but not positive: a model that
    /// extrapolates a negative runtime. Reported, not failed; see
    /// `CHANGES.md`.
    pub nonpositive: u64,
}

impl Samples {
    /// Records why the run is not correct.
    fn note(&mut self, what: String) {
        if self.check_failures.len() < 8 {
            eprintln!("check failed: {what}");
        }
        self.check_failures.push(what);
    }

    /// Records a failed output check of the last call, which turns that
    /// call into a failed op.
    pub fn fail(&mut self, what: String) {
        if self.ledger.failed < self.ledger.attempted {
            self.ledger.failed += 1;
        }
        self.note(what);
    }

    /// Records the outcome of one call; a failed call is also a failed check.
    pub fn call<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.calls.count(self.group);
        self.ledger.record(r.is_ok());
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.note(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Records a call that cannot fail.
    pub fn infallible(&mut self) {
        self.calls.count(self.group);
        self.ledger.record(true);
    }

    /// Checks one served prediction: finite (a failed op otherwise), and
    /// counts it when it is not positive.
    pub fn check_prediction(&mut self, what: &str, p: f64) -> bool {
        if !p.is_finite() {
            self.fail(format!("{what}: prediction {p} is not finite"));
            return false;
        }
        if p <= 0.0 {
            self.nonpositive += 1;
        }
        true
    }

    /// Checks a served prediction against a direct `Predictor::predict_one`
    /// on the same state: the serving path must be bit-identical.
    pub fn check_direct(
        &mut self,
        predictor: &mut Predictor,
        state: &ModelState,
        x: f64,
        props: &ContextProperties,
        served: f64,
    ) {
        let direct = predictor.predict_one(state, x, props);
        if direct.to_bits() != served.to_bits() {
            self.fail(format!(
                "served predict {served} differs from direct {direct} at x={x}"
            ));
        }
    }

    /// Checks a recommendation: inside the searched range, and the same
    /// answer the model's own curve gives (every curve point finite).
    pub fn check_recommendation(
        &mut self,
        predictor: &mut Predictor,
        state: &ModelState,
        props: &ContextProperties,
        target_s: f64,
        rec: &Option<ScaleOutRecommendation>,
    ) {
        let xs: Vec<f64> = (SCALE_LO..=SCALE_HI).map(f64::from).collect();
        let curve = predictor.predict_sweep(state, props, &xs).to_vec();
        if let Some(bad) = curve.iter().find(|p| !p.is_finite()) {
            self.fail(format!("curve point {bad} is not finite"));
            return;
        }
        let expected = min_scale_out_meeting(
            |x| curve[(x - SCALE_LO) as usize],
            target_s,
            SCALE_LO,
            SCALE_HI,
        );
        let in_range = rec
            .as_ref()
            .is_none_or(|r| (SCALE_LO..=SCALE_HI).contains(&r.scale_out));
        if !in_range || *rec != expected {
            self.fail(format!(
                "recommendation {rec:?} disagrees with its curve ({expected:?})"
            ));
        }
    }

    /// Adds the counters of one batcher, read after its last use.
    pub fn add_batcher(&mut self, s: BatcherStats) {
        add_batcher(&mut self.batcher, s, false);
    }

    /// Merges another thread's or phase's samples, group by group.
    pub fn merge(&mut self, o: Samples) {
        self.predict_ns.extend(o.predict_ns);
        self.recommend_ns.extend(o.recommend_ns);
        self.ready_ns.extend(o.ready_ns);
        self.onboard_ns.extend(o.onboard_ns);
        self.pretrain_rates.extend(o.pretrain_rates);
        self.onboard_errors.extend(o.onboard_errors);
        self.calls.extend(&o.calls);
        self.ledger.merge(o.ledger);
        add_batcher(&mut self.batcher, o.batcher, false);
        add_hub(&mut self.hub, o.hub);
        self.lookups += o.lookups;
        self.cached += o.cached;
        self.check_failures.extend(o.check_failures);
        self.nonpositive += o.nonpositive;
    }
}

/// `acc += s` (or `acc -= s` when `subtract`) over the batcher counters.
pub fn add_batcher(acc: &mut BatcherStats, s: BatcherStats, subtract: bool) {
    let f = |a: &mut u64, b: u64| {
        if subtract {
            *a = a.saturating_sub(b)
        } else {
            *a += b
        }
    };
    f(&mut acc.queries, s.queries);
    f(&mut acc.batches, s.batches);
    f(&mut acc.assist_flushes, s.assist_flushes);
    f(&mut acc.shed, s.shed);
    f(&mut acc.deadline_expired, s.deadline_expired);
    f(&mut acc.panics, s.panics);
    f(&mut acc.restarts, s.restarts);
}

/// `acc += s` over the hub counters.
pub fn add_hub(acc: &mut HubStats, s: HubStats) {
    acc.memory_recalls += s.memory_recalls;
    acc.disk_recalls += s.disk_recalls;
    acc.pretrains += s.pretrains;
    acc.finetune_hits += s.finetune_hits;
    acc.finetunes += s.finetunes;
    acc.disk_retries += s.disk_retries;
    acc.quarantined += s.quarantined;
}

/// Property lookups one query row shape issues against the encoding cache.
pub fn lookups(props: &ContextProperties) -> u64 {
    (props.essential.len() + props.optional.len()) as u64
}

/// The served states of [`World::generals`], in the same order.
pub type Generals = Vec<Arc<ModelState>>;

/// Pre-trains (or recalls) every general model through
/// `Service::client_or_pretrain`, recording sample-epochs per second.
pub fn pretrain_generals(
    service: &Service,
    world: &World,
    spans: &mut SpanBuf,
    out: &mut Samples,
) -> Option<Generals> {
    let cfg = world.pretrain;
    let mut states = Vec::new();
    for (i, g) in world.generals.iter().enumerate() {
        let req = i as u64;
        let root = spans.begin("req.pretrain", req);
        let started = Instant::now();
        let client = spans.time("hub.client_or_pretrain", req, || {
            service.client_or_pretrain(&g.key, &cfg, world.seed, || g.corpus.clone())
        });
        let secs = started.elapsed().as_secs_f64();
        spans.end(root);
        let client = out.call("client_or_pretrain", client)?;
        let rate = (g.corpus.len() * cfg.epochs) as f64 / secs;
        out.pretrain_rates.push(rate);
        states.push(Arc::clone(client.state()));
    }
    Some(states)
}

/// Onboards every held-out context of `world` through `service`: fine-tune
/// on the observed runs, one recommendation, one first predict, then score
/// the model on the unobserved runs with single predicts.
pub fn onboard_all(
    service: &Service,
    world: &World,
    spans: &mut SpanBuf,
    predictor: &mut Predictor,
    out: &mut Samples,
) {
    let cfg = finetune_config();
    for (i, ob) in world.onboardings.iter().enumerate() {
        let req = 1_000_000 + i as u64;
        let props = &world.props[ob.ctx];
        let target = world.target_s[ob.ctx];
        let root = spans.begin("req.onboard", req);
        let t0 = Instant::now();
        let client = spans.time("hub.finetuned_client", req, || {
            service.finetuned_client_with(
                &world.generals[ob.general].key,
                &ob.label,
                &ob.observed,
                &cfg,
                STRATEGY,
                ob.seed,
            )
        });
        let Some(client) = out.call("finetuned_client_with", client) else {
            spans.end(root);
            continue;
        };
        let t1 = Instant::now();
        let rec = spans.time("serve.recommend", req, || {
            client.recommend_scale_out(props, target, SCALE_LO, SCALE_HI)
        });
        let t2 = Instant::now();
        out.infallible();
        let x = rec
            .as_ref()
            .map_or(f64::from(SCALE_LO), |r| f64::from(r.scale_out));
        // The first predict starts the new model's serving thread; the
        // service also winds down the previous onboard's, whose client is
        // gone, as onboarding one context after another does.
        let first = spans.time("serve.predict", req, || client.predict(x, props));
        let t3 = Instant::now();
        spans.end(root);
        let g = out.group;
        out.ready_ns.push(g, nanos(t2 - t0));
        out.recommend_ns.push(g, nanos(t2 - t1));
        out.onboard_ns.push(g, nanos(t3 - t0));
        out.lookups += 2 * lookups(props);
        let state = Arc::clone(client.state());
        out.check_recommendation(predictor, &state, props, target, &rec);
        if let Some(first) = out.call("predict", first) {
            if out.check_prediction("first predict", first) {
                out.check_direct(predictor, &state, x, props, first);
            }
        }
        let error = score(&client, ob, props, spans, req, out);
        out.onboard_errors.push(error);
        out.cached += state.encoding_cache_len() as u64;
        out.add_batcher(client.batcher_stats());
    }
}

/// Mean relative error of `client` on the unobserved runs, predicted one
/// call at a time.
fn score(
    client: &ModelClient,
    ob: &Onboarding,
    props: &ContextProperties,
    spans: &mut SpanBuf,
    req: u64,
    out: &mut Samples,
) -> f64 {
    let mut total = 0.0;
    for &(x, actual) in &ob.unobserved {
        let root = spans.begin("req.score", req);
        let t = Instant::now();
        let p = spans.time("serve.predict", req, || client.predict(x, props));
        out.predict_ns.push(out.group, nanos(t.elapsed()));
        spans.end(root);
        out.lookups += lookups(props);
        if let Some(p) = out.call("predict", p) {
            out.check_prediction("scoring predict", p);
            total += (p - actual).abs() / actual;
        }
    }
    total / ob.unobserved.len() as f64
}

/// Mean of the per-onboard relative errors.
pub fn onboard_mre(errors: &[f64]) -> f64 {
    errors.iter().sum::<f64>() / errors.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn onboard_mre_is_identical_across_runs_of_one_seed() {
        let run = || {
            let mut world = World::new(5, 0);
            world.pretrain.epochs = 3;
            // The first algorithm's two folds and a few of their onboards.
            world.generals.truncate(2);
            world.onboardings.retain(|o| o.general < 2);
            world.onboardings.truncate(6);
            let service = Service::in_memory();
            let mut out = Samples::default();
            let mut spans = SpanBuf::new(false, 0);
            pretrain_generals(&service, &world, &mut spans, &mut out).expect("pretrained");
            onboard_all(
                &service,
                &world,
                &mut spans,
                &mut Predictor::new(),
                &mut out,
            );
            assert!(out.check_failures.is_empty(), "{:?}", out.check_failures);
            assert_eq!(out.onboard_errors.len(), 6);
            onboard_mre(&out.onboard_errors)
        };
        let (a, b) = (run(), run());
        assert!(a.is_finite() && a > 0.0);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn world_is_a_function_of_the_seed() {
        let a = World::new(11, 0);
        let b = World::new(11, 0);
        let c = World::new(12, 0);
        assert_ne!(a.seed, World::new(11, 1).seed);
        assert_eq!(a.onboardings.len(), a.data.contexts.len() * MAX_OBSERVED);
        assert_eq!(a.generals.len(), 5 * FOLDS);
        let key = |w: &World| -> Vec<(usize, usize, u64)> {
            w.onboardings
                .iter()
                .map(|o| (o.ctx, o.observed.len(), o.observed[0].runtime_s.to_bits()))
                .collect()
        };
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));
        for ob in &a.onboardings {
            assert_eq!(
                ob.observed.len() + ob.unobserved.len(),
                a.runs_by_ctx[ob.ctx].len()
            );
            let corpus = &a.generals[ob.general].corpus;
            let held_runs = corpus.iter().filter(|s| s.props == a.props[ob.ctx]);
            assert_eq!(
                held_runs.count(),
                0,
                "a held-out context leaked into pre-training"
            );
        }
    }
}
