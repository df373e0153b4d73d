//! The two workloads: how each is set up and what its timed pass does.
//! Both set-ups run the paper's two-step workflow (pretrain the general
//! models, onboard every held-out context), which is what the reuse
//! metrics measure.
//!
//! - `serve-mix` (closed loop, 2 client threads): single predicts and
//!   scale-out recommendations against warm, already fine-tuned models.
//! - `hub-restart`: a fresh service on a disk hub of 1010 checkpoints
//!   recalls every key and answers one recommendation per model.

use crate::stats::{nanos, Stream};
use crate::trace::SpanBuf;
use crate::world::{
    finetune_config, lookups, onboard_all, pretrain_generals, Generals, Samples, World,
    MAX_OBSERVED, OBJECTIVE, SCALE_HI, SCALE_LO, STRATEGY,
};
use bellamy_core::finetune::fine_tune;
use bellamy_core::{
    Bellamy, BellamyConfig, FinetuneConfig, ModelClient, ModelKey, Predictor, Service,
};
use bellamy_data::Algorithm;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// See the module docs.
    ServeMix,
    /// See the module docs.
    HubRestart,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::ServeMix, Workload::HubRestart];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeMix => "serve-mix",
            Workload::HubRestart => "hub-restart",
        }
    }

    /// Parses [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Client threads of the serve-mix closed loop (the host has two cores).
pub const SERVE_THREADS: usize = 2;
/// Extra checkpoints the hub-restart set-up publishes next to the general
/// models.
pub const HUB_EXTRA_CHECKPOINTS: usize = 1000;
/// Length of the measurement windows of serve-mix and hub-restart, s.
const WINDOW_S: f64 = 1.0;
/// One in this many served calls gets a full output check (bit-identity to
/// the direct predictor, or the recommendation against its curve).
const CHECK_EVERY: u64 = 16;

/// The result of one timed pass.
pub struct Pass {
    /// Measurements and counters.
    pub samples: Samples,
    /// Spans (empty unless traced).
    pub spans: SpanBuf,
}

/// A served model of the serve-mix workload.
pub struct Served {
    client: ModelClient,
    /// Index into `World::onboardings` for fine-tuned models; `None` for
    /// the general model.
    onboarding: Option<usize>,
    fingerprint: u64,
}

/// A prepared workload, ready for timed passes.
pub enum Prepared {
    /// serve-mix: an in-memory service holding the served models.
    ServeMix {
        /// Inputs.
        world: World,
        /// The service.
        service: Service,
        /// General models.
        generals: Generals,
        /// Models the clients call.
        served: Vec<Served>,
    },
    /// hub-restart: a disk hub of general and published models.
    HubRestart {
        /// Inputs.
        world: World,
        /// General models.
        generals: Generals,
        /// The hub directory.
        dir: PathBuf,
        /// Every checkpoint: key, the context its queries describe, and
        /// the weight fingerprint it was published with.
        entries: Vec<(ModelKey, usize, u64)>,
    },
}

/// Sets up `workload` for `seed`; `rep` numbers the set-up within a run
/// and picks the part of the seed's inputs it uses. Set-up work that is
/// itself a measurement of the reuse path (pre-training and onboarding
/// every held-out context) is recorded into `base`.
pub fn setup(
    workload: Workload,
    seed: u64,
    rep: u64,
    dir: &Path,
    base: &mut Samples,
) -> Option<Prepared> {
    match workload {
        Workload::ServeMix => setup_serve_mix(World::new(seed, rep), base),
        Workload::HubRestart => setup_hub_restart(World::new(seed, rep), dir, base),
    }
}

/// An in-memory service holding the SGD general model of fold 0 and one
/// fine-tuned descendant per context that fold holds out, each with a warm
/// serving thread and encoding cache.
fn setup_serve_mix(world: World, base: &mut Samples) -> Option<Prepared> {
    let service = Service::in_memory();
    let generals = reuse_pass(&service, &world, base)?;
    let mut served = Vec::new();
    let sgd = world.general_of(Algorithm::Sgd);
    let general = base.call("client", service.client(&world.generals[sgd].key))?;
    served.push(Served {
        fingerprint: general.state().params_fingerprint(),
        client: general,
        onboarding: None,
    });
    let tuned = world
        .onboardings
        .iter()
        .enumerate()
        .filter(|(_, ob)| ob.general == sgd && ob.observed.len() == MAX_OBSERVED)
        .map(|(i, _)| i);
    for i in tuned {
        let client = base.call(
            "finetuned_client_with",
            acquire_finetuned(&service, &world, i),
        )?;
        served.push(Served {
            fingerprint: client.state().params_fingerprint(),
            client,
            onboarding: Some(i),
        });
    }
    let sgd_ctxs = world.data.contexts_for(Algorithm::Sgd);
    for s in &served {
        for (i, ctx) in sgd_ctxs.iter().enumerate() {
            let ctx = s.onboarding.map_or(ctx.id, |ob| world.onboardings[ob].ctx);
            let x = 2.0 + (i % 11) as f64;
            base.call("predict", s.client.predict(x, &world.props[ctx]))?;
        }
    }
    Some(Prepared::ServeMix {
        world,
        service,
        generals,
        served,
    })
}

/// A disk hub at `dir` holding the general models and
/// [`HUB_EXTRA_CHECKPOINTS`] published descendants. The reuse pass runs on
/// this hub, so pre-training also times publishing the general models.
fn setup_hub_restart(world: World, dir: &Path, base: &mut Samples) -> Option<Prepared> {
    let _ = std::fs::remove_dir_all(dir);
    let service = base.call("build", Service::builder().hub_dir(dir).build())?;
    let generals = reuse_pass(&service, &world, base)?;
    let mut entries: Vec<(ModelKey, usize, u64)> = world
        .generals
        .iter()
        .zip(&generals)
        .map(|(g, s)| {
            let ctx = world.data.contexts_for(g.algorithm)[0].id;
            (g.key.clone(), ctx, s.params_fingerprint())
        })
        .collect();
    let mut pairs: Vec<(usize, usize)> = (0..world.data.contexts.len())
        .flat_map(|ctx| (1..=7).map(move |n| (ctx, n)))
        .collect();
    Stream::new(world.seed, 4).shuffle(&mut pairs);
    // A short fine-tune gives every checkpoint its own weights, so a recall
    // that returned the wrong file would fail its fingerprint check.
    let cfg = FinetuneConfig {
        max_epochs: 8,
        ..finetune_config()
    };
    for &(ctx, n) in &pairs[..HUB_EXTRA_CHECKPOINTS] {
        let algorithm = world.data.contexts[ctx].algorithm;
        let mut trainer = Bellamy::from_state(&generals[world.general_of(algorithm)]);
        let runs = &world.runs_by_ctx[ctx][..n];
        let ft_seed = world.seed ^ (ctx * 8 + n) as u64;
        fine_tune(&mut trainer, runs, &cfg, STRATEGY, ft_seed);
        let key = ModelKey::new(
            algorithm.name(),
            format!("{OBJECTIVE}@ctx{ctx}-n{n}"),
            &BellamyConfig::default(),
        );
        let client = base.call("publish", service.publish(&key, &trainer))?;
        entries.push((key, ctx, client.state().params_fingerprint()));
    }
    Some(Prepared::HubRestart {
        world,
        generals,
        dir: dir.to_path_buf(),
        entries,
    })
}

/// Pretrains the general models and onboards every held-out context,
/// untraced.
fn reuse_pass(service: &Service, world: &World, out: &mut Samples) -> Option<Generals> {
    let mut spans = SpanBuf::new(false, 0);
    let generals = pretrain_generals(service, world, &mut spans, out)?;
    onboard_all(service, world, &mut spans, &mut Predictor::new(), out);
    crate::world::add_hub(&mut out.hub, service.stats());
    Some(generals)
}

fn acquire_finetuned(
    service: &Service,
    world: &World,
    onboarding: usize,
) -> Result<ModelClient, bellamy_core::BellamyError> {
    let ob = &world.onboardings[onboarding];
    service.finetuned_client_with(
        &world.generals[ob.general].key,
        &ob.label,
        &ob.observed,
        &finetune_config(),
        STRATEGY,
        ob.seed,
    )
}

impl Prepared {
    /// The inputs.
    pub fn world(&self) -> &World {
        match self {
            Prepared::ServeMix { world, .. } | Prepared::HubRestart { world, .. } => world,
        }
    }

    /// Runs one timed pass of about `secs` seconds whose measurement
    /// windows are numbered from `first_group` on. A traced pass records up
    /// to `cap` spans and ends early when they are used up.
    pub fn run(&self, secs: f64, traced: bool, cap: usize, first_group: usize) -> Pass {
        let budget = Duration::from_secs_f64(secs);
        match self {
            Prepared::ServeMix {
                world,
                service,
                served,
                ..
            } => serve_mix(world, service, served, budget, traced, cap, first_group),
            Prepared::HubRestart {
                world,
                dir,
                entries,
                ..
            } => hub_restart(world, dir, entries, budget, traced, cap, first_group),
        }
    }

    /// The general models.
    pub fn generals(&self) -> &Generals {
        match self {
            Prepared::ServeMix { generals, .. } | Prepared::HubRestart { generals, .. } => generals,
        }
    }
}

fn serve_mix(
    world: &World,
    service: &Service,
    served: &[Served],
    budget: Duration,
    traced: bool,
    cap: usize,
    first_group: usize,
) -> Pass {
    let sgd_ctxs: Vec<usize> = world
        .data
        .contexts_for(Algorithm::Sgd)
        .iter()
        .map(|c| c.id)
        .collect();
    let batchers_before = served.iter().fold(Default::default(), |mut acc, s| {
        crate::world::add_batcher(&mut acc, s.client.batcher_stats(), false);
        acc
    });
    let hub_before = service.stats();
    let started = Instant::now();
    let deadline = started + budget;
    let results: Vec<(Samples, SpanBuf)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SERVE_THREADS)
            .map(|t| {
                let sgd_ctxs = &sgd_ctxs;
                scope.spawn(move || {
                    serve_client(
                        world,
                        service,
                        served,
                        sgd_ctxs,
                        t,
                        started,
                        first_group,
                        deadline,
                        traced,
                        cap,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("serve-mix client thread"))
            .collect()
    });
    let elapsed_s = started.elapsed().as_secs_f64();
    let mut samples = Samples::default();
    let mut spans = SpanBuf::new(traced, cap * SERVE_THREADS);
    for (s, b) in results {
        samples.merge(s);
        spans.absorb(b);
    }
    for w in 0..(elapsed_s / WINDOW_S).ceil() as usize {
        let secs = (elapsed_s - w as f64 * WINDOW_S).min(WINDOW_S);
        samples.calls.set_time(first_group + w, secs);
    }
    let mut batchers = served.iter().fold(Default::default(), |mut acc, s| {
        crate::world::add_batcher(&mut acc, s.client.batcher_stats(), false);
        acc
    });
    crate::world::add_batcher(&mut batchers, batchers_before, true);
    samples.batcher = batchers;
    let hub = service.stats();
    samples.hub.memory_recalls = hub.memory_recalls - hub_before.memory_recalls;
    samples.hub.finetune_hits = hub.finetune_hits - hub_before.finetune_hits;
    samples.hub.finetunes = hub.finetunes - hub_before.finetunes;
    samples.hub.disk_retries = hub.disk_retries - hub_before.disk_retries;
    samples.hub.quarantined = hub.quarantined - hub_before.quarantined;
    samples.cached = served
        .iter()
        .map(|s| s.client.state().encoding_cache_len() as u64)
        .sum();
    Pass { samples, spans }
}

/// One serve-mix client: back-to-back calls from a seeded stream. Seven of
/// eight calls are a single predict on a long-lived client; the eighth
/// asks the service for a fresh client of the model (as a resource manager
/// does per job submission) and requests a scale-out over 2..=12.
#[allow(clippy::too_many_arguments)]
fn serve_client(
    world: &World,
    service: &Service,
    served: &[Served],
    sgd_ctxs: &[usize],
    thread: usize,
    started: Instant,
    first_group: usize,
    deadline: Instant,
    traced: bool,
    cap: usize,
) -> (Samples, SpanBuf) {
    let mut stream = Stream::new(world.seed, 10 + thread as u64);
    let clients: Vec<ModelClient> = served.iter().map(|s| s.client.clone()).collect();
    let mut predictor = Predictor::new();
    let mut out = Samples::default();
    let mut spans = SpanBuf::new(traced, cap);
    let context_of = |stream: &mut Stream, m: usize| match served[m].onboarding {
        Some(i) => world.onboardings[i].ctx,
        None => sgd_ctxs[stream.below(sgd_ctxs.len())],
    };
    let req_base = (thread as u64) << 48;
    let mut i: u64 = 0;
    loop {
        let m = stream.below(served.len());
        let ctx = context_of(&mut stream, m);
        let props = &world.props[ctx];
        let req = req_base | i;
        i += 1;
        out.group = first_group + (started.elapsed().as_secs_f64() / WINDOW_S) as usize;
        if i.is_multiple_of(8) {
            let target = world.target_s[ctx];
            let root = spans.begin("req.recommend", req);
            let t0 = Instant::now();
            let client = spans.time("hub.client", req, || match served[m].onboarding {
                Some(ob) => acquire_finetuned(service, world, ob),
                None => service.client(&world.generals[world.general_of(Algorithm::Sgd)].key),
            });
            let t1 = Instant::now();
            let rec = client.as_ref().ok().map(|c| {
                spans.time("serve.recommend", req, || {
                    c.recommend_scale_out(props, target, SCALE_LO, SCALE_HI)
                })
            });
            let t2 = Instant::now();
            spans.end(root);
            let Some(client) = out.call("client", client) else {
                continue;
            };
            out.infallible();
            out.ready_ns.push(out.group, nanos(t2 - t0));
            out.recommend_ns.push(out.group, nanos(t2 - t1));
            out.lookups += lookups(props);
            if i.is_multiple_of(8 * CHECK_EVERY) {
                let state = client.state();
                if state.params_fingerprint() != served[m].fingerprint {
                    out.fail(format!(
                        "model {m}: acquired weights differ from the served ones"
                    ));
                }
                let rec = rec.expect("recommended when the client was acquired");
                out.check_recommendation(&mut predictor, state, props, target, &rec);
            }
            if t2 >= deadline || spans.full() {
                break;
            }
        } else {
            let x = f64::from(SCALE_LO + stream.below((SCALE_HI - SCALE_LO + 1) as usize) as u32);
            let root = spans.begin("req.predict", req);
            let t0 = Instant::now();
            let p = spans.time("serve.predict", req, || clients[m].predict(x, props));
            let t1 = Instant::now();
            spans.end(root);
            out.predict_ns.push(out.group, nanos(t1 - t0));
            out.lookups += lookups(props);
            if let Some(p) = out.call("predict", p) {
                if out.check_prediction("predict", p) && i % CHECK_EVERY == 1 {
                    out.check_direct(&mut predictor, clients[m].state(), x, props, p);
                }
            }
            if t1 >= deadline || spans.full() {
                break;
            }
        }
    }
    (out, spans)
}

fn hub_restart(
    world: &World,
    dir: &Path,
    entries: &[(ModelKey, usize, u64)],
    budget: Duration,
    traced: bool,
    cap: usize,
    first_group: usize,
) -> Pass {
    let mut out = Samples::default();
    let mut spans = SpanBuf::new(traced, cap);
    let mut predictor = Predictor::new();
    let started = Instant::now();
    let mut order: Vec<usize> = (0..entries.len()).collect();
    let mut round: u64 = 0;
    while round == 0 || (started.elapsed() < budget && !spans.full()) {
        let Some(service) = out.call("build", Service::builder().hub_dir(dir).build()) else {
            break;
        };
        Stream::new(world.seed, 100 + round).shuffle(&mut order);
        let round_started = Instant::now();
        let mut predicted = Vec::new();
        out.group = first_group + (started.elapsed().as_secs_f64() / WINDOW_S) as usize;
        for (j, &e) in order.iter().enumerate() {
            let (key, ctx, fingerprint) = &entries[e];
            let props = &world.props[*ctx];
            let target = world.target_s[*ctx];
            let req = round << 32 | j as u64;
            let predict = j.is_multiple_of(8);
            let root = spans.begin("req.ready", req);
            let t0 = Instant::now();
            let client = spans.time("hub.client", req, || service.client(key));
            let t1 = Instant::now();
            let rec = client.as_ref().ok().map(|c| {
                spans.time("serve.recommend", req, || {
                    c.recommend_scale_out(props, target, SCALE_LO, SCALE_HI)
                })
            });
            let t2 = Instant::now();
            let x = rec
                .as_ref()
                .and_then(|r| r.as_ref())
                .map_or(f64::from(SCALE_LO), |r| f64::from(r.scale_out));
            // The first predict starts the model's serving thread (the
            // per-layer serve.first_predict_us); predict_* time the second.
            let p = match (&client, predict) {
                (Ok(c), true) => {
                    let first = spans.time("serve.first_predict", req, || c.predict(x, props));
                    let t = Instant::now();
                    let warm = spans.time("serve.predict", req, || c.predict(x, props));
                    Some((first, warm, nanos(t.elapsed())))
                }
                _ => None,
            };
            spans.end(root);
            let Some(client) = out.call("client", client) else {
                continue;
            };
            out.infallible();
            out.ready_ns.push(out.group, nanos(t2 - t0));
            out.recommend_ns.push(out.group, nanos(t2 - t1));
            out.lookups += lookups(props);
            let state = Arc::clone(client.state());
            if state.params_fingerprint() != *fingerprint {
                out.fail(format!(
                    "{}: recalled weights differ from the published ones",
                    key.id()
                ));
            }
            if let Some((first, warm, warm_ns)) = p {
                out.predict_ns.push(out.group, warm_ns);
                out.lookups += 2 * lookups(props);
                let first = out.call("predict", first);
                if let Some(p) = out.call("predict", warm) {
                    if out.check_prediction("predict", p) {
                        out.check_direct(&mut predictor, &state, x, props, p);
                    }
                    if first.is_some_and(|f| f.to_bits() != p.to_bits()) {
                        out.fail(format!("{}: first and second predict differ", key.id()));
                    }
                }
                let rec = rec.expect("recommended when the client was recalled");
                out.check_recommendation(&mut predictor, &state, props, target, &rec);
                out.add_batcher(client.batcher_stats());
                // Keep the client, and so its serving thread, until the
                // round ends: the next model's first predict must not pay
                // for winding this one down.
                predicted.push(client);
            }
            out.cached += state.encoding_cache_len() as u64;
        }
        drop(predicted);
        crate::world::add_hub(&mut out.hub, service.stats());
        let secs = round_started.elapsed().as_secs_f64();
        out.calls.add_time(out.group, secs);
        round += 1;
    }
    Pass {
        samples: out,
        spans,
    }
}
