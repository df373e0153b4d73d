//! Per-layer probes of the traced run. Each probe calls one layer's public
//! functions inside spans, on the workload's own inputs and models, and the
//! per-layer metrics are read back from those spans' self times.

use crate::stats::{median, percentile_us, Stream};
use crate::trace::{self_times_by_name, SpanBuf};
use crate::world::{finetune_config, Generals, Samples, World, SCALE_HI, SCALE_LO, STRATEGY};
use bellamy_core::finetune::fine_tune;
use bellamy_core::train::Pretrainer;
use bellamy_core::{
    Bellamy, BellamyConfig, ModelHub, ModelKey, ModelState, Predictor, PretrainConfig, Service,
};
use bellamy_data::Algorithm;
use bellamy_encoding::{PropertyEncoder, PropertyValue};
use bellamy_linalg::kernels;
use bellamy_nn::Checkpoint;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// The default configuration's layer shapes `(k, n)`: f 3→16→8,
/// g 40→8→4, h 4→8→40, z 28→8→1.
pub const LAYER_SHAPES: [(usize, usize); 8] = [
    (3, 16),
    (16, 8),
    (40, 8),
    (8, 4),
    (4, 8),
    (8, 40),
    (28, 8),
    (8, 1),
];
/// Batch rows the matmul probe runs at: a single predict, an 11-point
/// sweep, and a pre-training minibatch.
pub const MATMUL_ROWS: [usize; 3] = [1, 11, 64];
/// Matmul calls per span (one call is too short to time alone).
const MATMUL_CALLS: usize = 64;

/// Name of the matmul metric for rows `m` and shape `(k, n)`.
pub fn matmul_metric(m: usize, k: usize, n: usize) -> String {
    format!("kernels.matmul_us.{m}x{k}x{n}")
}

/// Metrics [`probe_all`] derives, besides the matmul shapes: name and unit.
pub const PROBE_METRICS: [(&str, &str); 19] = [
    ("serve.predict_self_us", "us"),
    ("serve.first_predict_us", "us"),
    ("predictor.one_us", "us"),
    ("predictor.sweep11_us", "us"),
    ("predictor.sweep11_cold_us", "us"),
    ("encoding.encode_us", "us"),
    ("train.epoch_ms", "ms"),
    ("train.epoch_seq_ms", "ms"),
    ("par.speedup", "ratio"),
    ("finetune.ms", "ms"),
    ("finetune.epoch_us", "us"),
    ("finetune.epochs", "count"),
    ("hub.publish_us", "us"),
    ("hub.recall_disk_us", "us"),
    ("hub.recall_memory_us", "us"),
    ("checkpoint.load_us", "us"),
    ("checkpoint.map_us", "us"),
    ("state.build_us", "us"),
    ("telemetry.overhead_pct", "%"),
];

/// A per-layer metric value with its unit.
pub type Metric = (String, f64, &'static str);

/// Everything the probes read.
pub struct ProbeInputs<'a> {
    /// The workload's inputs.
    pub world: &'a World,
    /// General models, one per algorithm.
    pub generals: &'a Generals,
    /// The model the serving probes query.
    pub state: Arc<ModelState>,
    /// Scratch directory for the hub and checkpoint probes.
    pub dir: &'a Path,
}

/// p50 self time of spans named `name`, µs.
fn p50(by_name: &HashMap<&'static str, Vec<u64>>, name: &str) -> f64 {
    let mut v = by_name.get(name).cloned().unwrap_or_default();
    if v.is_empty() {
        return f64::NAN;
    }
    percentile_us(&mut v, 0.5)
}

/// Runs every probe, recording its spans into `spans`, and returns the
/// probe-derived metrics. Failed checks land in `checks`.
pub fn probe_all(inp: &ProbeInputs<'_>, spans: &mut SpanBuf, checks: &mut Samples) -> Vec<Metric> {
    // Probe spans are roots whose names do not start with `req.`, so they
    // never count as workload requests.
    let first = spans.spans().len();
    let world = inp.world;
    let mut stream = Stream::new(world.seed, 50);
    let query: Vec<(f64, usize)> = (0..20_000)
        .map(|_| {
            let x = f64::from(SCALE_LO + stream.below((SCALE_HI - SCALE_LO + 1) as usize) as u32);
            (x, stream.below(world.props.len()))
        })
        .collect();

    // core::serve vs core::predictor: the same stream and state through
    // ModelClient::predict and Predictor::predict_one, alternating per query.
    let service = Service::in_memory();
    let client = service.client_for_state(Arc::clone(&inp.state));
    let mut predictor = Predictor::new();
    for &(x, c) in &query[..500] {
        let _ = client.predict(x, &world.props[c]);
        predictor.predict_one(&inp.state, x, &world.props[c]);
    }
    for (r, &(x, c)) in query.iter().enumerate() {
        let props = &world.props[c];
        let served = spans.time("serve.predict", r as u64, || client.predict(x, props));
        let direct = spans.time("predictor.predict_one", r as u64, || {
            predictor.predict_one(&inp.state, x, props)
        });
        match checks.call("predict", served) {
            Some(p) if p.to_bits() != direct.to_bits() => {
                checks.fail(format!("probe: served {p} differs from direct {direct}"))
            }
            _ => {}
        }
    }
    drop(client);

    // First predict on a fresh model, which starts its serving thread. The
    // clients are kept until all are done, so no first predict also pays
    // for winding down an earlier model's thread.
    let mut fresh_clients = Vec::new();
    for (i, &(x, ctx)) in query[..64].iter().enumerate() {
        let fresh = Bellamy::from_state(&inp.state)
            .snapshot()
            .expect("a state derived from a fitted state is fitted");
        let c = service.client_for_state(fresh);
        let p = spans.time("serve.first_predict", i as u64, || {
            c.predict(x, &world.props[ctx])
        });
        checks.call("predict", p);
        fresh_clients.push(c);
    }
    drop(fresh_clients);

    // core::predictor and core::state: warm and cold 11-point sweeps.
    let xs: Vec<f64> = (SCALE_LO..=SCALE_HI).map(f64::from).collect();
    for (i, &(_, c)) in query[..2000].iter().enumerate() {
        spans.time("predictor.sweep11", i as u64, || {
            predictor
                .predict_sweep(&inp.state, &world.props[c], &xs)
                .len()
        });
    }
    for (i, &(_, c)) in query[..200].iter().enumerate() {
        let fresh = Bellamy::from_state(&inp.state)
            .snapshot()
            .expect("a state derived from a fitted state is fitted");
        spans.time("predictor.sweep11_cold", i as u64, || {
            predictor.predict_sweep(&fresh, &world.props[c], &xs).len()
        });
    }

    // encoding: every property value of the dataset's contexts.
    let encoder = PropertyEncoder::new(BellamyConfig::default().property_dim);
    let values: Vec<&PropertyValue> = world
        .props
        .iter()
        .flat_map(|p| p.essential.iter().chain(p.optional.iter()))
        .collect();
    for rep in 0..4 {
        for (i, v) in values.iter().enumerate() {
            spans.time("encoding.encode", (rep * values.len() + i) as u64, || {
                encoder.encode(v).len()
            });
        }
    }

    // linalg::kernels: the layer shapes at 1, 11 and 64 rows.
    let table = kernels::active();
    let mut matmul_names = Vec::new();
    for &m in &MATMUL_ROWS {
        for &(k, n) in &LAYER_SHAPES {
            let name: &'static str = Box::leak(matmul_metric(m, k, n).into_boxed_str());
            matmul_names.push(name);
            let a: Vec<f64> = (0..m * k)
                .map(|_| stream.next_u64() as f64 / u64::MAX as f64)
                .collect();
            let b: Vec<f64> = (0..k * n)
                .map(|_| stream.next_u64() as f64 / u64::MAX as f64)
                .collect();
            let mut out = vec![0.0; m * n];
            for rep in 0..40 {
                spans.time(name, rep, || {
                    for _ in 0..MATMUL_CALLS {
                        table.matmul(
                            std::hint::black_box(&a),
                            std::hint::black_box(&b),
                            &mut out,
                            m,
                            k,
                            n,
                        );
                    }
                });
            }
            std::hint::black_box(&out);
        }
    }

    // core::train and par: epochs at the default worker count and at one
    // worker on one shard.
    let corpus = &world.generals[world.general_of(Algorithm::Sgd)].corpus;
    let epoch_cfgs = [
        ("train.epoch", world.pretrain),
        (
            "train.epoch_seq",
            PretrainConfig {
                workers: 1,
                shards: 1,
                ..world.pretrain
            },
        ),
    ];
    for (name, cfg) in epoch_cfgs {
        let mut model = Bellamy::new(BellamyConfig::default(), world.seed);
        let mut trainer = Pretrainer::new(&mut model, corpus, &cfg, world.seed);
        trainer.run_epoch(&mut model);
        for e in 0..8 {
            spans.time(name, e, || trainer.run_epoch(&mut model));
        }
    }

    // core::finetune: the first 24 onboardings, fine-tuned directly with
    // the settings every onboard uses.
    let mut epochs = 0usize;
    for (i, ob) in world.onboardings.iter().take(24).enumerate() {
        let mut trainer = Bellamy::from_state(&inp.generals[ob.general]);
        let report = spans.time("finetune.fine_tune", i as u64, || {
            fine_tune(
                &mut trainer,
                &ob.observed,
                &finetune_config(),
                STRATEGY,
                ob.seed,
            )
        });
        epochs += report.epochs;
    }

    // core::hub, nn::checkpoint and core::state: publish, recall from a
    // fresh hub and from memory, and decode the files directly.
    let hub_dir = inp.dir.join("probe-hub");
    let _ = std::fs::remove_dir_all(&hub_dir);
    let trainer = Bellamy::from_state(&inp.state);
    let keys: Vec<ModelKey> = (0..64)
        .map(|i| ModelKey::new("probe", format!("k{i}"), &BellamyConfig::default()))
        .collect();
    if let Some(hub) = checks.call("open hub", ModelHub::at(&hub_dir)) {
        for (i, key) in keys.iter().enumerate() {
            let r = spans.time("hub.publish", i as u64, || hub.publish(key, &trainer));
            checks.call("publish", r);
        }
    }
    if let Some(hub) = checks.call("open hub", ModelHub::at(&hub_dir)) {
        for (i, key) in keys.iter().enumerate() {
            let r = spans.time("hub.recall_disk", i as u64, || hub.recall(key));
            checks.call("recall", r);
        }
        for (i, key) in keys.iter().enumerate() {
            let r = spans.time("hub.recall_memory", i as u64, || hub.recall(key));
            checks.call("recall", r);
        }
    }
    for (i, key) in keys.iter().enumerate() {
        let path = hub_dir.join(format!("{}.blmy", key.id()));
        let loaded = spans.time("checkpoint.load", i as u64, || Checkpoint::load(&path));
        checks.call("load", loaded);
        let mapped = spans.time("checkpoint.map", i as u64, || Checkpoint::map(&path));
        if let Some(ck) = checks.call("map", mapped) {
            let state = spans.time("state.build", i as u64, || ModelState::from_checkpoint(ck));
            checks.call("from_checkpoint", state);
        }
    }
    let _ = std::fs::remove_dir_all(&hub_dir);

    // telemetry: single-thread predict windows with latency timing off and
    // on, interleaved.
    let client = service.client_for_state(Arc::clone(&inp.state));
    let window = |on: bool, spans: &mut SpanBuf, w: u64| {
        bellamy_telemetry::set_timing_enabled(on);
        let name = if on {
            "telemetry.window_on"
        } else {
            "telemetry.window_off"
        };
        spans.time(name, w, || {
            for &(x, c) in &query[..2000] {
                let _ = std::hint::black_box(client.predict(x, &world.props[c]));
            }
        });
    };
    for w in 0..20 {
        window(false, spans, w);
        window(true, spans, w);
    }
    bellamy_telemetry::set_timing_enabled(true);

    let by_name = self_times_by_name(&spans.spans()[first..]);
    let mut m: Vec<Metric> = Vec::new();
    let one = p50(&by_name, "predictor.predict_one");
    m.push((
        "serve.predict_self_us".into(),
        p50(&by_name, "serve.predict") - one,
        "us",
    ));
    m.push((
        "serve.first_predict_us".into(),
        p50(&by_name, "serve.first_predict"),
        "us",
    ));
    m.push(("predictor.one_us".into(), one, "us"));
    m.push((
        "predictor.sweep11_us".into(),
        p50(&by_name, "predictor.sweep11"),
        "us",
    ));
    m.push((
        "predictor.sweep11_cold_us".into(),
        p50(&by_name, "predictor.sweep11_cold"),
        "us",
    ));
    m.push((
        "encoding.encode_us".into(),
        p50(&by_name, "encoding.encode"),
        "us",
    ));
    for name in matmul_names {
        m.push((
            name.to_string(),
            p50(&by_name, name) / MATMUL_CALLS as f64,
            "us",
        ));
    }
    let epoch = p50(&by_name, "train.epoch") / 1e3;
    let epoch_seq = p50(&by_name, "train.epoch_seq") / 1e3;
    m.push(("train.epoch_ms".into(), epoch, "ms"));
    m.push(("train.epoch_seq_ms".into(), epoch_seq, "ms"));
    m.push(("par.speedup".into(), epoch_seq / epoch, "ratio"));
    let ft = by_name
        .get("finetune.fine_tune")
        .cloned()
        .unwrap_or_default();
    let ft_total_us = ft.iter().sum::<u64>() as f64 / 1e3;
    m.push((
        "finetune.ms".into(),
        p50(&by_name, "finetune.fine_tune") / 1e3,
        "ms",
    ));
    m.push((
        "finetune.epoch_us".into(),
        ft_total_us / epochs.max(1) as f64,
        "us",
    ));
    m.push(("finetune.epochs".into(), epochs as f64, "count"));
    m.push(("hub.publish_us".into(), p50(&by_name, "hub.publish"), "us"));
    m.push((
        "hub.recall_disk_us".into(),
        p50(&by_name, "hub.recall_disk"),
        "us",
    ));
    m.push((
        "hub.recall_memory_us".into(),
        p50(&by_name, "hub.recall_memory"),
        "us",
    ));
    m.push((
        "checkpoint.load_us".into(),
        p50(&by_name, "checkpoint.load"),
        "us",
    ));
    m.push((
        "checkpoint.map_us".into(),
        p50(&by_name, "checkpoint.map"),
        "us",
    ));
    m.push(("state.build_us".into(), p50(&by_name, "state.build"), "us"));
    let windows = |name| {
        let v: Vec<f64> = by_name
            .get(name)
            .map(|v| v.iter().map(|&ns| ns as f64).collect())
            .unwrap_or_default();
        median(&v)
    };
    let (off, on) = (
        windows("telemetry.window_off"),
        windows("telemetry.window_on"),
    );
    m.push((
        "telemetry.overhead_pct".into(),
        (on - off) / off * 100.0,
        "%",
    ));
    m
}
