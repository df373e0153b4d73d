//! Serving a query spawns no thread: the first `predict` on a freshly
//! served model only registers a thread-free admission gate. Kept in its
//! own test binary so no sibling test spawns threads while the task count
//! is compared.

use bellamy_core::train::pretrain;
use bellamy_core::{
    Bellamy, BellamyConfig, ContextProperties, ModelState, PretrainConfig, Service, TrainingSample,
};
use bellamy_encoding::PropertyValue;
use std::sync::Arc;

fn fresh_state(seed: u64) -> Arc<ModelState> {
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
    // Zero epochs on one worker: fitted scalers, untrained weights, and no
    // worker team.
    let cfg = PretrainConfig {
        epochs: 0,
        workers: 1,
        shards: 1,
        ..PretrainConfig::default()
    };
    let mut model = Bellamy::new(BellamyConfig::default(), seed);
    pretrain(&mut model, &samples, &cfg, seed);
    model.snapshot().expect("fitted")
}

#[cfg(target_os = "linux")]
fn threads_in_process() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs task list")
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn first_predicts_on_fresh_models_spawn_no_thread() {
    let service = Service::in_memory();
    let states: Vec<Arc<ModelState>> = (0..32).map(fresh_state).collect();
    let props = ContextProperties {
        essential: vec![PropertyValue::Number(2048)],
        optional: vec![],
    };
    let before = threads_in_process();
    let clients: Vec<_> = states
        .into_iter()
        .map(|state| service.client_for_state(state))
        .collect();
    for client in &clients {
        assert!(client.predict(4.0, &props).expect("served").is_finite());
    }
    assert_eq!(
        threads_in_process(),
        before,
        "serving 32 fresh models must not spawn a thread"
    );
    assert!(clients.iter().all(|c| c.batcher_stats().queries == 1));
}
