//! End-to-end Fast-tier tolerance: eval MAE and allocation decisions.
//!
//! Kernel tier resolution is **process-wide** (one `OnceLock`), so exact
//! and fast tiers cannot be compared inside one process. Instead the parent
//! test re-spawns this test binary as two children — `BELLAMY_KERNEL=scalar`
//! and `BELLAMY_KERNEL=fma` — each of which trains the same deterministic
//! model, serves it, and emits predictions (as exact bit patterns), the
//! eval-level MAE, and `recommend_scale_out` decisions on marked lines.
//! The parent then pins the Fast tier's end-to-end budget:
//!
//! - every served prediction within a small relative tolerance of exact,
//! - MAE within 1% of the exact tier's,
//! - identical scale-out recommendations (the paper's decision surface:
//!   Fast may move runtimes by ULPs, never the chosen allocation),
//! - the fma child really resolved an FMA backend when the host has one
//!   (else it degraded, the children match bitwise, and the suite still
//!   proves the degradation path).
//!
//! A third child pins override precedence end to end: a programmatic
//! `ServiceBuilder::kernel_tier(Scalar)` issued before any kernel runs must
//! beat `BELLAMY_KERNEL=fma` from the environment, reproducing the scalar
//! child bit for bit.

use bellamy_core::train::pretrain;
use bellamy_core::{
    Bellamy, BellamyConfig, ContextProperties, ModelKey, PretrainConfig, Service, TierRequest,
    TrainingSample,
};
use bellamy_encoding::PropertyValue;
use std::process::Command;

/// Role marker for re-spawned children; absent in normal test runs.
const ROLE_ENV: &str = "BELLAMY_FMA_E2E_ROLE";
/// Prefix of machine-readable child output lines.
const TAG: &str = "FMA_E2E";

const SWEEP_LO: u32 = 2;
const SWEEP_HI: u32 = 12;
const TARGETS: [f64; 4] = [100.0, 130.0, 160.0, 220.0];

/// Same deterministic corpus family as `mmap_store.rs`.
fn corpus(salt: u64) -> Vec<TrainingSample> {
    (0..18)
        .map(|i| {
            let x = 2.0 + (i % 6) as f64 * 2.0;
            TrainingSample {
                scale_out: x,
                runtime_s: 90.0 + 350.0 / x + 2.0 * ((i + salt as usize) % 5) as f64,
                props: ContextProperties {
                    essential: vec![
                        PropertyValue::Number(2048 + 256 * (i as u64 % 4) + salt),
                        PropertyValue::text("c4.2xlarge"),
                    ],
                    optional: vec![],
                },
            }
        })
        .collect()
}

/// The child: resolves its tier (from `BELLAMY_KERNEL`, or programmatically
/// when the role says so), trains, serves, and prints the measurements.
/// Runs as a no-op unless re-spawned by a parent test.
#[test]
fn child_emit_fma_e2e() {
    let Ok(role) = std::env::var(ROLE_ENV) else {
        return;
    };
    let mut builder = Service::builder();
    if role == "program-scalar" {
        // Issued before any kernel has run in this process, so it must win
        // over whatever BELLAMY_KERNEL says.
        builder = builder.kernel_tier(TierRequest::Scalar);
    }
    let service = builder.build().unwrap();

    let samples = corpus(9);
    let mut model = Bellamy::new(BellamyConfig::default(), 9);
    pretrain(
        &mut model,
        &samples,
        &PretrainConfig {
            epochs: 3,
            ..PretrainConfig::default()
        },
        9,
    );
    let key = ModelKey::new("grep", "runtime", &BellamyConfig::default());
    let client = service.publish(&key, &model).unwrap();

    let res = bellamy_linalg::kernels::resolution();
    println!(
        "{TAG} kernel {} {}",
        res.requested_name(),
        res.resolved_name()
    );

    let mut abs_err_sum = 0.0;
    for (i, s) in samples.iter().enumerate() {
        let p = client.predict(s.scale_out, &s.props).unwrap();
        abs_err_sum += (p - s.runtime_s).abs();
        println!("{TAG} pred {i} {:016x}", p.to_bits());
    }
    println!(
        "{TAG} mae {:016x}",
        (abs_err_sum / samples.len() as f64).to_bits()
    );

    for target in TARGETS {
        let rec = client.recommend_scale_out(&samples[0].props, target, SWEEP_LO, SWEEP_HI);
        match rec {
            Some(r) => println!("{TAG} rec {target} {}", r.scale_out),
            None => println!("{TAG} rec {target} none"),
        }
    }
}

#[derive(Debug, PartialEq)]
struct ChildReport {
    requested: String,
    resolved: String,
    preds: Vec<f64>,
    mae: f64,
    recs: Vec<(f64, Option<u32>)>,
}

fn run_child(kernel_env: &str, role: &str) -> ChildReport {
    let exe = std::env::current_exe().unwrap();
    let out = Command::new(exe)
        .args(["--exact", "child_emit_fma_e2e", "--nocapture"])
        .env("BELLAMY_KERNEL", kernel_env)
        .env(ROLE_ENV, role)
        .output()
        .expect("spawn child test binary");
    assert!(
        out.status.success(),
        "child ({kernel_env}/{role}) failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let mut report = ChildReport {
        requested: String::new(),
        resolved: String::new(),
        preds: Vec::new(),
        mae: f64::NAN,
        recs: Vec::new(),
    };
    for line in stdout.lines() {
        // The libtest harness glues "test child_emit_fma_e2e ... " in front
        // of the child's first print, so scan for the tag instead of
        // prefix-matching.
        let Some(at) = line.find(TAG) else {
            continue;
        };
        let rest = &line[at + TAG.len()..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let bits = |s: &str| f64::from_bits(u64::from_str_radix(s, 16).unwrap());
        match fields.as_slice() {
            ["kernel", req, res] => {
                report.requested = (*req).to_string();
                report.resolved = (*res).to_string();
            }
            ["pred", _, hex] => report.preds.push(bits(hex)),
            ["mae", hex] => report.mae = bits(hex),
            ["rec", target, which] => {
                let rec = (*which != "none").then(|| which.parse().unwrap());
                report.recs.push((target.parse().unwrap(), rec));
            }
            _ => panic!("unparseable child line: {line}"),
        }
    }
    assert_eq!(report.preds.len(), corpus(9).len(), "missing predictions");
    assert_eq!(report.recs.len(), TARGETS.len(), "missing recommendations");
    assert!(report.mae.is_finite(), "missing MAE");
    report
}

fn host_has_fma() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(target_arch = "aarch64")]
    {
        true
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        false
    }
}

#[test]
fn fast_tier_stays_within_eval_and_decision_budget() {
    let exact = run_child("scalar", "env");
    let fast = run_child("fma", "env");

    assert_eq!(exact.requested, "scalar");
    assert_eq!(exact.resolved, "scalar");
    assert_eq!(fast.requested, "fma");
    if host_has_fma() {
        assert!(
            fast.resolved == "avx2-fma" || fast.resolved == "neon-fma",
            "host supports FMA but the fma child resolved {:?}",
            fast.resolved
        );
    }

    // Trained weights and served predictions may drift by fused-rounding
    // noise amplified through 3 epochs of training — but only just.
    for (i, (e, f)) in exact.preds.iter().zip(&fast.preds).enumerate() {
        let rel = (f - e).abs() / e.abs().max(1.0);
        assert!(
            rel <= 1e-6,
            "pred[{i}]: exact {e:?} vs fast {f:?} (rel {rel:e})"
        );
    }

    // Eval-level budget: the Fast tier must not move the headline accuracy
    // metric of the reproduction by more than 1%.
    let mae_budget = 0.01 * exact.mae.max(1.0);
    assert!(
        (fast.mae - exact.mae).abs() <= mae_budget,
        "MAE moved beyond budget: exact {:?} vs fast {:?}",
        exact.mae,
        fast.mae
    );

    // Decision-level budget: identical allocations at every target.
    assert_eq!(
        exact.recs, fast.recs,
        "Fast tier changed a scale-out recommendation"
    );
}

#[test]
fn programmatic_scalar_request_beats_fma_env() {
    let exact = run_child("scalar", "env");
    let forced = run_child("fma", "program-scalar");
    // The builder's request resolved first, so the env never applied: the
    // run is the scalar run, bit for bit.
    assert_eq!(forced.requested, "scalar");
    assert_eq!(forced.resolved, "scalar");
    let to_bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
    assert_eq!(to_bits(&exact.preds), to_bits(&forced.preds));
    assert_eq!(exact.mae.to_bits(), forced.mae.to_bits());
    assert_eq!(exact.recs, forced.recs);
}
