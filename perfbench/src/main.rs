//! The repository benchmark: one workload, one seed, one JSON result.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-mix --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` alternates [`SETUPS`] timed set-ups with timed passes that
//! share `--seconds` between them, checks every output and prints the
//! end-to-end metrics. Timings are kept per group (a 1 s window or a
//! set-up) and reported as the interquartile mean of the groups' figures
//! (see `stats::Grouped`). `peak_rss_mb` is the highest peak of the timed
//! passes: the high-water mark is reset when each set-up ends. `--trace 1`
//! sets up once,
//! runs an untraced and a traced pass of half the time each, then runs the
//! per-layer probes, and prints the per-layer metrics derived from their
//! spans; the spans are written to `perfbench/out/`. The last stdout line
//! is the result object; the line before it stamps the host, kernel
//! dispatch, commit and seed.
//! A failed output check makes the run exit with status 1.

mod layers;
mod stats;
mod trace;
mod workloads;
mod world;

use stats::{interquartile_mean, median, Ledger};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::{attribute, SpanBuf};
use workloads::{Pass, Prepared, Workload};
use world::{onboard_mre, Samples};

/// Set-ups of an untraced run, each on its own part of the seed's inputs
/// and each followed by a timed pass of `--seconds / SETUPS`. The host's
/// speed drifts by up to 1.5x, in stretches from a fraction of a second
/// to minutes; alternating spreads both the set-up measurements
/// (`setup_s` and the reuse pass each set-up holds: pre-training and
/// about a second of onboarding) and the timed windows over the whole
/// run, so a slow stretch touches a part of each rather than all of one.
const SETUPS: u64 = 6;

/// Span buffer capacity per recording thread: a traced pass ends when it
/// is used up, and the trace file stays near 10 MB.
const SPAN_CAP: usize = 100_000;

/// End-to-end metrics, reported by every workload: name and unit.
pub const END_TO_END: [(&str, &str); 13] = [
    ("setup_s", "s"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MB"),
    ("predict_p50_us", "us"),
    ("predict_p99_us", "us"),
    ("recommend_p50_us", "us"),
    ("ops_per_s", "1/s"),
    ("pretrain_samples_per_s", "1/s"),
    ("onboard_p50_ms", "ms"),
    ("onboard_p90_ms", "ms"),
    ("onboard_mre", "ratio"),
    ("ready_p50_us", "us"),
    ("ready_p90_us", "us"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <serve-mix|hub-restart> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let run_dir = out_dir.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("error: cannot create {}: {e}", run_dir.display());
        return ExitCode::from(2);
    }
    let outcome = if args.trace {
        run_traced(&args, &run_dir, &out_dir)
    } else {
        run_untraced(&args, &run_dir)
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    let Some((ledger, mut failures, metrics)) = outcome else {
        eprintln!("error: set-up failed");
        return ExitCode::from(1);
    };
    if let Some((name, _, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        failures.push(format!("metric {name} is not a finite number"));
    }
    println!("{}", stamp(&args, &out_dir));
    let correct = failures.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { -1.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.attempted,
        ledger.failed.max(u64::from(!correct)),
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("{} output check(s) failed", failures.len());
        ExitCode::from(1)
    }
}

type Outcome = Option<(Ledger, Vec<String>, Vec<layers::Metric>)>;

/// Attempted/failed ops of a set of samples, with faults the program
/// absorbed internally added as failed attempts.
fn ledger_of(s: &Samples) -> Ledger {
    let mut ledger = s.ledger;
    ledger.absorb_internal(s.hub.disk_retries + s.hub.quarantined + s.batcher.restarts);
    ledger
}

fn run_untraced(args: &Args, run_dir: &Path) -> Outcome {
    let mut base = Samples::default();
    let mut s = Samples::default();
    let mut setup_s = Vec::new();
    let mut peak_rss = 0.0f64;
    for rep in 0..SETUPS {
        // Onboarding timings taken during set-up are grouped by set-up.
        base.group = rep as usize;
        let started = Instant::now();
        let prepared = workloads::setup(args.workload, args.seed, rep, run_dir, &mut base)?;
        setup_s.push(started.elapsed().as_secs_f64());
        reset_peak_rss();
        let pass = prepared.run(args.seconds / SETUPS as f64, false, 0, s.calls.groups());
        peak_rss = peak_rss.max(peak_rss_mb());
        drop(prepared);
        s.merge(pass.samples);
    }

    let mut ledger = ledger_of(&base);
    ledger.merge(ledger_of(&s));
    let mut failures = std::mem::take(&mut base.check_failures);
    failures.append(&mut s.check_failures);
    // Pre-training and onboarding happen in set-up.
    let pretrain = interquartile_mean(&base.pretrain_rates);
    let onboard_p50 = base.onboard_ns.percentile_us(0.5) / 1e3;
    let onboard_p90 = base.onboard_ns.percentile_us(0.9) / 1e3;
    let mre = onboard_mre(&base.onboard_errors);
    let setup_s = median(&setup_s);
    let nonpositive = base.nonpositive + s.nonpositive;
    if nonpositive > 0 {
        eprintln!("note: {nonpositive} served predictions were not positive");
    }
    let values = [
        setup_s,
        1.0 - ledger.error_rate(),
        peak_rss,
        s.predict_ns.percentile_us(0.5),
        s.predict_ns.percentile_us(0.99),
        s.recommend_ns.percentile_us(0.5),
        s.calls.per_s(),
        pretrain,
        onboard_p50,
        onboard_p90,
        mre,
        s.ready_ns.percentile_us(0.5),
        s.ready_ns.percentile_us(0.9),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_string(), v, unit))
        .collect();
    Some((ledger, failures, metrics))
}

fn run_traced(args: &Args, run_dir: &Path, out_dir: &Path) -> Outcome {
    let mut base = Samples::default();
    let prepared = workloads::setup(args.workload, args.seed, 0, run_dir, &mut base)?;
    let half = args.seconds / 2.0;
    let untraced = prepared.run(half, false, 0, 0);
    let traced = prepared.run(half, true, SPAN_CAP, 0);
    let generals = prepared.generals();
    let state = match &prepared {
        Prepared::HubRestart { dir, entries, .. } => {
            let service = bellamy_core::Service::builder().hub_dir(dir).build().ok()?;
            let client = base.call("client", service.client(&entries[0].0))?;
            std::sync::Arc::clone(client.state())
        }
        _ => {
            let sgd = prepared.world().general_of(bellamy_data::Algorithm::Sgd);
            std::sync::Arc::clone(&generals[sgd])
        }
    };
    let mut probe_spans = SpanBuf::new(true, usize::MAX);
    let mut checks = Samples::default();
    let inputs = layers::ProbeInputs {
        world: prepared.world(),
        generals,
        state,
        dir: run_dir,
    };
    let mut metrics = layers::probe_all(&inputs, &mut probe_spans, &mut checks);
    metrics.extend(pass_metrics(&untraced, &traced));

    let mut ledger = ledger_of(&base);
    for s in [&untraced.samples, &traced.samples, &checks] {
        ledger.merge(ledger_of(s));
    }
    let mut failures = base.check_failures;
    for s in [untraced.samples, traced.samples, checks] {
        failures.extend(s.check_failures);
    }
    let mut spans = traced.spans;
    spans.absorb(probe_spans);
    // One file per workload, replaced by each traced run, so repeated runs
    // do not fill the disk.
    let path = out_dir.join(format!("trace-{}.jsonl", args.workload.name()));
    match spans.write_jsonl(&path) {
        Ok(()) => eprintln!(
            "{} spans written to {}",
            spans.spans().len(),
            path.display()
        ),
        Err(e) => failures.push(format!("cannot write {}: {e}", path.display())),
    }
    metrics.sort_by(|a, b| a.0.cmp(&b.0));
    let mut declared: Vec<String> = per_layer_declared().into_iter().map(|(n, _)| n).collect();
    declared.sort();
    let printed: Vec<String> = metrics.iter().map(|(n, _, _)| n.clone()).collect();
    if printed != declared {
        failures.push(format!(
            "per-layer metrics {printed:?} differ from {declared:?}"
        ));
    }
    Some((ledger, failures, metrics))
}

/// Metrics of the traced pass: the layer counters it saw, how its request
/// time splits over layer spans, and what tracing cost.
fn pass_metrics(untraced: &Pass, traced: &Pass) -> Vec<layers::Metric> {
    let s = &traced.samples;
    let b = s.batcher;
    let per_batch = |v: u64| v as f64 / b.batches.max(1) as f64;
    let attribution = attribute(traced.spans.spans());
    let rate = |p: &Pass| p.samples.calls.per_s();
    let count = |v: u64| v as f64;
    vec![
        (
            "serve.batch_mean".into(),
            per_batch(b.queries),
            "queries/batch",
        ),
        (
            "serve.assist_share".into(),
            per_batch(b.assist_flushes),
            "ratio",
        ),
        ("serve.shed".into(), count(b.shed), "count"),
        (
            "serve.deadline_expired".into(),
            count(b.deadline_expired),
            "count",
        ),
        ("serve.panics".into(), count(b.panics), "count"),
        ("serve.restarts".into(), count(b.restarts), "count"),
        (
            "predictor.nonpositive".into(),
            count(s.nonpositive),
            "count",
        ),
        (
            "state.cache_hit_share".into(),
            1.0 - s.cached as f64 / s.lookups.max(1) as f64,
            "ratio",
        ),
        ("hub.lru_hits".into(), count(s.hub.finetune_hits), "count"),
        ("hub.lru_misses".into(), count(s.hub.finetunes), "count"),
        (
            "hub.disk_retries".into(),
            count(s.hub.disk_retries),
            "count",
        ),
        ("hub.quarantined".into(), count(s.hub.quarantined), "count"),
        (
            "trace.unattributed_share".into(),
            attribution.unattributed_share(),
            "ratio",
        ),
        (
            "trace.unbalanced".into(),
            count(attribution.unbalanced),
            "count",
        ),
        (
            "trace.spans".into(),
            traced.spans.spans().len() as f64,
            "count",
        ),
        (
            "trace.overhead_pct".into(),
            (rate(untraced) / rate(traced) - 1.0) * 100.0,
            "%",
        ),
    ]
}

/// The per-layer metrics a traced run prints: the pass counters named by
/// [`pass_metrics`], the probe metrics and the matmul shapes.
fn per_layer_declared() -> Vec<(String, String)> {
    let untraced = dummy_pass();
    let traced = dummy_pass();
    let mut names: Vec<(String, String)> = pass_metrics(&untraced, &traced)
        .into_iter()
        .map(|(n, _, u)| (n, u.to_string()))
        .collect();
    for (n, u) in layers::PROBE_METRICS {
        names.push((n.to_string(), u.to_string()));
    }
    for &m in &layers::MATMUL_ROWS {
        for &(k, n) in &layers::LAYER_SHAPES {
            names.push((layers::matmul_metric(m, k, n), "us".to_string()));
        }
    }
    names
}

fn dummy_pass() -> Pass {
    Pass {
        samples: Samples::default(),
        spans: SpanBuf::new(false, 0),
    }
}

/// Resets this process's resident-set high-water mark to its current
/// resident set (Linux 4.0 and later), so that [`peak_rss_mb`] reads the
/// peak of what runs after it.
fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("warning: cannot reset the peak resident set: {e}");
    }
}

/// Peak resident set (`VmHWM`) of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The stamp line: host cores, kernel dispatch, commit and seed. A run
/// whose kernel resolution differs from the previous run of the same
/// workload in `out_dir` is flagged as not comparable with it.
fn stamp(args: &Args, out_dir: &Path) -> String {
    let res = bellamy_linalg::kernels::resolution();
    let kernel = format!("{}->{}", res.requested_name(), res.resolved_name());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let history: PathBuf = out_dir.join("history.jsonl");
    let tag = format!("\"workload\": \"{}\"", args.workload.name());
    let previous_kernel = std::fs::read_to_string(&history).ok().and_then(|h| {
        h.lines()
            .rev()
            .find(|l| l.contains(&tag))
            .and_then(|l| l.split("\"kernel\": \"").nth(1))
            .and_then(|rest| rest.split('"').next())
            .map(str::to_string)
    });
    let comparable = previous_kernel.as_deref().is_none_or(|k| k == kernel);
    if !comparable {
        eprintln!(
            "warning: kernel dispatch {kernel} differs from the previous run's {}; \
             the two runs are not comparable",
            previous_kernel.as_deref().unwrap_or("")
        );
    }
    let line = format!(
        "{{\"stamp\": {{{tag}, \"seed\": {}, \"trace\": {}, \"cores\": {cores}, \
         \"kernel\": \"{kernel}\", \"kernel_degraded\": {}, \"commit\": \"{commit}\", \
         \"comparable_with_previous\": {comparable}}}}}",
        args.seed,
        u8::from(args.trace),
        res.degraded,
    );
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&history)
    {
        use std::io::Write;
        let _ = writeln!(f, "{line}");
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric name the benchmark prints is declared in
    /// `BENCHMARK.json`, with the same unit, and the other way round.
    #[test]
    fn benchmark_json_declares_every_metric() {
        let json = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json next to the benchmark directory");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| {
                    let name = s.split('"').next().unwrap().to_string();
                    let unit = s.split("\"unit\": \"").nth(1).unwrap().split('"').next();
                    (name, unit.unwrap().to_string())
                })
                .collect()
        };
        let declared_e2e = section("end_to_end");
        let printed_e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared_e2e, printed_e2e);

        let mut declared: Vec<(String, String)> = section("per_layer");
        declared.sort();
        let mut printed: Vec<(String, String)> = per_layer_declared();
        printed.sort();
        assert_eq!(declared, printed);
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload hub-restart --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::HubRestart);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload serve-mix").is_err());
        assert!(parse("--workload serve-mix --seed 1 --trace 2").is_err());
        assert!(parse("--workload serve-mix --seed 1 --seconds 0").is_err());
        assert!(parse("--workload serve-mix --seed").is_err());
    }
}
