//! SIMD `f64x4` microkernels behind one-time runtime dispatch.
//!
//! # Dispatch table
//!
//! Every hot slice-level kernel (the matmul family, `axpy`, the elementwise
//! arithmetic) exists in up to three implementations: a scalar one that is
//! always available, a bit-identical SIMD one — AVX2 `__m256d` on `x86_64`,
//! NEON `float64x2_t` on `aarch64` — and an **opt-in FMA-contracted** one
//! (AVX2+FMA / NEON `vfmaq_f64`). A [`KernelTable`] bundles one full set as
//! plain function pointers; the active table is resolved **once per
//! process** (cached in a [`OnceLock`]) from:
//!
//! 1. a programmatic request made before first use ([`request_tier`],
//!    threaded through `bellamy::serve::ServiceBuilder::kernel_tier`) —
//!    takes precedence over the environment;
//! 2. the `BELLAMY_KERNEL` environment variable — `scalar` forces the
//!    fallback, `simd` requests the bit-identical vector path, `fma`
//!    requests the FMA-contracted Fast tier, `auto` (or unset) picks the
//!    best available **Exact** backend;
//! 3. runtime CPU feature detection (`is_x86_feature_detected!("avx2")`,
//!    `("fma")`); NEON (including FMA) is architecturally guaranteed on
//!    `aarch64`.
//!
//! Requests degrade gracefully, in order `fma → simd → scalar`, when the
//! CPU lacks a feature; the degradation is reported once on stderr and
//! permanently via [`resolution()`] (requested vs resolved), so a forced
//! override never fails silently.
//!
//! [`Matrix`](crate::Matrix) routes its kernels through [`active()`], so
//! every layer above — `nn::Linear`, the autograd tape's fused linear op,
//! `core::Predictor`, the `Pretrainer` — inherits the fast path with zero
//! call-site changes. Steady-state dispatch is one atomic load plus an
//! indirect call; nothing allocates.
//!
//! # Tier contract
//!
//! Every backend belongs to one of two [`KernelTier`]s:
//!
//! | Tier | Backends | Selected by | Numerical contract |
//! |------|----------|-------------|--------------------|
//! | [`KernelTier::Exact`] (default) | `scalar`, `avx2`, `neon` | `auto` / `scalar` / `simd` | **Bit-identical** to the scalar reference: no FMA contraction, identical per-element accumulation order, identical NaN/±0 semantics. Backend choice never changes a single bit of any result. |
//! | [`KernelTier::Fast`] (opt-in) | `avx2-fma`, `neon-fma` | `fma` only — never `auto` | Multiply-adds contract to fused operations (one rounding instead of two). Results stay within a **documented ULP envelope** of the Exact tier: for a length-`k` accumulation, `|fast − exact| ≤ 2·γₖ·Σ|aᵢ·bᵢ|` (`γₖ ≈ k·ε`), i.e. a few ULP for the well-conditioned shapes of this workspace. NaN/±inf/±0/subnormal *propagation* is identical (FMA is IEEE-correctly rounded, never flushes). Pinned by `tests/fma_accuracy.rs` and the end-to-end tolerance suite in `bellamy-core`. |
//!
//! Degradation order on unsupported hardware: `fma → simd → scalar` (the
//! Fast tier degrades to the *Exact* tier, never the other way around).
//! Precedence of selection sources: [`request_tier`] > `BELLAMY_KERNEL` >
//! auto-detection.
//!
//! # Determinism and bit-identity (Exact tier)
//!
//! The Exact-tier SIMD kernels are **bit-identical** to their scalar
//! counterparts, not merely deterministic:
//!
//! - no FMA contraction — every `a * b + c` stays a rounded multiply
//!   followed by a rounded add, exactly as the scalar code computes it;
//! - identical per-element accumulation order — vector lanes span the
//!   *output* (columns) or replicate the scalar code's existing fixed
//!   4-way-split reduction, so each output element sees its additions in
//!   the same sequence on every backend;
//! - ragged tails (`cols % 4 != 0`) run the scalar epilogue on the same
//!   values.
//!
//! Exact backend choice therefore never changes results — the reproduction
//! tests pass bit-for-bit under `BELLAMY_KERNEL=scalar` and `=auto` — and
//! every backend (including Fast) is deterministic run-to-run by
//! construction: the FMA kernels use one fixed contraction scheme, so two
//! runs on the same hardware agree bitwise with each other.
//!
//! # Alignment
//!
//! [`Matrix`](crate::Matrix) and [`BufferPool`](crate::BufferPool) back
//! their storage with [`AlignedBuf`](crate::AlignedBuf), so row 0 of every
//! operand starts on a 32-byte boundary. The kernels use unaligned
//! loads/stores (`loadu`/`storeu`) because interior rows of odd-width
//! matrices are not chunk-aligned, but thanks to the aligned base the
//! dominant shapes (the width-8 layer kernels) split no cache lines.

use std::sync::OnceLock;

/// Which kernel family is executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar kernels (always available; the reproduction
    /// baseline).
    Scalar,
    /// `f64x4`/`f64x2` vector kernels (AVX2 on `x86_64`, NEON on
    /// `aarch64`), bit-identical to scalar.
    Simd,
    /// FMA-contracted vector kernels (AVX2+FMA / NEON `vfmaq`): the
    /// opt-in [`KernelTier::Fast`] tier. See the module docs' tier
    /// contract for the accuracy envelope.
    Fma,
}

/// The numerical contract a backend operates under (see the module docs'
/// tier-contract table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelTier {
    /// Bit-identical to the scalar reference. The default.
    Exact,
    /// FMA-contracted, within a documented ULP envelope of Exact.
    /// Explicitly opted into; never chosen by `auto`.
    Fast,
}

impl KernelTier {
    /// `"exact"` or `"fast"`, recorded in bench snapshots.
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Exact => "exact",
            KernelTier::Fast => "fast",
        }
    }
}

impl Backend {
    /// Human-readable backend name, recorded in bench snapshots:
    /// `"scalar"`, `"avx2"`, `"neon"`, `"avx2-fma"`, or `"neon-fma"`.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Simd => {
                #[cfg(target_arch = "x86_64")]
                {
                    "avx2"
                }
                #[cfg(target_arch = "aarch64")]
                {
                    "neon"
                }
                #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
                {
                    "simd"
                }
            }
            Backend::Fma => {
                #[cfg(target_arch = "x86_64")]
                {
                    "avx2-fma"
                }
                #[cfg(target_arch = "aarch64")]
                {
                    "neon-fma"
                }
                #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
                {
                    "fma"
                }
            }
        }
    }

    /// The tier this backend belongs to.
    pub fn tier(self) -> KernelTier {
        match self {
            Backend::Scalar | Backend::Simd => KernelTier::Exact,
            Backend::Fma => KernelTier::Fast,
        }
    }
}

/// `out = a · b` for row-major `a: m×k`, `b: k×n`, `out: m×n`.
type MatmulFn = fn(&[f64], &[f64], &mut [f64], usize, usize, usize);
/// `out = finish(a · b + bias)` with the finish pass applied per row.
type MatmulBiasRowapplyFn =
    fn(&[f64], &[f64], Option<&[f64]>, &mut [f64], usize, usize, usize, &mut dyn FnMut(&mut [f64]));
/// `y += alpha · x`.
type AxpyFn = fn(f64, &[f64], &mut [f64]);
/// `out = lhs ∘ rhs` elementwise.
type BinaryFn = fn(&[f64], &[f64], &mut [f64]);
/// `out = alpha · a` elementwise.
type ScaleFn = fn(&[f64], f64, &mut [f64]);

/// One complete kernel set. Obtain via [`active()`], [`scalar()`], or
/// [`simd()`]; all entry points are bit-identical across tables (see the
/// module docs).
pub struct KernelTable {
    backend: Backend,
    matmul: MatmulFn,
    matmul_tb: MatmulFn,
    ta_matmul: MatmulFn,
    matmul_bias_rowapply: MatmulBiasRowapplyFn,
    axpy: AxpyFn,
    add: BinaryFn,
    sub: BinaryFn,
    mul: BinaryFn,
    scale: ScaleFn,
}

impl KernelTable {
    /// The backend this table executes on.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The numerical tier this table operates under.
    pub fn tier(&self) -> KernelTier {
        self.backend.tier()
    }

    /// `out = a · b` (`a: m×k`, `b: k×n`, `out: m×n`, all row-major).
    #[inline]
    pub fn matmul(&self, a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
        debug_assert!(a.len() == m * k && b.len() == k * n && out.len() == m * n);
        (self.matmul)(a, b, out, m, k, n);
    }

    /// `out = a · bᵀ` (`a: m×k`, `b: n×k`, `out: m×n`).
    #[inline]
    pub fn matmul_tb(&self, a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
        debug_assert!(a.len() == m * k && b.len() == n * k && out.len() == m * n);
        (self.matmul_tb)(a, b, out, m, k, n);
    }

    /// `out = aᵀ · b` (`a: k×m`, `b: k×n`, `out: m×n`).
    #[inline]
    pub fn ta_matmul(&self, a: &[f64], b: &[f64], out: &mut [f64], k: usize, m: usize, n: usize) {
        debug_assert!(a.len() == k * m && b.len() == k * n && out.len() == m * n);
        (self.ta_matmul)(a, b, out, k, m, n);
    }

    /// Fused `out = row_finish(a · b + bias)`: the broadcast bias add and the
    /// per-row finish pass happen while each output row is still hot.
    /// `row_finish` is invoked once per row, in row order.
    #[inline]
    #[allow(clippy::too_many_arguments)] // mirrors the kernel signature
    pub fn matmul_bias_rowapply(
        &self,
        a: &[f64],
        b: &[f64],
        bias: Option<&[f64]>,
        out: &mut [f64],
        m: usize,
        k: usize,
        n: usize,
        row_finish: &mut dyn FnMut(&mut [f64]),
    ) {
        debug_assert!(a.len() == m * k && b.len() == k * n && out.len() == m * n);
        debug_assert!(bias.is_none_or(|bv| bv.len() == n));
        (self.matmul_bias_rowapply)(a, b, bias, out, m, k, n, row_finish);
    }

    /// `y += alpha · x`. With `alpha == 1.0` no multiply is performed
    /// (bit-compatible with a plain add).
    #[inline]
    pub fn axpy(&self, alpha: f64, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), y.len());
        (self.axpy)(alpha, x, y);
    }

    /// `out[i] = a[i] + b[i]`.
    #[inline]
    pub fn add(&self, a: &[f64], b: &[f64], out: &mut [f64]) {
        debug_assert!(a.len() == b.len() && a.len() == out.len());
        (self.add)(a, b, out);
    }

    /// `out[i] = a[i] - b[i]`.
    #[inline]
    pub fn sub(&self, a: &[f64], b: &[f64], out: &mut [f64]) {
        debug_assert!(a.len() == b.len() && a.len() == out.len());
        (self.sub)(a, b, out);
    }

    /// `out[i] = a[i] * b[i]` (Hadamard).
    #[inline]
    pub fn mul(&self, a: &[f64], b: &[f64], out: &mut [f64]) {
        debug_assert!(a.len() == b.len() && a.len() == out.len());
        (self.mul)(a, b, out);
    }

    /// `out[i] = a[i] * alpha`.
    #[inline]
    pub fn scale(&self, a: &[f64], alpha: f64, out: &mut [f64]) {
        debug_assert_eq!(a.len(), out.len());
        (self.scale)(a, alpha, out);
    }
}

static SCALAR_TABLE: KernelTable = KernelTable {
    backend: Backend::Scalar,
    matmul: scalar::matmul,
    matmul_tb: scalar::matmul_tb,
    ta_matmul: scalar::ta_matmul,
    matmul_bias_rowapply: scalar::matmul_bias_rowapply,
    axpy: scalar::axpy,
    add: scalar::add,
    sub: scalar::sub,
    mul: scalar::mul,
    scale: scalar::scale,
};

#[cfg(target_arch = "x86_64")]
static SIMD_TABLE: KernelTable = KernelTable {
    backend: Backend::Simd,
    matmul: avx2::matmul,
    matmul_tb: avx2::matmul_tb,
    ta_matmul: avx2::ta_matmul,
    matmul_bias_rowapply: avx2::matmul_bias_rowapply,
    axpy: avx2::axpy,
    add: avx2::add,
    sub: avx2::sub,
    mul: avx2::mul,
    scale: avx2::scale,
};

#[cfg(target_arch = "aarch64")]
static SIMD_TABLE: KernelTable = KernelTable {
    backend: Backend::Simd,
    matmul: neon::matmul,
    matmul_tb: neon::matmul_tb,
    ta_matmul: neon::ta_matmul,
    matmul_bias_rowapply: neon::matmul_bias_rowapply,
    axpy: neon::axpy,
    add: neon::add,
    sub: neon::sub,
    mul: neon::mul,
    scale: neon::scale,
};

// The Fast tier only re-implements the kernels with multiply-add chains
// (the matmul family and axpy); the pure elementwise kernels have nothing
// to contract, so the FMA table shares the Exact SIMD entries for them —
// those remain bit-identical even under `fma`.
#[cfg(target_arch = "x86_64")]
static FMA_TABLE: KernelTable = KernelTable {
    backend: Backend::Fma,
    matmul: avx2fma::matmul,
    matmul_tb: avx2fma::matmul_tb,
    ta_matmul: avx2fma::ta_matmul,
    matmul_bias_rowapply: avx2fma::matmul_bias_rowapply,
    axpy: avx2fma::axpy,
    add: avx2::add,
    sub: avx2::sub,
    mul: avx2::mul,
    scale: avx2::scale,
};

#[cfg(target_arch = "aarch64")]
static FMA_TABLE: KernelTable = KernelTable {
    backend: Backend::Fma,
    matmul: neonfma::matmul,
    matmul_tb: neonfma::matmul_tb,
    ta_matmul: neonfma::ta_matmul,
    matmul_bias_rowapply: neonfma::matmul_bias_rowapply,
    axpy: neonfma::axpy,
    add: neon::add,
    sub: neon::sub,
    mul: neon::mul,
    scale: neon::scale,
};

/// The always-available scalar kernel set.
pub fn scalar() -> &'static KernelTable {
    &SCALAR_TABLE
}

/// The bit-identical vector kernel set, when this CPU supports it (`None`
/// otherwise). Ignores `BELLAMY_KERNEL`; tests use this to exercise the
/// SIMD path explicitly regardless of the process-wide selection.
pub fn simd() -> Option<&'static KernelTable> {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some(&SIMD_TABLE);
        }
        None
    }
    #[cfg(target_arch = "aarch64")]
    {
        // NEON (incl. f64x2) is part of the aarch64 baseline.
        Some(&SIMD_TABLE)
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        None
    }
}

/// The FMA-contracted [`KernelTier::Fast`] kernel set, when this CPU
/// supports it (`None` otherwise). Ignores `BELLAMY_KERNEL`; the accuracy
/// harness uses this to compare Fast against Exact regardless of the
/// process-wide selection.
pub fn fma() -> Option<&'static KernelTable> {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return Some(&FMA_TABLE);
        }
        None
    }
    #[cfg(target_arch = "aarch64")]
    {
        // vfmaq_f64 is part of the aarch64 NEON baseline.
        Some(&FMA_TABLE)
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        None
    }
}

/// What a caller (environment or program) asked the dispatch layer for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierRequest {
    /// Best available **Exact** backend (the default; never picks FMA).
    Auto,
    /// Force the scalar reference kernels.
    Scalar,
    /// The bit-identical vector kernels (degrades to scalar).
    Simd,
    /// The FMA-contracted Fast tier (degrades to simd, then scalar).
    Fma,
}

impl TierRequest {
    /// The request's spelling, as accepted by `BELLAMY_KERNEL`.
    pub fn name(self) -> &'static str {
        match self {
            TierRequest::Auto => "auto",
            TierRequest::Scalar => "scalar",
            TierRequest::Simd => "simd",
            TierRequest::Fma => "fma",
        }
    }
}

/// Where the winning [`TierRequest`] came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestSource {
    /// Nothing was requested; auto-detection picked the backend.
    Default,
    /// The `BELLAMY_KERNEL` environment variable.
    Env,
    /// A [`request_tier`] call (e.g. through `ServiceBuilder`).
    Program,
}

/// The outcome of the one-time kernel dispatch: what was asked for, where
/// the request came from, and what actually resolved. `degraded` is the
/// requested-vs-resolved signal the ROADMAP's silent-fallback fix calls
/// for: `BELLAMY_KERNEL=fma` on a non-FMA CPU no longer vanishes into a
/// quieter backend unnoticed — it is reported once on stderr and
/// permanently here (surfaced through the `bellamy_kernel_info` and
/// `bellamy_kernel_degraded` series of `Service::telemetry()` and the bench
/// snapshots).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolution {
    /// The winning request.
    pub requested: TierRequest,
    /// Where the winning request came from.
    pub source: RequestSource,
    /// The backend that actually resolved.
    pub backend: Backend,
    /// True when the resolved backend is weaker than the request (the CPU
    /// lacked a requested feature and the dispatch degraded
    /// `fma → simd → scalar`).
    pub degraded: bool,
}

impl Resolution {
    /// The requested tier's name (`"auto"`, `"scalar"`, `"simd"`, `"fma"`).
    pub fn requested_name(&self) -> &'static str {
        self.requested.name()
    }

    /// The resolved backend's name (see [`Backend::name`]).
    pub fn resolved_name(&self) -> &'static str {
        self.backend.name()
    }
}

struct Resolved {
    table: &'static KernelTable,
    resolution: Resolution,
}

static ACTIVE: OnceLock<Resolved> = OnceLock::new();
static PROGRAM_REQUEST: OnceLock<TierRequest> = OnceLock::new();

/// Requests a kernel tier programmatically, without touching the
/// environment. Must run before the first kernel dispatch of the process
/// (the table resolves once and stays resolved): on success the request
/// wins over `BELLAMY_KERNEL` and the returned [`Resolution`] reflects it
/// (possibly degraded if the CPU lacks the feature). If dispatch had
/// already resolved — a kernel already ran, or an earlier caller requested
/// a different tier — the request is *not* applied and the standing
/// resolution comes back as the `Err` value, so callers can detect and
/// report the mismatch instead of silently serving on an unexpected tier.
pub fn request_tier(request: TierRequest) -> Result<Resolution, Resolution> {
    if ACTIVE.get().is_none() {
        let _ = PROGRAM_REQUEST.set(request);
    }
    let res = resolution();
    if res.source == RequestSource::Program && res.requested == request {
        Ok(res)
    } else {
        Err(res)
    }
}

/// Resolves the winning request (program > env > default) and the backend
/// it lands on; runs exactly once, so the degradation warnings print once.
fn resolve() -> Resolved {
    let (requested, source) = match PROGRAM_REQUEST.get() {
        Some(&req) => (req, RequestSource::Program),
        None => match std::env::var("BELLAMY_KERNEL").as_deref() {
            Ok("scalar") => (TierRequest::Scalar, RequestSource::Env),
            Ok("simd") => (TierRequest::Simd, RequestSource::Env),
            Ok("fma") => (TierRequest::Fma, RequestSource::Env),
            Ok("auto") => (TierRequest::Auto, RequestSource::Env),
            Err(_) => (TierRequest::Auto, RequestSource::Default),
            Ok(other) => {
                eprintln!(
                    "unknown BELLAMY_KERNEL value {other:?} \
                     (expected auto|scalar|simd|fma); using auto"
                );
                (TierRequest::Auto, RequestSource::Env)
            }
        },
    };
    let table = match requested {
        TierRequest::Scalar => scalar(),
        TierRequest::Simd => simd().unwrap_or_else(|| {
            let fallback = scalar();
            note_degradation(requested, source, fallback.backend);
            fallback
        }),
        TierRequest::Fma => fma().unwrap_or_else(|| {
            let fallback = simd().unwrap_or(scalar());
            note_degradation(requested, source, fallback.backend);
            fallback
        }),
        // `auto` deliberately never picks the Fast tier: the default
        // contract stays bit-identical to scalar.
        TierRequest::Auto => simd().unwrap_or(scalar()),
    };
    let degraded = match requested {
        TierRequest::Simd => table.backend != Backend::Simd,
        TierRequest::Fma => table.backend != Backend::Fma,
        TierRequest::Auto | TierRequest::Scalar => false,
    };
    Resolved {
        table,
        resolution: Resolution {
            requested,
            source,
            backend: table.backend,
            degraded,
        },
    }
}

/// Reports a kernel-tier degradation to both sinks: the process-global
/// structured event log (machine-readable, kind `kernel.degraded`) and a
/// one-line stderr warning (human-readable). `resolve()` runs once per
/// process, so each sink sees at most one degradation report.
fn note_degradation(requested: TierRequest, source: RequestSource, fallback: Backend) {
    let detail = format!(
        "kernel tier `{}` requested ({}) but this CPU does not support it; \
         degraded to `{}`",
        requested.name(),
        source_label(source),
        fallback.name()
    );
    bellamy_telemetry::events().record(
        bellamy_telemetry::event_kind::KERNEL_DEGRADED,
        detail.as_str(),
    );
    eprintln!("bellamy: {detail}");
}

fn source_label(source: RequestSource) -> &'static str {
    match source {
        RequestSource::Default => "by default",
        RequestSource::Env => "via BELLAMY_KERNEL",
        RequestSource::Program => "programmatically",
    }
}

/// The process-wide kernel table, resolved once from [`request_tier`],
/// `BELLAMY_KERNEL`, and CPU feature detection (see the module docs).
/// Steady-state cost: one atomic load.
#[inline]
pub fn active() -> &'static KernelTable {
    ACTIVE.get_or_init(resolve).table
}

/// The one-time dispatch outcome: requested vs resolved (see
/// [`Resolution`]). Forces resolution on first call, like [`active()`].
pub fn resolution() -> Resolution {
    ACTIVE.get_or_init(resolve).resolution
}

/// The active backend (see [`active()`]).
#[inline]
pub fn active_backend() -> Backend {
    active().backend
}

/// The active tier (see [`active()`]): [`KernelTier::Fast`] only under an
/// explicit `fma` opt-in on supporting hardware.
#[inline]
pub fn active_tier() -> KernelTier {
    active_backend().tier()
}

/// The active backend's name: `"scalar"`, `"avx2"`, `"neon"`, `"avx2-fma"`,
/// or `"neon-fma"`. Recorded in every `BENCH_*.json` so the perf trajectory
/// distinguishes scalar-container runs from vectorized hardware.
pub fn backend_name() -> &'static str {
    active_backend().name()
}

/// Block edge for the cache-blocked matmul kernels. Matrices in this
/// workspace are small; 64 keeps the working set of a block pair within L1.
const MATMUL_BLOCK: usize = 64;

/// Stack-buffer budget (in `f64`s) for materializing `bᵀ` in the
/// `a · bᵀ` kernels; covers every weight shape in this workspace.
const STACK_BT: usize = 4096;

/// The portable scalar kernels (the pre-SIMD `Matrix` loop bodies, moved
/// here verbatim so both backends live side by side).
mod scalar {
    use super::{MATMUL_BLOCK, STACK_BT};

    pub(super) fn matmul(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
        // Specialized register-accumulator kernel for the narrow outputs
        // that dominate this workspace (hidden width 8): the whole output
        // row lives in registers across the k loop.
        if n == 8 && k > 0 {
            for i in 0..m {
                let arow = &a[i * k..(i + 1) * k];
                let mut acc = [0.0f64; 8];
                for (kk, &av) in arow.iter().enumerate() {
                    let brow = &b[kk * 8..kk * 8 + 8];
                    for j in 0..8 {
                        acc[j] += av * brow[j];
                    }
                }
                out[i * 8..i * 8 + 8].copy_from_slice(&acc);
            }
            return;
        }
        out.fill(0.0);
        for ib in (0..m).step_by(MATMUL_BLOCK) {
            let imax = (ib + MATMUL_BLOCK).min(m);
            for kb in (0..k).step_by(MATMUL_BLOCK) {
                let kmax = (kb + MATMUL_BLOCK).min(k);
                for i in ib..imax {
                    let arow = &a[i * k..(i + 1) * k];
                    let orow = &mut out[i * n..(i + 1) * n];
                    for kk in kb..kmax {
                        let av = arow[kk];
                        if av == 0.0 {
                            continue;
                        }
                        let brow = &b[kk * n..(kk + 1) * n];
                        for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                            *o += av * bv;
                        }
                    }
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the dispatch signature
    pub(super) fn matmul_bias_rowapply(
        a: &[f64],
        b: &[f64],
        bias: Option<&[f64]>,
        out: &mut [f64],
        m: usize,
        k: usize,
        n: usize,
        row_finish: &mut dyn FnMut(&mut [f64]),
    ) {
        if n == 8 && k > 0 {
            for i in 0..m {
                let arow = &a[i * k..(i + 1) * k];
                let mut acc = [0.0f64; 8];
                for (kk, &av) in arow.iter().enumerate() {
                    let brow = &b[kk * 8..kk * 8 + 8];
                    for j in 0..8 {
                        acc[j] += av * brow[j];
                    }
                }
                if let Some(bv) = bias {
                    for (av, &biasv) in acc.iter_mut().zip(bv.iter()) {
                        *av += biasv;
                    }
                }
                row_finish(&mut acc);
                out[i * 8..i * 8 + 8].copy_from_slice(&acc);
            }
            return;
        }
        matmul(a, b, out, m, k, n);
        for i in 0..m {
            let orow = &mut out[i * n..(i + 1) * n];
            if let Some(bv) = bias {
                for (o, &biasv) in orow.iter_mut().zip(bv.iter()) {
                    *o += biasv;
                }
            }
            row_finish(orow);
        }
    }

    pub(super) fn matmul_tb(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
        // This is the hottest backward kernel (dX = dY·Wᵀ). For the weight
        // shapes of this workspace, materialize Wᵀ in a stack buffer and run
        // the cache-friendly i-k-j row-axpy form: long independent adds
        // vectorize, unlike a latency-bound dot product per element.
        if k * n <= STACK_BT && k > 0 {
            let mut bt = [0.0f64; STACK_BT];
            for (j, brow) in b.chunks_exact(k).enumerate() {
                for (kk, &bv) in brow.iter().enumerate() {
                    bt[kk * n + j] = bv;
                }
            }
            if n == 8 {
                // Register-accumulator variant (as in `matmul`).
                for i in 0..m {
                    let arow = &a[i * k..(i + 1) * k];
                    let mut acc = [0.0f64; 8];
                    for (kk, &av) in arow.iter().enumerate() {
                        let btrow = &bt[kk * 8..kk * 8 + 8];
                        for j in 0..8 {
                            acc[j] += av * btrow[j];
                        }
                    }
                    out[i * 8..i * 8 + 8].copy_from_slice(&acc);
                }
                return;
            }
            for i in 0..m {
                let arow = &a[i * k..(i + 1) * k];
                let orow = &mut out[i * n..(i + 1) * n];
                orow.fill(0.0);
                for (kk, &av) in arow.iter().enumerate() {
                    let btrow = &bt[kk * n..(kk + 1) * n];
                    for (o, &bv) in orow.iter_mut().zip(btrow.iter()) {
                        *o += av * bv;
                    }
                }
            }
            return;
        }
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for (j, o) in orow.iter_mut().enumerate() {
                let brow = &b[j * k..(j + 1) * k];
                // Four independent accumulators break the FP add dependency
                // chain.
                let mut acc = [0.0f64; 4];
                let mut a4 = arow.chunks_exact(4);
                let mut b4 = brow.chunks_exact(4);
                for (ac, bc) in (&mut a4).zip(&mut b4) {
                    acc[0] += ac[0] * bc[0];
                    acc[1] += ac[1] * bc[1];
                    acc[2] += ac[2] * bc[2];
                    acc[3] += ac[3] * bc[3];
                }
                let mut tail = 0.0;
                for (&av, &bv) in a4.remainder().iter().zip(b4.remainder()) {
                    tail += av * bv;
                }
                *o = (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail;
            }
        }
    }

    pub(super) fn ta_matmul(a: &[f64], b: &[f64], out: &mut [f64], k: usize, m: usize, n: usize) {
        out.fill(0.0);
        // Tile the shared (row) dimension by 4: each pass over `out` folds
        // four rank-1 updates, quartering memory traffic on the hot
        // dW = Xᵀ·dY backward kernel.
        let tiles = k / 4 * 4;
        for r in (0..tiles).step_by(4) {
            let at = &a[r * m..(r + 4) * m];
            let bt = &b[r * n..(r + 4) * n];
            for i in 0..m {
                let (x0, x1, x2, x3) = (at[i], at[m + i], at[2 * m + i], at[3 * m + i]);
                let orow = &mut out[i * n..(i + 1) * n];
                for (j, o) in orow.iter_mut().enumerate() {
                    *o += x0 * bt[j] + x1 * bt[n + j] + x2 * bt[2 * n + j] + x3 * bt[3 * n + j];
                }
            }
        }
        for r in tiles..k {
            let arow = &a[r * m..(r + 1) * m];
            let brow = &b[r * n..(r + 1) * n];
            for (i, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let orow = &mut out[i * n..(i + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
            }
        }
    }

    pub(super) fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        if alpha == 1.0 {
            // Bit-compatibility with a plain add: no multiply by one.
            for (yv, &xv) in y.iter_mut().zip(x.iter()) {
                *yv += xv;
            }
        } else {
            for (yv, &xv) in y.iter_mut().zip(x.iter()) {
                *yv += alpha * xv;
            }
        }
    }

    pub(super) fn add(a: &[f64], b: &[f64], out: &mut [f64]) {
        for ((o, &av), &bv) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
            *o = av + bv;
        }
    }

    pub(super) fn sub(a: &[f64], b: &[f64], out: &mut [f64]) {
        for ((o, &av), &bv) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
            *o = av - bv;
        }
    }

    pub(super) fn mul(a: &[f64], b: &[f64], out: &mut [f64]) {
        for ((o, &av), &bv) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
            *o = av * bv;
        }
    }

    pub(super) fn scale(a: &[f64], alpha: f64, out: &mut [f64]) {
        for (o, &av) in out.iter_mut().zip(a.iter()) {
            *o = av * alpha;
        }
    }
}

/// AVX2 `f64x4` kernels. Every function here is a safe wrapper around an
/// `unsafe` `#[target_feature(enable = "avx2")]` body; the wrappers are only
/// ever reachable through [`SIMD_TABLE`], which [`simd()`] hands out strictly
/// after `is_x86_feature_detected!("avx2")` succeeded, so the calls are
/// sound. See the module docs for the bit-identity argument (no FMA, scalar
/// accumulation order preserved).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{MATMUL_BLOCK, STACK_BT};
    use std::arch::x86_64::*;

    pub(super) fn matmul(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
        // SAFETY: AVX2 availability checked before this table is handed out.
        unsafe { matmul_impl(a, b, out, m, k, n) }
    }

    pub(super) fn matmul_tb(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
        // SAFETY: as in `matmul`.
        unsafe { matmul_tb_impl(a, b, out, m, k, n) }
    }

    pub(super) fn ta_matmul(a: &[f64], b: &[f64], out: &mut [f64], k: usize, m: usize, n: usize) {
        // SAFETY: as in `matmul`.
        unsafe { ta_matmul_impl(a, b, out, k, m, n) }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the dispatch signature
    pub(super) fn matmul_bias_rowapply(
        a: &[f64],
        b: &[f64],
        bias: Option<&[f64]>,
        out: &mut [f64],
        m: usize,
        k: usize,
        n: usize,
        row_finish: &mut dyn FnMut(&mut [f64]),
    ) {
        // SAFETY: as in `matmul`.
        unsafe { matmul_bias_rowapply_impl(a, b, bias, out, m, k, n, row_finish) }
    }

    pub(super) fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        // SAFETY: as in `matmul`.
        unsafe { axpy_impl(alpha, x, y) }
    }

    pub(super) fn add(a: &[f64], b: &[f64], out: &mut [f64]) {
        // SAFETY: as in `matmul`.
        unsafe { add_impl(a, b, out) }
    }

    pub(super) fn sub(a: &[f64], b: &[f64], out: &mut [f64]) {
        // SAFETY: as in `matmul`.
        unsafe { sub_impl(a, b, out) }
    }

    pub(super) fn mul(a: &[f64], b: &[f64], out: &mut [f64]) {
        // SAFETY: as in `matmul`.
        unsafe { mul_impl(a, b, out) }
    }

    pub(super) fn scale(a: &[f64], alpha: f64, out: &mut [f64]) {
        // SAFETY: as in `matmul`.
        unsafe { scale_impl(a, alpha, out) }
    }

    /// The width-8 register kernel shared by `matmul` and the stack-`bᵀ`
    /// path of `matmul_tb`: four output rows per pass reuse each loaded
    /// 8-wide `b` row, quartering load traffic (8 accumulators + 2 `b`
    /// halves + 1 broadcast stay within the 16 ymm registers).
    /// Accumulation per output element stays in ascending-`kk` order, so
    /// this is bit-identical to the scalar register kernel. `finish`
    /// post-processes each completed row (bias + activation) on a stack
    /// buffer before it is stored, in row order.
    #[target_feature(enable = "avx2")]
    unsafe fn matmul_n8(
        a: &[f64],
        b: &[f64],
        out: &mut [f64],
        m: usize,
        k: usize,
        mut finish: impl FnMut(&mut [f64; 8]),
    ) {
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut i = 0;
        while i + 4 <= m {
            let ar0 = ap.add(i * k);
            let ar1 = ap.add((i + 1) * k);
            let ar2 = ap.add((i + 2) * k);
            let ar3 = ap.add((i + 3) * k);
            let mut acc00 = _mm256_setzero_pd();
            let mut acc01 = _mm256_setzero_pd();
            let mut acc10 = _mm256_setzero_pd();
            let mut acc11 = _mm256_setzero_pd();
            let mut acc20 = _mm256_setzero_pd();
            let mut acc21 = _mm256_setzero_pd();
            let mut acc30 = _mm256_setzero_pd();
            let mut acc31 = _mm256_setzero_pd();
            for kk in 0..k {
                let b0 = _mm256_loadu_pd(bp.add(kk * 8));
                let b1 = _mm256_loadu_pd(bp.add(kk * 8 + 4));
                let a0 = _mm256_set1_pd(*ar0.add(kk));
                acc00 = _mm256_add_pd(acc00, _mm256_mul_pd(a0, b0));
                acc01 = _mm256_add_pd(acc01, _mm256_mul_pd(a0, b1));
                let a1 = _mm256_set1_pd(*ar1.add(kk));
                acc10 = _mm256_add_pd(acc10, _mm256_mul_pd(a1, b0));
                acc11 = _mm256_add_pd(acc11, _mm256_mul_pd(a1, b1));
                let a2 = _mm256_set1_pd(*ar2.add(kk));
                acc20 = _mm256_add_pd(acc20, _mm256_mul_pd(a2, b0));
                acc21 = _mm256_add_pd(acc21, _mm256_mul_pd(a2, b1));
                let a3 = _mm256_set1_pd(*ar3.add(kk));
                acc30 = _mm256_add_pd(acc30, _mm256_mul_pd(a3, b0));
                acc31 = _mm256_add_pd(acc31, _mm256_mul_pd(a3, b1));
            }
            let mut row = [0.0f64; 8];
            for (r, (lo, hi)) in [
                (acc00, acc01),
                (acc10, acc11),
                (acc20, acc21),
                (acc30, acc31),
            ]
            .into_iter()
            .enumerate()
            {
                _mm256_storeu_pd(row.as_mut_ptr(), lo);
                _mm256_storeu_pd(row.as_mut_ptr().add(4), hi);
                finish(&mut row);
                out[(i + r) * 8..(i + r) * 8 + 8].copy_from_slice(&row);
            }
            i += 4;
        }
        while i + 2 <= m {
            let ar0 = ap.add(i * k);
            let ar1 = ap.add((i + 1) * k);
            let mut acc00 = _mm256_setzero_pd();
            let mut acc01 = _mm256_setzero_pd();
            let mut acc10 = _mm256_setzero_pd();
            let mut acc11 = _mm256_setzero_pd();
            for kk in 0..k {
                let b0 = _mm256_loadu_pd(bp.add(kk * 8));
                let b1 = _mm256_loadu_pd(bp.add(kk * 8 + 4));
                let a0 = _mm256_set1_pd(*ar0.add(kk));
                let a1 = _mm256_set1_pd(*ar1.add(kk));
                acc00 = _mm256_add_pd(acc00, _mm256_mul_pd(a0, b0));
                acc01 = _mm256_add_pd(acc01, _mm256_mul_pd(a0, b1));
                acc10 = _mm256_add_pd(acc10, _mm256_mul_pd(a1, b0));
                acc11 = _mm256_add_pd(acc11, _mm256_mul_pd(a1, b1));
            }
            let mut row = [0.0f64; 8];
            _mm256_storeu_pd(row.as_mut_ptr(), acc00);
            _mm256_storeu_pd(row.as_mut_ptr().add(4), acc01);
            finish(&mut row);
            out[i * 8..i * 8 + 8].copy_from_slice(&row);
            _mm256_storeu_pd(row.as_mut_ptr(), acc10);
            _mm256_storeu_pd(row.as_mut_ptr().add(4), acc11);
            finish(&mut row);
            out[(i + 1) * 8..(i + 1) * 8 + 8].copy_from_slice(&row);
            i += 2;
        }
        if i < m {
            let ar = ap.add(i * k);
            let mut acc0 = _mm256_setzero_pd();
            let mut acc1 = _mm256_setzero_pd();
            for kk in 0..k {
                let av = _mm256_set1_pd(*ar.add(kk));
                acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(av, _mm256_loadu_pd(bp.add(kk * 8))));
                acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(av, _mm256_loadu_pd(bp.add(kk * 8 + 4))));
            }
            let mut row = [0.0f64; 8];
            _mm256_storeu_pd(row.as_mut_ptr(), acc0);
            _mm256_storeu_pd(row.as_mut_ptr().add(4), acc1);
            finish(&mut row);
            out[i * 8..i * 8 + 8].copy_from_slice(&row);
        }
    }

    /// `orow[j..] += av * brow[j..]` with a scalar ragged tail.
    #[target_feature(enable = "avx2")]
    unsafe fn row_axpy(av: f64, brow: *const f64, orow: *mut f64, n: usize) {
        let avv = _mm256_set1_pd(av);
        let mut j = 0;
        while j + 4 <= n {
            let o = _mm256_loadu_pd(orow.add(j));
            let bv = _mm256_loadu_pd(brow.add(j));
            _mm256_storeu_pd(orow.add(j), _mm256_add_pd(o, _mm256_mul_pd(avv, bv)));
            j += 4;
        }
        while j < n {
            *orow.add(j) += av * *brow.add(j);
            j += 1;
        }
    }

    /// Width-4 register kernel: one `__m256d` accumulator holds the whole
    /// output row, so the inner loop never touches `out` memory. The
    /// encoder matmuls (`batch x F` times `F x 4` property codes) dominate
    /// the predict forward and land exactly here. Replicates the scalar
    /// general path bit for bit: ascending-`kk` accumulation from a zeroed
    /// row, including the `av == 0.0` skip.
    #[target_feature(enable = "avx2")]
    unsafe fn matmul_n4(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize) {
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let op = out.as_mut_ptr();
        for i in 0..m {
            let ar = ap.add(i * k);
            let mut acc = _mm256_setzero_pd();
            for kk in 0..k {
                let av = *ar.add(kk);
                if av == 0.0 {
                    continue;
                }
                let bv = _mm256_loadu_pd(bp.add(kk * 4));
                acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(av), bv));
            }
            _mm256_storeu_pd(op.add(i * 4), acc);
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn matmul_impl(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
        if n == 8 && k > 0 {
            matmul_n8(a, b, out, m, k, |_| {});
            return;
        }
        if n == 4 && k > 0 {
            matmul_n4(a, b, out, m, k);
            return;
        }
        out.fill(0.0);
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let op = out.as_mut_ptr();
        for ib in (0..m).step_by(MATMUL_BLOCK) {
            let imax = (ib + MATMUL_BLOCK).min(m);
            for kb in (0..k).step_by(MATMUL_BLOCK) {
                let kmax = (kb + MATMUL_BLOCK).min(k);
                for i in ib..imax {
                    for kk in kb..kmax {
                        let av = *ap.add(i * k + kk);
                        // Same sparse skip as the scalar kernel (also needed
                        // for bit-identity: skipping ±0·b ≠ adding it when
                        // the accumulator holds -0.0).
                        if av == 0.0 {
                            continue;
                        }
                        row_axpy(av, bp.add(kk * n), op.add(i * n), n);
                    }
                }
            }
        }
    }

    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)] // mirrors the dispatch signature
    unsafe fn matmul_bias_rowapply_impl(
        a: &[f64],
        b: &[f64],
        bias: Option<&[f64]>,
        out: &mut [f64],
        m: usize,
        k: usize,
        n: usize,
        row_finish: &mut dyn FnMut(&mut [f64]),
    ) {
        if n == 8 && k > 0 {
            matmul_n8(a, b, out, m, k, |row| {
                if let Some(bv) = bias {
                    for (rv, &biasv) in row.iter_mut().zip(bv.iter()) {
                        *rv += biasv;
                    }
                }
                row_finish(row);
            });
            return;
        }
        matmul_impl(a, b, out, m, k, n);
        for i in 0..m {
            let orow = &mut out[i * n..(i + 1) * n];
            if let Some(bv) = bias {
                add_assign_impl(bv, orow);
            }
            row_finish(orow);
        }
    }

    /// `y[i] += x[i]` (the bias broadcast body). Shared with the FMA table
    /// (a plain add has nothing to contract).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn add_assign_impl(x: &[f64], y: &mut [f64]) {
        let n = y.len();
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        let mut j = 0;
        while j + 4 <= n {
            let s = _mm256_add_pd(_mm256_loadu_pd(yp.add(j)), _mm256_loadu_pd(xp.add(j)));
            _mm256_storeu_pd(yp.add(j), s);
            j += 4;
        }
        while j < n {
            *yp.add(j) += *xp.add(j);
            j += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn matmul_tb_impl(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
        if k * n <= STACK_BT && k > 0 {
            let mut bt = [0.0f64; STACK_BT];
            for (j, brow) in b.chunks_exact(k).enumerate() {
                for (kk, &bv) in brow.iter().enumerate() {
                    bt[kk * n + j] = bv;
                }
            }
            if n == 8 {
                matmul_n8(a, &bt[..k * 8], out, m, k, |_| {});
                return;
            }
            let ap = a.as_ptr();
            let btp = bt.as_ptr();
            let op = out.as_mut_ptr();
            for i in 0..m {
                let orow = &mut out[i * n..(i + 1) * n];
                orow.fill(0.0);
                for kk in 0..k {
                    let av = *ap.add(i * k + kk);
                    row_axpy(av, btp.add(kk * n), op.add(i * n), n);
                }
            }
            return;
        }
        // Dot-product form: one f64x4 accumulator whose lanes replicate the
        // scalar kernel's four-way split, reduced in the same fixed order
        // (lane0+lane1) + (lane2+lane3) + tail — bit-identical.
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for (j, o) in orow.iter_mut().enumerate() {
                let brow = &b[j * k..(j + 1) * k];
                let mut acc = _mm256_setzero_pd();
                let quads = k / 4 * 4;
                let mut kk = 0;
                while kk < quads {
                    let av = _mm256_loadu_pd(arow.as_ptr().add(kk));
                    let bv = _mm256_loadu_pd(brow.as_ptr().add(kk));
                    acc = _mm256_add_pd(acc, _mm256_mul_pd(av, bv));
                    kk += 4;
                }
                let mut tail = 0.0;
                for (&av, &bv) in arow[quads..].iter().zip(brow[quads..].iter()) {
                    tail += av * bv;
                }
                let lo = _mm256_castpd256_pd128(acc);
                let hi = _mm256_extractf128_pd(acc, 1);
                let l0 = _mm_cvtsd_f64(lo);
                let l1 = _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo));
                let l2 = _mm_cvtsd_f64(hi);
                let l3 = _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi));
                *o = (l0 + l1) + (l2 + l3) + tail;
            }
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn ta_matmul_impl(a: &[f64], b: &[f64], out: &mut [f64], k: usize, m: usize, n: usize) {
        out.fill(0.0);
        let bp = b.as_ptr();
        let op = out.as_mut_ptr();
        let tiles = k / 4 * 4;
        for r in (0..tiles).step_by(4) {
            let at = &a[r * m..(r + 4) * m];
            for i in 0..m {
                let x0 = _mm256_set1_pd(at[i]);
                let x1 = _mm256_set1_pd(at[m + i]);
                let x2 = _mm256_set1_pd(at[2 * m + i]);
                let x3 = _mm256_set1_pd(at[3 * m + i]);
                let orow = op.add(i * n);
                let b0 = bp.add(r * n);
                let mut j = 0;
                while j + 4 <= n {
                    // Same association as the scalar tile:
                    // ((x0·b0 + x1·b1) + x2·b2) + x3·b3, then += into out.
                    let m0 = _mm256_mul_pd(x0, _mm256_loadu_pd(b0.add(j)));
                    let m1 = _mm256_mul_pd(x1, _mm256_loadu_pd(b0.add(n + j)));
                    let m2 = _mm256_mul_pd(x2, _mm256_loadu_pd(b0.add(2 * n + j)));
                    let m3 = _mm256_mul_pd(x3, _mm256_loadu_pd(b0.add(3 * n + j)));
                    let s = _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(m0, m1), m2), m3);
                    let o = _mm256_loadu_pd(orow.add(j));
                    _mm256_storeu_pd(orow.add(j), _mm256_add_pd(o, s));
                    j += 4;
                }
                while j < n {
                    let s = at[i] * *b0.add(j)
                        + at[m + i] * *b0.add(n + j)
                        + at[2 * m + i] * *b0.add(2 * n + j)
                        + at[3 * m + i] * *b0.add(3 * n + j);
                    *orow.add(j) += s;
                    j += 1;
                }
            }
        }
        for r in tiles..k {
            let arow = &a[r * m..(r + 1) * m];
            for (i, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                row_axpy(av, bp.add(r * n), op.add(i * n), n);
            }
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn axpy_impl(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = y.len();
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        if alpha == 1.0 {
            add_assign_impl(x, y);
            return;
        }
        let av = _mm256_set1_pd(alpha);
        let mut j = 0;
        while j + 4 <= n {
            let s = _mm256_add_pd(
                _mm256_loadu_pd(yp.add(j)),
                _mm256_mul_pd(av, _mm256_loadu_pd(xp.add(j))),
            );
            _mm256_storeu_pd(yp.add(j), s);
            j += 4;
        }
        while j < n {
            *yp.add(j) += alpha * *xp.add(j);
            j += 1;
        }
    }

    macro_rules! binary_impl {
        ($name:ident, $vop:ident, $sop:tt) => {
            #[target_feature(enable = "avx2")]
            unsafe fn $name(a: &[f64], b: &[f64], out: &mut [f64]) {
                let n = out.len();
                let ap = a.as_ptr();
                let bp = b.as_ptr();
                let op = out.as_mut_ptr();
                let mut j = 0;
                while j + 4 <= n {
                    let v = $vop(_mm256_loadu_pd(ap.add(j)), _mm256_loadu_pd(bp.add(j)));
                    _mm256_storeu_pd(op.add(j), v);
                    j += 4;
                }
                while j < n {
                    *op.add(j) = *ap.add(j) $sop *bp.add(j);
                    j += 1;
                }
            }
        };
    }

    binary_impl!(add_impl, _mm256_add_pd, +);
    binary_impl!(sub_impl, _mm256_sub_pd, -);
    binary_impl!(mul_impl, _mm256_mul_pd, *);

    #[target_feature(enable = "avx2")]
    unsafe fn scale_impl(a: &[f64], alpha: f64, out: &mut [f64]) {
        let n = out.len();
        let ap = a.as_ptr();
        let op = out.as_mut_ptr();
        let av = _mm256_set1_pd(alpha);
        let mut j = 0;
        while j + 4 <= n {
            _mm256_storeu_pd(op.add(j), _mm256_mul_pd(_mm256_loadu_pd(ap.add(j)), av));
            j += 4;
        }
        while j < n {
            *op.add(j) = *ap.add(j) * alpha;
            j += 1;
        }
    }
}

/// AVX2+FMA kernels — the [`KernelTier::Fast`] tier. Structure mirrors the
/// `avx2` module, with every multiply-add contracted to `_mm256_fmadd_pd`
/// (one rounding instead of two). **Not** bit-identical to scalar; the
/// accuracy contract is the documented ULP envelope in the module docs,
/// pinned by `tests/fma_accuracy.rs`. Safety story is identical to `avx2`:
/// every entry is a safe wrapper around an `unsafe`
/// `#[target_feature(enable = "avx2,fma")]` body, reachable only through
/// [`FMA_TABLE`], which [`fma()`] hands out strictly after both features
/// were detected.
#[cfg(target_arch = "x86_64")]
mod avx2fma {
    use super::{avx2, MATMUL_BLOCK, STACK_BT};
    use std::arch::x86_64::*;

    pub(super) fn matmul(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
        // SAFETY: AVX2+FMA availability checked before this table is
        // handed out.
        unsafe { matmul_impl(a, b, out, m, k, n) }
    }

    pub(super) fn matmul_tb(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
        // SAFETY: as in `matmul`.
        unsafe { matmul_tb_impl(a, b, out, m, k, n) }
    }

    pub(super) fn ta_matmul(a: &[f64], b: &[f64], out: &mut [f64], k: usize, m: usize, n: usize) {
        // SAFETY: as in `matmul`.
        unsafe { ta_matmul_impl(a, b, out, k, m, n) }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the dispatch signature
    pub(super) fn matmul_bias_rowapply(
        a: &[f64],
        b: &[f64],
        bias: Option<&[f64]>,
        out: &mut [f64],
        m: usize,
        k: usize,
        n: usize,
        row_finish: &mut dyn FnMut(&mut [f64]),
    ) {
        // SAFETY: as in `matmul`.
        unsafe { matmul_bias_rowapply_impl(a, b, bias, out, m, k, n, row_finish) }
    }

    pub(super) fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        // SAFETY: as in `matmul`.
        unsafe { axpy_impl(alpha, x, y) }
    }

    /// The width-8 register kernel, FMA-contracted: same 4-row blocking and
    /// ascending-`kk` accumulation order as the Exact variant, but each
    /// lane update is one fused `acc = a·b + acc` instead of a rounded
    /// multiply followed by a rounded add. Halves the FP-op count of the
    /// inner loop on the kernel that dominates predict.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn matmul_n8(
        a: &[f64],
        b: &[f64],
        out: &mut [f64],
        m: usize,
        k: usize,
        mut finish: impl FnMut(&mut [f64; 8]),
    ) {
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut i = 0;
        while i + 4 <= m {
            let ar0 = ap.add(i * k);
            let ar1 = ap.add((i + 1) * k);
            let ar2 = ap.add((i + 2) * k);
            let ar3 = ap.add((i + 3) * k);
            let mut acc00 = _mm256_setzero_pd();
            let mut acc01 = _mm256_setzero_pd();
            let mut acc10 = _mm256_setzero_pd();
            let mut acc11 = _mm256_setzero_pd();
            let mut acc20 = _mm256_setzero_pd();
            let mut acc21 = _mm256_setzero_pd();
            let mut acc30 = _mm256_setzero_pd();
            let mut acc31 = _mm256_setzero_pd();
            for kk in 0..k {
                let b0 = _mm256_loadu_pd(bp.add(kk * 8));
                let b1 = _mm256_loadu_pd(bp.add(kk * 8 + 4));
                let a0 = _mm256_set1_pd(*ar0.add(kk));
                acc00 = _mm256_fmadd_pd(a0, b0, acc00);
                acc01 = _mm256_fmadd_pd(a0, b1, acc01);
                let a1 = _mm256_set1_pd(*ar1.add(kk));
                acc10 = _mm256_fmadd_pd(a1, b0, acc10);
                acc11 = _mm256_fmadd_pd(a1, b1, acc11);
                let a2 = _mm256_set1_pd(*ar2.add(kk));
                acc20 = _mm256_fmadd_pd(a2, b0, acc20);
                acc21 = _mm256_fmadd_pd(a2, b1, acc21);
                let a3 = _mm256_set1_pd(*ar3.add(kk));
                acc30 = _mm256_fmadd_pd(a3, b0, acc30);
                acc31 = _mm256_fmadd_pd(a3, b1, acc31);
            }
            let mut row = [0.0f64; 8];
            for (r, (lo, hi)) in [
                (acc00, acc01),
                (acc10, acc11),
                (acc20, acc21),
                (acc30, acc31),
            ]
            .into_iter()
            .enumerate()
            {
                _mm256_storeu_pd(row.as_mut_ptr(), lo);
                _mm256_storeu_pd(row.as_mut_ptr().add(4), hi);
                finish(&mut row);
                out[(i + r) * 8..(i + r) * 8 + 8].copy_from_slice(&row);
            }
            i += 4;
        }
        while i < m {
            let ar = ap.add(i * k);
            let mut acc0 = _mm256_setzero_pd();
            let mut acc1 = _mm256_setzero_pd();
            for kk in 0..k {
                let av = _mm256_set1_pd(*ar.add(kk));
                acc0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(bp.add(kk * 8)), acc0);
                acc1 = _mm256_fmadd_pd(av, _mm256_loadu_pd(bp.add(kk * 8 + 4)), acc1);
            }
            let mut row = [0.0f64; 8];
            _mm256_storeu_pd(row.as_mut_ptr(), acc0);
            _mm256_storeu_pd(row.as_mut_ptr().add(4), acc1);
            finish(&mut row);
            out[i * 8..i * 8 + 8].copy_from_slice(&row);
            i += 1;
        }
    }

    /// `orow[j..] = fma(av, brow[j..], orow[j..])` with a fused scalar
    /// ragged tail.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn row_axpy(av: f64, brow: *const f64, orow: *mut f64, n: usize) {
        let avv = _mm256_set1_pd(av);
        let mut j = 0;
        while j + 4 <= n {
            let o = _mm256_loadu_pd(orow.add(j));
            let bv = _mm256_loadu_pd(brow.add(j));
            _mm256_storeu_pd(orow.add(j), _mm256_fmadd_pd(avv, bv, o));
            j += 4;
        }
        while j < n {
            *orow.add(j) = av.mul_add(*brow.add(j), *orow.add(j));
            j += 1;
        }
    }

    /// Width-4 register kernel, FMA-contracted (see the Exact variant for
    /// the layout; the `av == 0.0` skip is preserved so ±0 semantics and
    /// the sparse-input advantage carry over).
    #[target_feature(enable = "avx2,fma")]
    unsafe fn matmul_n4(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize) {
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let op = out.as_mut_ptr();
        for i in 0..m {
            let ar = ap.add(i * k);
            let mut acc = _mm256_setzero_pd();
            for kk in 0..k {
                let av = *ar.add(kk);
                if av == 0.0 {
                    continue;
                }
                let bv = _mm256_loadu_pd(bp.add(kk * 4));
                acc = _mm256_fmadd_pd(_mm256_set1_pd(av), bv, acc);
            }
            _mm256_storeu_pd(op.add(i * 4), acc);
        }
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn matmul_impl(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
        if n == 8 && k > 0 {
            matmul_n8(a, b, out, m, k, |_| {});
            return;
        }
        if n == 4 && k > 0 {
            matmul_n4(a, b, out, m, k);
            return;
        }
        out.fill(0.0);
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let op = out.as_mut_ptr();
        for ib in (0..m).step_by(MATMUL_BLOCK) {
            let imax = (ib + MATMUL_BLOCK).min(m);
            for kb in (0..k).step_by(MATMUL_BLOCK) {
                let kmax = (kb + MATMUL_BLOCK).min(k);
                for i in ib..imax {
                    for kk in kb..kmax {
                        let av = *ap.add(i * k + kk);
                        // Same sparse skip as the Exact kernels (also keeps
                        // ±0 accumulator semantics identical).
                        if av == 0.0 {
                            continue;
                        }
                        row_axpy(av, bp.add(kk * n), op.add(i * n), n);
                    }
                }
            }
        }
    }

    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)] // mirrors the dispatch signature
    unsafe fn matmul_bias_rowapply_impl(
        a: &[f64],
        b: &[f64],
        bias: Option<&[f64]>,
        out: &mut [f64],
        m: usize,
        k: usize,
        n: usize,
        row_finish: &mut dyn FnMut(&mut [f64]),
    ) {
        if n == 8 && k > 0 {
            matmul_n8(a, b, out, m, k, |row| {
                if let Some(bv) = bias {
                    for (rv, &biasv) in row.iter_mut().zip(bv.iter()) {
                        *rv += biasv;
                    }
                }
                row_finish(row);
            });
            return;
        }
        matmul_impl(a, b, out, m, k, n);
        for i in 0..m {
            let orow = &mut out[i * n..(i + 1) * n];
            if let Some(bv) = bias {
                avx2::add_assign_impl(bv, orow);
            }
            row_finish(orow);
        }
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn matmul_tb_impl(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
        if k * n <= STACK_BT && k > 0 {
            let mut bt = [0.0f64; STACK_BT];
            for (j, brow) in b.chunks_exact(k).enumerate() {
                for (kk, &bv) in brow.iter().enumerate() {
                    bt[kk * n + j] = bv;
                }
            }
            if n == 8 {
                matmul_n8(a, &bt[..k * 8], out, m, k, |_| {});
                return;
            }
            let ap = a.as_ptr();
            let btp = bt.as_ptr();
            let op = out.as_mut_ptr();
            for i in 0..m {
                let orow = &mut out[i * n..(i + 1) * n];
                orow.fill(0.0);
                for kk in 0..k {
                    let av = *ap.add(i * k + kk);
                    row_axpy(av, btp.add(kk * n), op.add(i * n), n);
                }
            }
            return;
        }
        // Dot-product form: one fused accumulator per four lanes; the lane
        // reduction keeps the Exact kernel's (l0+l1)+(l2+l3)+tail order.
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for (j, o) in orow.iter_mut().enumerate() {
                let brow = &b[j * k..(j + 1) * k];
                let mut acc = _mm256_setzero_pd();
                let quads = k / 4 * 4;
                let mut kk = 0;
                while kk < quads {
                    let av = _mm256_loadu_pd(arow.as_ptr().add(kk));
                    let bv = _mm256_loadu_pd(brow.as_ptr().add(kk));
                    acc = _mm256_fmadd_pd(av, bv, acc);
                    kk += 4;
                }
                let mut tail = 0.0;
                for (&av, &bv) in arow[quads..].iter().zip(brow[quads..].iter()) {
                    tail = av.mul_add(bv, tail);
                }
                let lo = _mm256_castpd256_pd128(acc);
                let hi = _mm256_extractf128_pd(acc, 1);
                let l0 = _mm_cvtsd_f64(lo);
                let l1 = _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo));
                let l2 = _mm_cvtsd_f64(hi);
                let l3 = _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi));
                *o = (l0 + l1) + (l2 + l3) + tail;
            }
        }
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn ta_matmul_impl(a: &[f64], b: &[f64], out: &mut [f64], k: usize, m: usize, n: usize) {
        out.fill(0.0);
        let bp = b.as_ptr();
        let op = out.as_mut_ptr();
        let tiles = k / 4 * 4;
        for r in (0..tiles).step_by(4) {
            let at = &a[r * m..(r + 4) * m];
            for i in 0..m {
                let x0 = _mm256_set1_pd(at[i]);
                let x1 = _mm256_set1_pd(at[m + i]);
                let x2 = _mm256_set1_pd(at[2 * m + i]);
                let x3 = _mm256_set1_pd(at[3 * m + i]);
                let orow = op.add(i * n);
                let b0 = bp.add(r * n);
                let mut j = 0;
                while j + 4 <= n {
                    // The whole 4-way tile update folds into a fused chain
                    // ending in the accumulator:
                    // out = x0·b0 + (x1·b1 + (x2·b2 + (x3·b3 + out))).
                    let o = _mm256_loadu_pd(orow.add(j));
                    let s = _mm256_fmadd_pd(
                        x0,
                        _mm256_loadu_pd(b0.add(j)),
                        _mm256_fmadd_pd(
                            x1,
                            _mm256_loadu_pd(b0.add(n + j)),
                            _mm256_fmadd_pd(
                                x2,
                                _mm256_loadu_pd(b0.add(2 * n + j)),
                                _mm256_fmadd_pd(x3, _mm256_loadu_pd(b0.add(3 * n + j)), o),
                            ),
                        ),
                    );
                    _mm256_storeu_pd(orow.add(j), s);
                    j += 4;
                }
                while j < n {
                    let s = at[i].mul_add(
                        *b0.add(j),
                        at[m + i].mul_add(
                            *b0.add(n + j),
                            at[2 * m + i].mul_add(
                                *b0.add(2 * n + j),
                                at[3 * m + i].mul_add(*b0.add(3 * n + j), *orow.add(j)),
                            ),
                        ),
                    );
                    *orow.add(j) = s;
                    j += 1;
                }
            }
        }
        for r in tiles..k {
            let arow = &a[r * m..(r + 1) * m];
            for (i, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                row_axpy(av, bp.add(r * n), op.add(i * n), n);
            }
        }
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn axpy_impl(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = y.len();
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        if alpha == 1.0 {
            // Bit-compatibility with a plain add even on the Fast tier: no
            // multiply by one to contract.
            avx2::add_assign_impl(x, y);
            return;
        }
        let av = _mm256_set1_pd(alpha);
        let mut j = 0;
        while j + 4 <= n {
            let s = _mm256_fmadd_pd(av, _mm256_loadu_pd(xp.add(j)), _mm256_loadu_pd(yp.add(j)));
            _mm256_storeu_pd(yp.add(j), s);
            j += 4;
        }
        while j < n {
            *yp.add(j) = alpha.mul_add(*xp.add(j), *yp.add(j));
            j += 1;
        }
    }
}

/// NEON `f64x2` kernels, mirroring the AVX2 module's structure at half the
/// vector width. NEON is part of the `aarch64` baseline, so the intrinsics
/// need no runtime gate and no `target_feature` attribute. The same
/// bit-identity rules apply: no `vfma`, scalar accumulation order preserved.
#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{MATMUL_BLOCK, STACK_BT};
    use std::arch::aarch64::*;

    /// `orow[j..] += av * brow[j..]` with a scalar ragged tail.
    ///
    /// # Safety
    /// `brow` and `orow` must be valid for `n` reads/writes.
    unsafe fn row_axpy(av: f64, brow: *const f64, orow: *mut f64, n: usize) {
        let avv = vdupq_n_f64(av);
        let mut j = 0;
        while j + 2 <= n {
            let o = vld1q_f64(orow.add(j));
            let bv = vld1q_f64(brow.add(j));
            vst1q_f64(orow.add(j), vaddq_f64(o, vmulq_f64(avv, bv)));
            j += 2;
        }
        while j < n {
            *orow.add(j) += av * *brow.add(j);
            j += 1;
        }
    }

    /// Width-8 register kernel (see the AVX2 variant for the layout).
    ///
    /// # Safety
    /// `a` must hold `m*k` elements, `b` `k*8`, `out` `m*8`.
    unsafe fn matmul_n8(
        a: &[f64],
        b: &[f64],
        out: &mut [f64],
        m: usize,
        k: usize,
        mut finish: impl FnMut(&mut [f64; 8]),
    ) {
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        for i in 0..m {
            let ar = ap.add(i * k);
            let mut acc0 = vdupq_n_f64(0.0);
            let mut acc1 = vdupq_n_f64(0.0);
            let mut acc2 = vdupq_n_f64(0.0);
            let mut acc3 = vdupq_n_f64(0.0);
            for kk in 0..k {
                let av = vdupq_n_f64(*ar.add(kk));
                acc0 = vaddq_f64(acc0, vmulq_f64(av, vld1q_f64(bp.add(kk * 8))));
                acc1 = vaddq_f64(acc1, vmulq_f64(av, vld1q_f64(bp.add(kk * 8 + 2))));
                acc2 = vaddq_f64(acc2, vmulq_f64(av, vld1q_f64(bp.add(kk * 8 + 4))));
                acc3 = vaddq_f64(acc3, vmulq_f64(av, vld1q_f64(bp.add(kk * 8 + 6))));
            }
            let mut row = [0.0f64; 8];
            vst1q_f64(row.as_mut_ptr(), acc0);
            vst1q_f64(row.as_mut_ptr().add(2), acc1);
            vst1q_f64(row.as_mut_ptr().add(4), acc2);
            vst1q_f64(row.as_mut_ptr().add(6), acc3);
            finish(&mut row);
            out[i * 8..i * 8 + 8].copy_from_slice(&row);
        }
    }

    /// Width-4 register kernel (see the AVX2 variant): the output row lives
    /// in two `float64x2_t` accumulators, ascending-`kk` with the scalar
    /// path's `av == 0.0` skip replicated.
    ///
    /// # Safety
    /// `a` must hold `m*k` elements, `b` `k*4`, `out` `m*4`.
    unsafe fn matmul_n4(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize) {
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let op = out.as_mut_ptr();
        for i in 0..m {
            let ar = ap.add(i * k);
            let mut acc0 = vdupq_n_f64(0.0);
            let mut acc1 = vdupq_n_f64(0.0);
            for kk in 0..k {
                let av = *ar.add(kk);
                if av == 0.0 {
                    continue;
                }
                let avv = vdupq_n_f64(av);
                acc0 = vaddq_f64(acc0, vmulq_f64(avv, vld1q_f64(bp.add(kk * 4))));
                acc1 = vaddq_f64(acc1, vmulq_f64(avv, vld1q_f64(bp.add(kk * 4 + 2))));
            }
            vst1q_f64(op.add(i * 4), acc0);
            vst1q_f64(op.add(i * 4 + 2), acc1);
        }
    }

    pub(super) fn matmul(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
        if n == 8 && k > 0 {
            // SAFETY: slice lengths are checked by the dispatch layer.
            unsafe { matmul_n8(a, b, out, m, k, |_| {}) };
            return;
        }
        if n == 4 && k > 0 {
            // SAFETY: as above.
            unsafe { matmul_n4(a, b, out, m, k) };
            return;
        }
        out.fill(0.0);
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let op = out.as_mut_ptr();
        for ib in (0..m).step_by(MATMUL_BLOCK) {
            let imax = (ib + MATMUL_BLOCK).min(m);
            for kb in (0..k).step_by(MATMUL_BLOCK) {
                let kmax = (kb + MATMUL_BLOCK).min(k);
                for i in ib..imax {
                    for kk in kb..kmax {
                        // SAFETY: indices bounded by the m/k/n contract.
                        let av = unsafe { *ap.add(i * k + kk) };
                        if av == 0.0 {
                            continue;
                        }
                        // SAFETY: rows are in bounds.
                        unsafe { row_axpy(av, bp.add(kk * n), op.add(i * n), n) };
                    }
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the dispatch signature
    pub(super) fn matmul_bias_rowapply(
        a: &[f64],
        b: &[f64],
        bias: Option<&[f64]>,
        out: &mut [f64],
        m: usize,
        k: usize,
        n: usize,
        row_finish: &mut dyn FnMut(&mut [f64]),
    ) {
        if n == 8 && k > 0 {
            // SAFETY: slice lengths are checked by the dispatch layer.
            unsafe {
                matmul_n8(a, b, out, m, k, |row| {
                    if let Some(bv) = bias {
                        for (rv, &biasv) in row.iter_mut().zip(bv.iter()) {
                            *rv += biasv;
                        }
                    }
                    row_finish(row);
                })
            };
            return;
        }
        matmul(a, b, out, m, k, n);
        for i in 0..m {
            let orow = &mut out[i * n..(i + 1) * n];
            if let Some(bv) = bias {
                for (o, &biasv) in orow.iter_mut().zip(bv.iter()) {
                    *o += biasv;
                }
            }
            row_finish(orow);
        }
    }

    pub(super) fn matmul_tb(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
        if k * n <= STACK_BT && k > 0 {
            let mut bt = [0.0f64; STACK_BT];
            for (j, brow) in b.chunks_exact(k).enumerate() {
                for (kk, &bv) in brow.iter().enumerate() {
                    bt[kk * n + j] = bv;
                }
            }
            if n == 8 {
                // SAFETY: bt holds k*8 initialized elements.
                unsafe { matmul_n8(a, &bt[..k * 8], out, m, k, |_| {}) };
                return;
            }
            let ap = a.as_ptr();
            let btp = bt.as_ptr();
            let op = out.as_mut_ptr();
            for i in 0..m {
                out[i * n..(i + 1) * n].fill(0.0);
                for kk in 0..k {
                    // SAFETY: rows are in bounds.
                    unsafe {
                        let av = *ap.add(i * k + kk);
                        row_axpy(av, btp.add(kk * n), op.add(i * n), n);
                    }
                }
            }
            return;
        }
        // Dot-product form: two f64x2 accumulators replicate the scalar
        // kernel's four-way split; reduction order (l0+l1)+(l2+l3)+tail.
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for (j, o) in orow.iter_mut().enumerate() {
                let brow = &b[j * k..(j + 1) * k];
                let mut acc01 = vdupq_n_f64(0.0);
                let mut acc23 = vdupq_n_f64(0.0);
                let quads = k / 4 * 4;
                let mut kk = 0;
                while kk < quads {
                    // SAFETY: kk + 4 <= k.
                    unsafe {
                        let a01 = vld1q_f64(arow.as_ptr().add(kk));
                        let b01 = vld1q_f64(brow.as_ptr().add(kk));
                        let a23 = vld1q_f64(arow.as_ptr().add(kk + 2));
                        let b23 = vld1q_f64(brow.as_ptr().add(kk + 2));
                        acc01 = vaddq_f64(acc01, vmulq_f64(a01, b01));
                        acc23 = vaddq_f64(acc23, vmulq_f64(a23, b23));
                    }
                    kk += 4;
                }
                let mut tail = 0.0;
                for (&av, &bv) in arow[quads..].iter().zip(brow[quads..].iter()) {
                    tail += av * bv;
                }
                let l0 = vgetq_lane_f64::<0>(acc01);
                let l1 = vgetq_lane_f64::<1>(acc01);
                let l2 = vgetq_lane_f64::<0>(acc23);
                let l3 = vgetq_lane_f64::<1>(acc23);
                *o = (l0 + l1) + (l2 + l3) + tail;
            }
        }
    }

    pub(super) fn ta_matmul(a: &[f64], b: &[f64], out: &mut [f64], k: usize, m: usize, n: usize) {
        out.fill(0.0);
        let bp = b.as_ptr();
        let op = out.as_mut_ptr();
        let tiles = k / 4 * 4;
        for r in (0..tiles).step_by(4) {
            let at = &a[r * m..(r + 4) * m];
            for i in 0..m {
                let x0 = vdupq_n_f64(at[i]);
                let x1 = vdupq_n_f64(at[m + i]);
                let x2 = vdupq_n_f64(at[2 * m + i]);
                let x3 = vdupq_n_f64(at[3 * m + i]);
                // SAFETY: rows r..r+4 and output row i are in bounds.
                unsafe {
                    let orow = op.add(i * n);
                    let b0 = bp.add(r * n);
                    let mut j = 0;
                    while j + 2 <= n {
                        let m0 = vmulq_f64(x0, vld1q_f64(b0.add(j)));
                        let m1 = vmulq_f64(x1, vld1q_f64(b0.add(n + j)));
                        let m2 = vmulq_f64(x2, vld1q_f64(b0.add(2 * n + j)));
                        let m3 = vmulq_f64(x3, vld1q_f64(b0.add(3 * n + j)));
                        let s = vaddq_f64(vaddq_f64(vaddq_f64(m0, m1), m2), m3);
                        vst1q_f64(orow.add(j), vaddq_f64(vld1q_f64(orow.add(j)), s));
                        j += 2;
                    }
                    while j < n {
                        let s = at[i] * *b0.add(j)
                            + at[m + i] * *b0.add(n + j)
                            + at[2 * m + i] * *b0.add(2 * n + j)
                            + at[3 * m + i] * *b0.add(3 * n + j);
                        *orow.add(j) += s;
                        j += 1;
                    }
                }
            }
        }
        for r in tiles..k {
            let arow = &a[r * m..(r + 1) * m];
            for (i, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                // SAFETY: rows are in bounds.
                unsafe { row_axpy(av, bp.add(r * n), op.add(i * n), n) };
            }
        }
    }

    pub(super) fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = y.len();
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        // SAFETY: x and y have equal length n (dispatch contract).
        unsafe {
            if alpha == 1.0 {
                let mut j = 0;
                while j + 2 <= n {
                    vst1q_f64(
                        yp.add(j),
                        vaddq_f64(vld1q_f64(yp.add(j)), vld1q_f64(xp.add(j))),
                    );
                    j += 2;
                }
                while j < n {
                    *yp.add(j) += *xp.add(j);
                    j += 1;
                }
                return;
            }
            let av = vdupq_n_f64(alpha);
            let mut j = 0;
            while j + 2 <= n {
                let s = vaddq_f64(vld1q_f64(yp.add(j)), vmulq_f64(av, vld1q_f64(xp.add(j))));
                vst1q_f64(yp.add(j), s);
                j += 2;
            }
            while j < n {
                *yp.add(j) += alpha * *xp.add(j);
                j += 1;
            }
        }
    }

    macro_rules! binary_impl {
        ($name:ident, $vop:ident, $sop:tt) => {
            pub(super) fn $name(a: &[f64], b: &[f64], out: &mut [f64]) {
                let n = out.len();
                let ap = a.as_ptr();
                let bp = b.as_ptr();
                let op = out.as_mut_ptr();
                // SAFETY: equal lengths guaranteed by the dispatch contract.
                unsafe {
                    let mut j = 0;
                    while j + 2 <= n {
                        vst1q_f64(op.add(j), $vop(vld1q_f64(ap.add(j)), vld1q_f64(bp.add(j))));
                        j += 2;
                    }
                    while j < n {
                        *op.add(j) = *ap.add(j) $sop *bp.add(j);
                        j += 1;
                    }
                }
            }
        };
    }

    binary_impl!(add, vaddq_f64, +);
    binary_impl!(sub, vsubq_f64, -);
    binary_impl!(mul, vmulq_f64, *);

    pub(super) fn scale(a: &[f64], alpha: f64, out: &mut [f64]) {
        let n = out.len();
        let ap = a.as_ptr();
        let op = out.as_mut_ptr();
        let av = vdupq_n_f64(alpha);
        // SAFETY: equal lengths guaranteed by the dispatch contract.
        unsafe {
            let mut j = 0;
            while j + 2 <= n {
                vst1q_f64(op.add(j), vmulq_f64(vld1q_f64(ap.add(j)), av));
                j += 2;
            }
            while j < n {
                *op.add(j) = *ap.add(j) * alpha;
                j += 1;
            }
        }
    }
}

/// NEON FMA kernels — the [`KernelTier::Fast`] tier on `aarch64`, mirroring
/// `avx2fma` at half the vector width: every multiply-add contracts to
/// `vfmaq_f64` (fused, one rounding). `vfmaq_f64` is part of the `aarch64`
/// baseline, so no runtime gate is needed. Same accuracy contract as the
/// AVX2 Fast kernels (module-docs ULP envelope); like the Exact NEON path,
/// this module is compile-audited on x86 containers and validated by the
/// same architecture-independent accuracy harness when run on real
/// hardware.
#[cfg(target_arch = "aarch64")]
mod neonfma {
    use super::{neon, MATMUL_BLOCK, STACK_BT};
    use std::arch::aarch64::*;

    /// `orow[j..] = fma(av, brow[j..], orow[j..])` with a fused scalar tail.
    ///
    /// # Safety
    /// `brow` and `orow` must be valid for `n` reads/writes.
    unsafe fn row_axpy(av: f64, brow: *const f64, orow: *mut f64, n: usize) {
        let avv = vdupq_n_f64(av);
        let mut j = 0;
        while j + 2 <= n {
            let o = vld1q_f64(orow.add(j));
            let bv = vld1q_f64(brow.add(j));
            vst1q_f64(orow.add(j), vfmaq_f64(o, avv, bv));
            j += 2;
        }
        while j < n {
            *orow.add(j) = av.mul_add(*brow.add(j), *orow.add(j));
            j += 1;
        }
    }

    /// Width-8 register kernel, FMA-contracted.
    ///
    /// # Safety
    /// `a` must hold `m*k` elements, `b` `k*8`, `out` `m*8`.
    unsafe fn matmul_n8(
        a: &[f64],
        b: &[f64],
        out: &mut [f64],
        m: usize,
        k: usize,
        mut finish: impl FnMut(&mut [f64; 8]),
    ) {
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        for i in 0..m {
            let ar = ap.add(i * k);
            let mut acc0 = vdupq_n_f64(0.0);
            let mut acc1 = vdupq_n_f64(0.0);
            let mut acc2 = vdupq_n_f64(0.0);
            let mut acc3 = vdupq_n_f64(0.0);
            for kk in 0..k {
                let av = vdupq_n_f64(*ar.add(kk));
                acc0 = vfmaq_f64(acc0, av, vld1q_f64(bp.add(kk * 8)));
                acc1 = vfmaq_f64(acc1, av, vld1q_f64(bp.add(kk * 8 + 2)));
                acc2 = vfmaq_f64(acc2, av, vld1q_f64(bp.add(kk * 8 + 4)));
                acc3 = vfmaq_f64(acc3, av, vld1q_f64(bp.add(kk * 8 + 6)));
            }
            let mut row = [0.0f64; 8];
            vst1q_f64(row.as_mut_ptr(), acc0);
            vst1q_f64(row.as_mut_ptr().add(2), acc1);
            vst1q_f64(row.as_mut_ptr().add(4), acc2);
            vst1q_f64(row.as_mut_ptr().add(6), acc3);
            finish(&mut row);
            out[i * 8..i * 8 + 8].copy_from_slice(&row);
        }
    }

    /// Width-4 register kernel, FMA-contracted (`av == 0.0` skip preserved).
    ///
    /// # Safety
    /// `a` must hold `m*k` elements, `b` `k*4`, `out` `m*4`.
    unsafe fn matmul_n4(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize) {
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let op = out.as_mut_ptr();
        for i in 0..m {
            let ar = ap.add(i * k);
            let mut acc0 = vdupq_n_f64(0.0);
            let mut acc1 = vdupq_n_f64(0.0);
            for kk in 0..k {
                let av = *ar.add(kk);
                if av == 0.0 {
                    continue;
                }
                let avv = vdupq_n_f64(av);
                acc0 = vfmaq_f64(acc0, avv, vld1q_f64(bp.add(kk * 4)));
                acc1 = vfmaq_f64(acc1, avv, vld1q_f64(bp.add(kk * 4 + 2)));
            }
            vst1q_f64(op.add(i * 4), acc0);
            vst1q_f64(op.add(i * 4 + 2), acc1);
        }
    }

    pub(super) fn matmul(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
        if n == 8 && k > 0 {
            // SAFETY: slice lengths are checked by the dispatch layer.
            unsafe { matmul_n8(a, b, out, m, k, |_| {}) };
            return;
        }
        if n == 4 && k > 0 {
            // SAFETY: as above.
            unsafe { matmul_n4(a, b, out, m, k) };
            return;
        }
        out.fill(0.0);
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let op = out.as_mut_ptr();
        for ib in (0..m).step_by(MATMUL_BLOCK) {
            let imax = (ib + MATMUL_BLOCK).min(m);
            for kb in (0..k).step_by(MATMUL_BLOCK) {
                let kmax = (kb + MATMUL_BLOCK).min(k);
                for i in ib..imax {
                    for kk in kb..kmax {
                        // SAFETY: indices bounded by the m/k/n contract.
                        let av = unsafe { *ap.add(i * k + kk) };
                        if av == 0.0 {
                            continue;
                        }
                        // SAFETY: rows are in bounds.
                        unsafe { row_axpy(av, bp.add(kk * n), op.add(i * n), n) };
                    }
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the dispatch signature
    pub(super) fn matmul_bias_rowapply(
        a: &[f64],
        b: &[f64],
        bias: Option<&[f64]>,
        out: &mut [f64],
        m: usize,
        k: usize,
        n: usize,
        row_finish: &mut dyn FnMut(&mut [f64]),
    ) {
        if n == 8 && k > 0 {
            // SAFETY: slice lengths are checked by the dispatch layer.
            unsafe {
                matmul_n8(a, b, out, m, k, |row| {
                    if let Some(bv) = bias {
                        for (rv, &biasv) in row.iter_mut().zip(bv.iter()) {
                            *rv += biasv;
                        }
                    }
                    row_finish(row);
                })
            };
            return;
        }
        matmul(a, b, out, m, k, n);
        for i in 0..m {
            let orow = &mut out[i * n..(i + 1) * n];
            if let Some(bv) = bias {
                for (o, &biasv) in orow.iter_mut().zip(bv.iter()) {
                    *o += biasv;
                }
            }
            row_finish(orow);
        }
    }

    pub(super) fn matmul_tb(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
        if k * n <= STACK_BT && k > 0 {
            let mut bt = [0.0f64; STACK_BT];
            for (j, brow) in b.chunks_exact(k).enumerate() {
                for (kk, &bv) in brow.iter().enumerate() {
                    bt[kk * n + j] = bv;
                }
            }
            if n == 8 {
                // SAFETY: bt holds k*8 initialized elements.
                unsafe { matmul_n8(a, &bt[..k * 8], out, m, k, |_| {}) };
                return;
            }
            let ap = a.as_ptr();
            let btp = bt.as_ptr();
            let op = out.as_mut_ptr();
            for i in 0..m {
                out[i * n..(i + 1) * n].fill(0.0);
                for kk in 0..k {
                    // SAFETY: rows are in bounds.
                    unsafe {
                        let av = *ap.add(i * k + kk);
                        row_axpy(av, btp.add(kk * n), op.add(i * n), n);
                    }
                }
            }
            return;
        }
        // Dot-product form with fused accumulators; lane reduction keeps
        // the Exact kernel's (l0+l1)+(l2+l3)+tail order.
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for (j, o) in orow.iter_mut().enumerate() {
                let brow = &b[j * k..(j + 1) * k];
                let mut acc01 = vdupq_n_f64(0.0);
                let mut acc23 = vdupq_n_f64(0.0);
                let quads = k / 4 * 4;
                let mut kk = 0;
                while kk < quads {
                    // SAFETY: kk + 4 <= k.
                    unsafe {
                        let a01 = vld1q_f64(arow.as_ptr().add(kk));
                        let b01 = vld1q_f64(brow.as_ptr().add(kk));
                        let a23 = vld1q_f64(arow.as_ptr().add(kk + 2));
                        let b23 = vld1q_f64(brow.as_ptr().add(kk + 2));
                        acc01 = vfmaq_f64(acc01, a01, b01);
                        acc23 = vfmaq_f64(acc23, a23, b23);
                    }
                    kk += 4;
                }
                let mut tail = 0.0;
                for (&av, &bv) in arow[quads..].iter().zip(brow[quads..].iter()) {
                    tail = av.mul_add(bv, tail);
                }
                let l0 = vgetq_lane_f64::<0>(acc01);
                let l1 = vgetq_lane_f64::<1>(acc01);
                let l2 = vgetq_lane_f64::<0>(acc23);
                let l3 = vgetq_lane_f64::<1>(acc23);
                *o = (l0 + l1) + (l2 + l3) + tail;
            }
        }
    }

    pub(super) fn ta_matmul(a: &[f64], b: &[f64], out: &mut [f64], k: usize, m: usize, n: usize) {
        out.fill(0.0);
        let bp = b.as_ptr();
        let op = out.as_mut_ptr();
        let tiles = k / 4 * 4;
        for r in (0..tiles).step_by(4) {
            let at = &a[r * m..(r + 4) * m];
            for i in 0..m {
                let x0 = vdupq_n_f64(at[i]);
                let x1 = vdupq_n_f64(at[m + i]);
                let x2 = vdupq_n_f64(at[2 * m + i]);
                let x3 = vdupq_n_f64(at[3 * m + i]);
                // SAFETY: rows r..r+4 and output row i are in bounds.
                unsafe {
                    let orow = op.add(i * n);
                    let b0 = bp.add(r * n);
                    let mut j = 0;
                    while j + 2 <= n {
                        // Fused chain into the accumulator, as in avx2fma.
                        let o = vld1q_f64(orow.add(j));
                        let s = vfmaq_f64(
                            vfmaq_f64(
                                vfmaq_f64(
                                    vfmaq_f64(o, x3, vld1q_f64(b0.add(3 * n + j))),
                                    x2,
                                    vld1q_f64(b0.add(2 * n + j)),
                                ),
                                x1,
                                vld1q_f64(b0.add(n + j)),
                            ),
                            x0,
                            vld1q_f64(b0.add(j)),
                        );
                        vst1q_f64(orow.add(j), s);
                        j += 2;
                    }
                    while j < n {
                        let s = at[i].mul_add(
                            *b0.add(j),
                            at[m + i].mul_add(
                                *b0.add(n + j),
                                at[2 * m + i].mul_add(
                                    *b0.add(2 * n + j),
                                    at[3 * m + i].mul_add(*b0.add(3 * n + j), *orow.add(j)),
                                ),
                            ),
                        );
                        *orow.add(j) = s;
                        j += 1;
                    }
                }
            }
        }
        for r in tiles..k {
            let arow = &a[r * m..(r + 1) * m];
            for (i, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                // SAFETY: rows are in bounds.
                unsafe { row_axpy(av, bp.add(r * n), op.add(i * n), n) };
            }
        }
    }

    pub(super) fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        if alpha == 1.0 {
            // Bit-compatibility with a plain add even on the Fast tier.
            neon::axpy(1.0, x, y);
            return;
        }
        let n = y.len();
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        let av = vdupq_n_f64(alpha);
        // SAFETY: x and y have equal length n (dispatch contract).
        unsafe {
            let mut j = 0;
            while j + 2 <= n {
                let s = vfmaq_f64(vld1q_f64(yp.add(j)), av, vld1q_f64(xp.add(j)));
                vst1q_f64(yp.add(j), s);
                j += 2;
            }
            while j < n {
                *yp.add(j) = alpha.mul_add(*xp.add(j), *yp.add(j));
                j += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names() {
        assert_eq!(Backend::Scalar.name(), "scalar");
        assert!(matches!(Backend::Simd.name(), "avx2" | "neon" | "simd"));
        assert!(matches!(
            Backend::Fma.name(),
            "avx2-fma" | "neon-fma" | "fma"
        ));
    }

    #[test]
    fn backend_tiers() {
        assert_eq!(Backend::Scalar.tier(), KernelTier::Exact);
        assert_eq!(Backend::Simd.tier(), KernelTier::Exact);
        assert_eq!(Backend::Fma.tier(), KernelTier::Fast);
        assert_eq!(KernelTier::Exact.name(), "exact");
        assert_eq!(KernelTier::Fast.name(), "fast");
    }

    #[test]
    fn active_is_stable_and_consistent() {
        let first = active_backend();
        for _ in 0..4 {
            assert_eq!(active_backend(), first);
        }
        assert_eq!(backend_name(), first.name());
        assert_eq!(active_tier(), first.tier());
    }

    #[test]
    fn scalar_table_reports_scalar() {
        assert_eq!(scalar().backend(), Backend::Scalar);
        assert_eq!(scalar().tier(), KernelTier::Exact);
        if let Some(table) = simd() {
            assert_eq!(table.backend(), Backend::Simd);
            assert_eq!(table.tier(), KernelTier::Exact);
        }
        if let Some(table) = fma() {
            assert_eq!(table.backend(), Backend::Fma);
            assert_eq!(table.tier(), KernelTier::Fast);
        }
    }

    #[test]
    fn resolution_is_stable_and_matches_active() {
        let res = resolution();
        assert_eq!(res.backend, active_backend());
        assert_eq!(res.resolved_name(), backend_name());
        for _ in 0..4 {
            assert_eq!(resolution(), res);
        }
        // Degradation can only be reported for an explicit request the
        // hardware could not honor; Auto always resolves cleanly.
        if res.requested == TierRequest::Auto {
            assert!(!res.degraded);
        }
        // A late programmatic request cannot change a standing resolution.
        let standing = match request_tier(TierRequest::Scalar) {
            Ok(r) | Err(r) => r,
        };
        assert_eq!(standing, resolution());
    }

    #[test]
    fn degradation_warning_reaches_the_event_log() {
        let log = bellamy_telemetry::events();
        let before = log.total();
        note_degradation(TierRequest::Fma, RequestSource::Env, Backend::Scalar);
        assert!(log.total() > before);
        let event = log
            .recent()
            .into_iter()
            .rev()
            .find(|e| e.kind == bellamy_telemetry::event_kind::KERNEL_DEGRADED)
            .expect("degradation event recorded");
        assert!(event.detail.contains("`fma`"), "detail: {}", event.detail);
        assert!(event.detail.contains("degraded to `scalar`"));
        assert!(event.detail.contains("via BELLAMY_KERNEL"));
    }

    #[test]
    fn tier_request_names() {
        assert_eq!(TierRequest::Auto.name(), "auto");
        assert_eq!(TierRequest::Scalar.name(), "scalar");
        assert_eq!(TierRequest::Simd.name(), "simd");
        assert_eq!(TierRequest::Fma.name(), "fma");
    }
}
