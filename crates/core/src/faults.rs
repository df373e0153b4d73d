//! Deterministic fault injection for the serving stack.
//!
//! Shared-infrastructure failures — slow or failing disks, corrupt
//! checkpoint bytes, panicking model code — are rare in tests and constant
//! in production. This module makes them *injectable on demand*: named
//! failpoints are compiled into the hub's disk probe/persist path, the
//! checkpoint decode step, and the single-query predict path, and tests
//! arm them with a [`FaultPlan`] to deterministically reproduce I/O errors,
//! corrupt reads, mid-predict panics, and artificial latency.
//!
//! The failpoints are compiled **always** (no test-only `cfg`, so release
//! stress runs exercise exactly the shipped code) but cost one relaxed-ish
//! atomic load per site while disarmed — the armed bookkeeping (a mutex,
//! hit counting, plan sequencing) lives behind that check and is never
//! touched in normal operation.
//!
//! ```no_run
//! use bellamy_core::faults::{self, Fault, FaultPlan};
//!
//! // Panic exactly one predict, then behave normally again.
//! let _armed = faults::SERVE_PREDICT.arm(FaultPlan::once(Fault::Panic));
//! // ... drive the service; the guard disarms the point when dropped.
//! ```
//!
//! Arming is process-global (the failpoints are statics), so tests that arm
//! faults must serialize among themselves — see `crates/core/tests/faults.rs`
//! for the pattern.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The site surfaces an injected I/O-style error ([`Injected::Error`]).
    Error,
    /// The site sees corrupted data ([`Injected::Corrupt`]); each site
    /// documents what "corrupt" means for it (e.g. garbage checkpoint
    /// bytes).
    Corrupt,
    /// The site panics (message `injected fault: <name>`); handled inside
    /// [`Failpoint::check`], so call sites need no panic plumbing.
    Panic,
    /// The site sleeps this long, then proceeds normally — artificial
    /// latency for overload and deadline tests.
    Delay(Duration),
}

/// The data-shaped faults a call site must interpret itself. `Panic` and
/// `Delay` never reach the caller — [`Failpoint::check`] executes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injected {
    /// Fail as if the underlying operation returned an I/O error.
    Error,
    /// Proceed with corrupted data.
    Corrupt,
}

/// When and how often an armed failpoint fires: let `skip` hits pass
/// untouched, then fire `times` hits, then disarm automatically.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// The fault to inject when firing.
    pub fault: Fault,
    /// Hits that pass through unharmed before the first firing.
    pub skip: u64,
    /// Firings before the point disarms itself (`u64::MAX` ≈ forever).
    pub times: u64,
}

impl FaultPlan {
    /// Fire on the next hit, once.
    pub fn once(fault: Fault) -> Self {
        Self {
            fault,
            skip: 0,
            times: 1,
        }
    }

    /// Fire on every hit until disarmed.
    pub fn always(fault: Fault) -> Self {
        Self {
            fault,
            skip: 0,
            times: u64::MAX,
        }
    }

    /// Fire `times` consecutive hits, then self-disarm.
    pub fn times(fault: Fault, times: u64) -> Self {
        Self {
            fault,
            skip: 0,
            times,
        }
    }

    /// Let the first `skip` hits pass before the first firing.
    pub fn after(mut self, skip: u64) -> Self {
        self.skip = skip;
        self
    }
}

struct PlanState {
    plan: FaultPlan,
    /// Hits observed since arming (fired or skipped).
    seen: u64,
}

/// One named injection site. Declare as a `static`; the only cost while
/// disarmed is a single atomic load in [`Failpoint::check`].
pub struct Failpoint {
    name: &'static str,
    /// 0 = disarmed — the fast-path check. Non-zero while a plan is live.
    armed: AtomicU64,
    /// Times the point actually fired (not merely checked) since process
    /// start; monotonic across re-arms so tests can diff around a window.
    fired: AtomicU64,
    plan: Mutex<Option<PlanState>>,
}

impl Failpoint {
    /// A disarmed failpoint named `name` (shown in injected panic messages
    /// and useful for debugging).
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            armed: AtomicU64::new(0),
            fired: AtomicU64::new(0),
            plan: Mutex::new(None),
        }
    }

    /// The site's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Arms the point with `plan`; the returned guard disarms it on drop,
    /// so a panicking test cannot leak an armed fault into its neighbors.
    /// Re-arming replaces any live plan.
    pub fn arm(&'static self, plan: FaultPlan) -> ArmedGuard {
        *self.plan.lock().expect("failpoint plan mutex") = Some(PlanState { plan, seen: 0 });
        self.armed.store(1, Ordering::Release);
        ArmedGuard(self)
    }

    /// Disarms the point immediately (the [`ArmedGuard`] does this on drop).
    pub fn disarm(&self) {
        self.armed.store(0, Ordering::Release);
        *self.plan.lock().expect("failpoint plan mutex") = None;
    }

    /// Times the point has fired since process start.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Acquire)
    }

    /// The injection hook: returns `None` (after executing `Panic`/`Delay`
    /// faults in place) or the data-shaped fault the site must act on.
    /// One atomic load when disarmed.
    #[inline]
    pub fn check(&self) -> Option<Injected> {
        if self.armed.load(Ordering::Acquire) == 0 {
            return None;
        }
        self.check_armed()
    }

    #[cold]
    fn check_armed(&self) -> Option<Injected> {
        let fault = {
            let mut guard = self.plan.lock().expect("failpoint plan mutex");
            let state = guard.as_mut()?;
            let seen = state.seen;
            state.seen += 1;
            if seen < state.plan.skip {
                return None;
            }
            let fault = state.plan.fault;
            let last_firing = state
                .plan
                .times
                .checked_add(state.plan.skip)
                .is_some_and(|end| seen + 1 >= end);
            if last_firing {
                *guard = None;
                self.armed.store(0, Ordering::Release);
            }
            fault
        };
        self.fired.fetch_add(1, Ordering::AcqRel);
        // Firings are rare by construction (tests and chaos drills), so the
        // structured event log gets one entry per firing — machine-readable
        // confirmation of which site saw which fault, in order.
        bellamy_telemetry::events().record(
            bellamy_telemetry::event_kind::FAULT_INJECTED,
            format!("failpoint `{}` fired: {fault:?}", self.name),
        );
        match fault {
            Fault::Error => Some(Injected::Error),
            Fault::Corrupt => Some(Injected::Corrupt),
            Fault::Panic => panic!("injected fault: {}", self.name),
            Fault::Delay(d) => {
                std::thread::sleep(d);
                None
            }
        }
    }
}

/// RAII disarm handle returned by [`Failpoint::arm`].
#[must_use = "dropping the guard disarms the failpoint immediately"]
pub struct ArmedGuard(&'static Failpoint);

impl ArmedGuard {
    /// The armed point (to read its fired counter mid-test).
    pub fn point(&self) -> &'static Failpoint {
        self.0
    }
}

impl Drop for ArmedGuard {
    fn drop(&mut self) {
        self.0.disarm();
    }
}

/// Reading the checkpoint file during a hub disk recall. `Error`: the read
/// fails as transient I/O (retried with bounded backoff); `Corrupt`: the
/// read yields garbage bytes (drives the quarantine path); `Delay`: slow
/// disk.
pub static HUB_DISK_PROBE: Failpoint = Failpoint::new("hub.disk.probe");

/// Persisting a checkpoint in [`crate::hub::ModelHub::publish`]. `Error`:
/// the write fails; `Corrupt`: garbage bytes land on disk in place of the
/// checkpoint (a crash mid-write, as later recalls will find it).
pub static HUB_DISK_PERSIST: Failpoint = Failpoint::new("hub.disk.persist");

/// Decoding checkpoint bytes already read from disk. `Corrupt`: the decoder
/// sees mangled bytes; `Error`: decoding aborts with an I/O-style error
/// (not a corruption — no quarantine).
pub static CHECKPOINT_DECODE: Failpoint = Failpoint::new("checkpoint.decode");

/// A single-query `ModelClient::predict`, hit once per admitted query inside
/// the calling thread's `Predictor` borrow, just before the forward pass.
/// `Panic`: the forward pass panics mid-call; `Delay`: a slow model
/// (overload/deadline tests). `Error`/`Corrupt` are ignored at this site.
pub static SERVE_PREDICT: Failpoint = Failpoint::new("serve.predict");

#[cfg(test)]
mod tests {
    use super::*;

    // Unit tests use private points so they cannot race the product
    // failpoints used by concurrently running suites.
    static UNIT_A: Failpoint = Failpoint::new("unit.a");
    static UNIT_B: Failpoint = Failpoint::new("unit.b");
    static UNIT_PANIC: Failpoint = Failpoint::new("unit.panic");
    static UNIT_DELAY: Failpoint = Failpoint::new("unit.delay");

    #[test]
    fn disarmed_points_are_silent() {
        for _ in 0..1000 {
            assert_eq!(UNIT_A.check(), None);
        }
        assert_eq!(UNIT_A.fired(), 0);
    }

    #[test]
    fn skip_then_times_then_self_disarm() {
        let armed = UNIT_B.arm(FaultPlan::times(Fault::Error, 2).after(3));
        let got: Vec<Option<Injected>> = (0..8).map(|_| UNIT_B.check()).collect();
        assert_eq!(
            got,
            vec![
                None,
                None,
                None,
                Some(Injected::Error),
                Some(Injected::Error),
                None,
                None,
                None,
            ],
            "3 skips, 2 firings, then self-disarmed"
        );
        assert_eq!(armed.point().fired(), 2);
        drop(armed);
        assert_eq!(UNIT_B.check(), None);
    }

    #[test]
    fn guard_drop_disarms() {
        {
            let _armed = UNIT_A.arm(FaultPlan::always(Fault::Corrupt));
            assert_eq!(UNIT_A.check(), Some(Injected::Corrupt));
        }
        assert_eq!(UNIT_A.check(), None, "guard drop must disarm");
        UNIT_A.disarm();
    }

    #[test]
    fn panic_fault_panics_with_the_site_name() {
        let _armed = UNIT_PANIC.arm(FaultPlan::once(Fault::Panic));
        let err = std::panic::catch_unwind(|| UNIT_PANIC.check()).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("unit.panic"), "got panic message {msg:?}");
        // The once-plan is exhausted: the next hit passes.
        assert_eq!(UNIT_PANIC.check(), None);
    }

    #[test]
    fn delay_fault_sleeps_then_proceeds() {
        let _armed = UNIT_DELAY.arm(FaultPlan::once(Fault::Delay(Duration::from_millis(20))));
        let start = std::time::Instant::now();
        assert_eq!(UNIT_DELAY.check(), None, "delay proceeds normally");
        assert!(start.elapsed() >= Duration::from_millis(15));
        let start = std::time::Instant::now();
        assert_eq!(UNIT_DELAY.check(), None);
        assert!(
            start.elapsed() < Duration::from_millis(15),
            "exhausted plan must not sleep"
        );
    }
}
