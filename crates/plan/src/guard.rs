//! Runtime guardrails for pipeline execution.
//!
//! The paper's contract is *static*: `analyze()` certifies that a bounded
//! plan fetches at most `M` base tuples.  This module adds the *dynamic*
//! guarantees a serving engine needs on top of that promise — an adversarial
//! cyclic query or a skewed hash join can still blow up wall-clock time and
//! intermediate memory long after the fetch bound is satisfied.
//!
//! A [`Guard`] bundles four cooperative limits:
//!
//! * **cancellation** — a shared [`CancellationToken`] a caller can trip from
//!   another thread;
//! * **deadline** — a wall-clock budget resolved to an [`Instant`] when
//!   execution starts;
//! * **intermediate-row budget** — a cap on the total rows materialised
//!   across all operators (the memory proxy: every intermediate row has
//!   fixed arity, so rows x arity bounds resident `ValueId`s); a probed view
//!   is charged the joined rows it emits, not its extent, which is not copied;
//! * **fetched-tuple cap** — a *runtime* re-check of the paper's fetch bound
//!   (`|D_ξ| <= M`), independent of the static certificate.
//!
//! The executor checks the guard at operator boundaries and every
//! [`CHECK_INTERVAL`] rows inside hot loops ([`Guard::checkpoint`]), so an
//! exceeded limit surfaces as a typed [`ExecError`] within
//! microseconds rather than minutes.  Limits are configured per execution on
//! [`ExecOptions::limits`](crate::ExecOptions) — all disabled by default, in
//! which case every check is a couple of relaxed atomic loads.
//!
//! [`GuardMetrics`] accumulates engine-lifetime counters ([`GuardStats`]) of
//! trips; `bqr-engine` owns one per engine and surfaces it as
//! `engine.guard_stats()`.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::ExecError;

/// How many rows a hot loop may process between guard checks.  Must be a
/// power of two ([`Guard::checkpoint`] uses a mask).
pub const CHECK_INTERVAL: usize = 1024;
const CHECK_MASK: usize = CHECK_INTERVAL - 1;

/// [`Guard::check`] reads the clock on the first call and every this-many-th.
const CLOCK_STRIDE: usize = 8;

/// A shareable cancellation handle.  Cloning is cheap (one `Arc`); tripping
/// it from any thread makes every execution guarded by it return
/// [`ExecError::Cancelled`] at the next checkpoint.
#[derive(Debug, Clone, Default)]
pub struct CancellationToken {
    inner: Arc<AtomicBool>,
}

impl CancellationToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trip the token.  Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.inner.store(true, Ordering::Release);
    }

    /// Has the token been tripped?
    pub fn is_cancelled(&self) -> bool {
        self.inner.load(Ordering::Acquire)
    }
}

/// Declarative runtime limits carried on
/// [`ExecOptions`](crate::ExecOptions).  All `None` (the default) disables
/// every check except cancellation-token polling.
///
/// Limits are *runtime-only*: like every other option they stay out of the
/// pipeline cache's key, so two executions of the same plan with different
/// deadlines share one compiled pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GuardLimits {
    /// Wall-clock deadline in milliseconds, resolved against `Instant::now()`
    /// when execution starts.
    pub deadline_ms: Option<u64>,
    /// Cap on total intermediate rows materialised across all operators.
    pub max_intermediate_rows: Option<usize>,
    /// Cap on base tuples fetched at runtime (a dynamic re-check of the
    /// paper's static bound `|D_ξ| <= M`).
    pub max_fetched_tuples: Option<usize>,
}

impl GuardLimits {
    /// No limits: every check is a no-op beyond token polling.
    pub fn none() -> Self {
        Self::default()
    }
}

/// The per-execution governor: checked cooperatively inside the hot operator
/// loops (it is `Sync`; the counters are atomics).
///
/// Construction resolves the deadline once; `check()` only reads the clock
/// when a deadline is actually set, and then on one call in `CLOCK_STRIDE`:
/// checks are at most [`CHECK_INTERVAL`] rows apart and deadlines are milliseconds,
/// while clock reads were most of the guard's cost on a microsecond plan.
#[derive(Debug)]
pub struct Guard {
    token: CancellationToken,
    deadline: Option<Instant>,
    deadline_ms: u64,
    /// `check()` calls under a deadline so far (a sampling counter).
    checks: AtomicUsize,
    max_rows: Option<usize>,
    rows: AtomicUsize,
    max_fetched: Option<usize>,
    fetched: AtomicUsize,
    metrics: Option<Arc<GuardMetrics>>,
}

impl Guard {
    /// A guard enforcing `limits`, with a fresh (untrippable-from-outside)
    /// token.  The deadline countdown starts now.
    pub fn new(limits: &GuardLimits) -> Self {
        Self::with_token(limits, CancellationToken::new())
    }

    /// A guard enforcing `limits` that also honours an external `token`.
    pub fn with_token(limits: &GuardLimits, token: CancellationToken) -> Self {
        Guard {
            token,
            deadline: limits
                .deadline_ms
                .map(|ms| Instant::now() + Duration::from_millis(ms)),
            deadline_ms: limits.deadline_ms.unwrap_or(0),
            checks: AtomicUsize::new(0),
            max_rows: limits.max_intermediate_rows,
            rows: AtomicUsize::new(0),
            max_fetched: limits.max_fetched_tuples,
            fetched: AtomicUsize::new(0),
            metrics: None,
        }
    }

    /// Attach engine-lifetime metrics; trips recorded via [`record_trip`]
    /// accumulate there.
    ///
    /// [`record_trip`]: Guard::record_trip
    pub fn with_metrics(mut self, metrics: Arc<GuardMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The token this guard polls.
    pub fn token(&self) -> &CancellationToken {
        &self.token
    }

    /// Fail fast if cancelled or past the deadline.  The clock is only read
    /// when a deadline is set.
    pub fn check(&self) -> Result<(), ExecError> {
        if self.token.is_cancelled() {
            return Err(ExecError::Cancelled);
        }
        if let Some(deadline) = self.deadline {
            // Not an atomic increment: a lost count only shifts the sampling.
            let calls = self.checks.load(Ordering::Relaxed);
            self.checks.store(calls.wrapping_add(1), Ordering::Relaxed);
            if calls.is_multiple_of(CLOCK_STRIDE) && Instant::now() >= deadline {
                return Err(ExecError::DeadlineExceeded {
                    deadline_ms: self.deadline_ms,
                });
            }
        }
        Ok(())
    }

    /// Amortised [`check`](Guard::check) for per-row loops: runs the real
    /// check once every [`CHECK_INTERVAL`] iterations.
    #[inline]
    pub fn checkpoint(&self, i: usize) -> Result<(), ExecError> {
        if i & CHECK_MASK == 0 {
            self.check()
        } else {
            Ok(())
        }
    }

    /// Charge `n` intermediate rows against the memory budget.  Call once
    /// per [`CHECK_INTERVAL`] rows of a loop and at its end, not per row.
    pub fn charge_rows(&self, n: usize) -> Result<(), ExecError> {
        let Some(budget) = self.max_rows else {
            return Ok(());
        };
        let total = self.rows.fetch_add(n, Ordering::AcqRel) + n;
        if total > budget {
            return Err(ExecError::MemoryBudgetExceeded {
                budget_rows: budget,
            });
        }
        Ok(())
    }

    /// Charge `n` fetched base tuples against the runtime fetch cap.
    pub fn charge_fetched(&self, n: usize) -> Result<(), ExecError> {
        let Some(budget) = self.max_fetched else {
            return Ok(());
        };
        let total = self.fetched.fetch_add(n, Ordering::AcqRel) + n;
        if total > budget {
            return Err(ExecError::FetchBudgetExceeded {
                budget_tuples: budget,
            });
        }
        Ok(())
    }

    /// Record one tripped limit in the attached metrics.  Called once per
    /// execution at the top level.
    pub fn record_trip(&self, err: &ExecError) {
        let Some(m) = &self.metrics else { return };
        match err {
            ExecError::Cancelled => m.cancellations.fetch_add(1, Ordering::Relaxed),
            ExecError::DeadlineExceeded { .. } => m.deadline_trips.fetch_add(1, Ordering::Relaxed),
            ExecError::MemoryBudgetExceeded { .. } => {
                m.memory_trips.fetch_add(1, Ordering::Relaxed)
            }
            ExecError::FetchBudgetExceeded { .. } => m.fetch_trips.fetch_add(1, Ordering::Relaxed),
        };
    }
}

/// Engine-lifetime guardrail counters.  One per `Engine`, shared (via `Arc`)
/// into every guarded execution; snapshot with [`GuardMetrics::stats`].
#[derive(Debug, Default)]
pub struct GuardMetrics {
    cancellations: AtomicU64,
    deadline_trips: AtomicU64,
    memory_trips: AtomicU64,
    fetch_trips: AtomicU64,
}

impl GuardMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// A consistent-enough snapshot of the counters (each counter is read
    /// atomically; the set is not mutually synchronised).
    pub fn stats(&self) -> GuardStats {
        GuardStats {
            cancellations: self.cancellations.load(Ordering::Relaxed),
            deadline_trips: self.deadline_trips.load(Ordering::Relaxed),
            memory_trips: self.memory_trips.load(Ordering::Relaxed),
            fetch_trips: self.fetch_trips.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of [`GuardMetrics`]: how often each guardrail has fired over an
/// engine's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GuardStats {
    /// Executions that returned [`ExecError::Cancelled`].
    pub cancellations: u64,
    /// Executions that returned [`ExecError::DeadlineExceeded`].
    pub deadline_trips: u64,
    /// Executions that returned [`ExecError::MemoryBudgetExceeded`].
    pub memory_trips: u64,
    /// Executions that returned [`ExecError::FetchBudgetExceeded`].
    pub fetch_trips: u64,
}

/// Best-effort human-readable message from a caught panic payload (the
/// value `std::panic::catch_unwind` returns in its `Err`).  Used by the
/// engine's mutate containment.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_guard_always_passes() {
        let g = Guard::new(&GuardLimits::none());
        g.check().unwrap();
        g.charge_rows(usize::MAX / 2).unwrap();
        g.charge_fetched(usize::MAX / 2).unwrap();
        for i in 0..10_000 {
            g.checkpoint(i).unwrap();
        }
    }

    #[test]
    fn cancellation_is_observed_by_clones() {
        let token = CancellationToken::new();
        let g = Guard::with_token(&GuardLimits::none(), token.clone());
        g.check().unwrap();
        token.cancel();
        assert_eq!(g.check(), Err(ExecError::Cancelled));
        assert!(g.token().is_cancelled());
    }

    #[test]
    fn elapsed_deadline_trips() {
        let limits = GuardLimits {
            deadline_ms: Some(0),
            ..GuardLimits::default()
        };
        let g = Guard::new(&limits);
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(
            g.check(),
            Err(ExecError::DeadlineExceeded { deadline_ms: 0 })
        );
    }

    #[test]
    fn row_budget_is_cumulative_across_charges() {
        let limits = GuardLimits {
            max_intermediate_rows: Some(100),
            ..GuardLimits::default()
        };
        let g = Guard::new(&limits);
        g.charge_rows(60).unwrap();
        g.charge_rows(40).unwrap();
        assert_eq!(
            g.charge_rows(1),
            Err(ExecError::MemoryBudgetExceeded { budget_rows: 100 })
        );
    }

    #[test]
    fn fetch_budget_trips_with_the_configured_cap_in_the_error() {
        let limits = GuardLimits {
            max_fetched_tuples: Some(5),
            ..GuardLimits::default()
        };
        let g = Guard::new(&limits);
        g.charge_fetched(5).unwrap();
        assert_eq!(
            g.charge_fetched(1),
            Err(ExecError::FetchBudgetExceeded { budget_tuples: 5 })
        );
    }

    #[test]
    fn checkpoint_only_checks_on_interval_boundaries() {
        let token = CancellationToken::new();
        let g = Guard::with_token(&GuardLimits::none(), token.clone());
        token.cancel();
        // Off-boundary indices skip the check entirely.
        g.checkpoint(1).unwrap();
        g.checkpoint(CHECK_INTERVAL - 1).unwrap();
        assert_eq!(g.checkpoint(0), Err(ExecError::Cancelled));
        assert_eq!(g.checkpoint(CHECK_INTERVAL), Err(ExecError::Cancelled));
    }

    #[test]
    fn metrics_count_trips_by_kind() {
        let metrics = Arc::new(GuardMetrics::new());
        let g = Guard::new(&GuardLimits::none()).with_metrics(Arc::clone(&metrics));
        g.record_trip(&ExecError::Cancelled);
        g.record_trip(&ExecError::DeadlineExceeded { deadline_ms: 50 });
        g.record_trip(&ExecError::MemoryBudgetExceeded { budget_rows: 1 });
        g.record_trip(&ExecError::FetchBudgetExceeded { budget_tuples: 1 });
        g.record_trip(&ExecError::FetchBudgetExceeded { budget_tuples: 2 });
        let stats = metrics.stats();
        assert_eq!(stats.cancellations, 1);
        assert_eq!(stats.deadline_trips, 1);
        assert_eq!(stats.memory_trips, 1);
        assert_eq!(stats.fetch_trips, 2);
    }

    #[test]
    fn panic_message_extracts_both_payload_shapes() {
        let caught = std::panic::catch_unwind(|| panic!("static str")).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "static str");
        let caught = std::panic::catch_unwind(|| panic!("formatted {}", 7)).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "formatted 7");
    }

    #[test]
    fn guard_is_sync_and_token_is_send() {
        fn assert_sync<T: Sync>() {}
        fn assert_send<T: Send>() {}
        assert_sync::<Guard>();
        assert_send::<CancellationToken>();
        assert_sync::<GuardMetrics>();
    }
}
