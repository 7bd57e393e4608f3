//! A vendored-shim-style failpoint facility for chaos testing.
//!
//! Production code marks *injection sites* — points where the real world can
//! fail (value interning, index build, keyed index build, cache insert,
//! mutate closures) — by calling [`check`] with a site name from
//! [`sites`].  Tests compiled with the `failpoints` cargo feature activate
//! faults at those sites through a process-global registry (`inject` /
//! `inject_times` / `clear`); `tests/chaos.rs` in the umbrella crate drives
//! the full matrix under concurrent sessions.
//!
//! Without the feature (the default, and every production build) the whole
//! registry is compiled out and [`check`] is an `#[inline(always)]` `Ok(())`
//! — zero branches, zero atomics, zero cost on the serving path.
//!
//! Two fault kinds cover the failure modes the guardrails must contain:
//!
//! * [`FaultKind::Error`] — the site returns
//!   [`DataError::FaultInjected`], exercising the typed-error propagation
//!   path (all-or-nothing mutate, errors-never-cached, …);
//! * [`FaultKind::Panic`] — the site panics, exercising panic containment
//!   and lock-poison recovery (`catch_unwind` around mutate closures and
//!   server flushes, `PoisonError::into_inner` at every lock).
//!
//! Because the registry is process-global, tests that activate faults must
//! serialise themselves (the chaos suite holds one test-local mutex) and
//! should use the RAII `FaultGuard` so a failing assertion cannot leak an
//! active fault into the next test.

use crate::error::DataError;

/// The named injection sites compiled into the stack.  Site constants live
/// here (in the lowest crate) so `bqr-plan` and `bqr-engine` can mark their
/// sites without owning registry machinery.
pub mod sites {
    /// [`crate::IndexedDatabase::build`] — rebuilding access indexes while
    /// attaching or mutating an instance.
    pub const INDEX_BUILD: &str = "data.index.build";
    /// [`crate::ValueId::try_intern`] — minting the id of a value the pool
    /// has never seen, checked only then: an injected `Error` fails the
    /// write (or the read binding a constant) that would have grown the
    /// pool, the way a full pool does, while work over known values passes.
    pub const VALUE_INTERN: &str = "data.value.intern";
    /// [`crate::Relation::keyed_index`] and [`crate::IndexedDatabase`] —
    /// building one of a relation's indexes from its rows, with its cell
    /// locked for writing.  An `Error` fails the build typed; nothing is kept.
    pub const KEYED_BUILD: &str = "data.keyed.build";
    /// [`crate::Relation::insert`] / [`crate::Relation::remove`] — carrying
    /// the relation's indexes (constraint indexes too) across a write, checked
    /// only when the written version holds one.  An `Error` degrades it to
    /// dropping them (the next request rebuilds, with identical contents —
    /// the fallback the chaos suite pins down); a `Panic` propagates before
    /// the write has changed anything and is contained by the engine's
    /// all-or-nothing mutate.
    pub const KEYED_CARRY: &str = "data.keyed.carry";
    /// `bqr-plan`'s `PipelineCache` — registering a freshly compiled
    /// pipeline, with the cache lock held.
    pub const CACHE_INSERT: &str = "plan.cache.insert";
    /// `bqr-engine`'s `Engine::mutate` — inside the panic-contained region
    /// around the user closure.
    pub const MUTATE_CLOSURE: &str = "engine.mutate.closure";
    /// `bqr-query`'s semi-naive view maintenance — applying a write delta
    /// to the materialised view extents during `Engine::mutate`.
    pub const VIEW_MAINTAIN: &str = "query.views.maintain";
    /// `bqr-server`'s admission gate — accepting a request into the serving
    /// front.  An active fault sheds the request with a typed error before
    /// any work is queued; nothing is half-admitted.
    pub const SERVER_ACCEPT: &str = "server.accept";
    /// `bqr-server`'s batch flusher — draining a coalesced read or write
    /// batch.  An active `Error` degrades the batch to serialised
    /// per-request execution (identical answers, no request dropped); a
    /// `Panic` is contained and every request in the batch gets a typed
    /// error, never a partial or duplicated answer.
    pub const BATCH_FLUSH: &str = "server.batch.flush";
}

/// What an activated fault does at its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The site returns [`DataError::FaultInjected`].
    Error,
    /// The site panics (message names the site).
    Panic,
}

/// Check the failpoint `site`.  Inactive (or feature-off): `Ok(())`.
/// Active with [`FaultKind::Error`]: `Err(DataError::FaultInjected)`.
/// Active with [`FaultKind::Panic`]: panics.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn check(_site: &str) -> Result<(), DataError> {
    Ok(())
}

/// Check the failpoint `site`.  Inactive (or feature-off): `Ok(())`.
/// Active with [`FaultKind::Error`]: `Err(DataError::FaultInjected)`.
/// Active with [`FaultKind::Panic`]: panics.
#[cfg(feature = "failpoints")]
pub fn check(site: &str) -> Result<(), DataError> {
    match registry::trigger(site) {
        None => Ok(()),
        Some(FaultKind::Error) => Err(DataError::FaultInjected(site.to_string())),
        Some(FaultKind::Panic) => panic!("failpoint `{site}`: injected panic"),
    }
}

#[cfg(feature = "failpoints")]
mod registry {
    use super::FaultKind;
    use std::collections::HashMap;
    use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

    struct Fault {
        kind: FaultKind,
        /// Remaining activations; `usize::MAX` means unlimited.
        remaining: usize,
    }

    static REGISTRY: OnceLock<Mutex<HashMap<&'static str, Fault>>> = OnceLock::new();

    fn lock() -> MutexGuard<'static, HashMap<&'static str, Fault>> {
        REGISTRY
            .get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            // The map is consistent at every await-free point; a panic kind
            // fires *after* this guard drops, so recovery is always safe.
            .unwrap_or_else(PoisonError::into_inner)
    }

    pub(super) fn trigger(site: &str) -> Option<FaultKind> {
        let mut map = lock();
        let fault = map.get_mut(site)?;
        let kind = fault.kind;
        if fault.remaining != usize::MAX {
            fault.remaining -= 1;
            if fault.remaining == 0 {
                map.remove(site);
            }
        }
        Some(kind)
    }

    pub(super) fn set(site: &'static str, kind: FaultKind, remaining: usize) {
        if remaining == 0 {
            return;
        }
        lock().insert(site, Fault { kind, remaining });
    }

    pub(super) fn unset(site: &str) {
        lock().remove(site);
    }

    pub(super) fn unset_all() {
        lock().clear();
    }

    pub(super) fn is_active(site: &str) -> bool {
        lock().contains_key(site)
    }
}

/// Activate `kind` at `site` until [`clear`]ed.
#[cfg(feature = "failpoints")]
pub fn inject(site: &'static str, kind: FaultKind) {
    registry::set(site, kind, usize::MAX);
}

/// Activate `kind` at `site` for the next `times` checks, then auto-clear.
#[cfg(feature = "failpoints")]
pub fn inject_times(site: &'static str, kind: FaultKind, times: usize) {
    registry::set(site, kind, times);
}

/// Deactivate any fault at `site`.
#[cfg(feature = "failpoints")]
pub fn clear(site: &str) {
    registry::unset(site);
}

/// Deactivate every fault.
#[cfg(feature = "failpoints")]
pub fn clear_all() {
    registry::unset_all();
}

/// Is a fault currently active at `site`?
#[cfg(feature = "failpoints")]
pub fn is_active(site: &str) -> bool {
    registry::is_active(site)
}

/// RAII activation: the fault is cleared when the guard drops, so a failing
/// assertion in a test cannot leak an active fault into the next one.
#[cfg(feature = "failpoints")]
#[must_use = "the fault is cleared when the guard drops"]
pub struct FaultGuard {
    site: &'static str,
}

#[cfg(feature = "failpoints")]
impl Drop for FaultGuard {
    fn drop(&mut self) {
        clear(self.site);
    }
}

/// [`inject`] with RAII cleanup.
#[cfg(feature = "failpoints")]
pub fn inject_guard(site: &'static str, kind: FaultKind) -> FaultGuard {
    inject(site, kind);
    FaultGuard { site }
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;
    use std::sync::{Mutex, OnceLock, PoisonError};

    /// The registry is process-global; serialise the tests touching it.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn inactive_sites_pass() {
        let _serial = serial();
        assert!(check("no.such.site").is_ok());
        assert!(!is_active(sites::INDEX_BUILD));
    }

    #[test]
    fn error_kind_returns_the_typed_error() {
        let _serial = serial();
        let _guard = inject_guard(sites::INDEX_BUILD, FaultKind::Error);
        assert!(matches!(
            check(sites::INDEX_BUILD),
            Err(DataError::FaultInjected(s)) if s == sites::INDEX_BUILD
        ));
        drop(_guard);
        assert!(check(sites::INDEX_BUILD).is_ok(), "guard cleared the fault");
    }

    #[test]
    fn counted_faults_expire() {
        let _serial = serial();
        inject_times(sites::CACHE_INSERT, FaultKind::Error, 2);
        assert!(check(sites::CACHE_INSERT).is_err());
        assert!(check(sites::CACHE_INSERT).is_err());
        assert!(check(sites::CACHE_INSERT).is_ok(), "fault expired");
        assert!(!is_active(sites::CACHE_INSERT));
    }

    #[test]
    fn panic_kind_panics_and_clears() {
        let _serial = serial();
        let _guard = inject_guard(sites::MUTATE_CLOSURE, FaultKind::Panic);
        let caught = std::panic::catch_unwind(|| check(sites::MUTATE_CLOSURE));
        assert!(caught.is_err());
        drop(_guard);
        assert!(check(sites::MUTATE_CLOSURE).is_ok());
    }
}
