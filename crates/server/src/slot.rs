//! One-shot completion slots: how a flush — on the worker pool or on a
//! sync caller's thread — hands a response to whoever is waiting for it.
//!
//! A [`Slot`] is a single-producer/single-consumer rendezvous for one value.
//! The producer side ([`Promise`]) is held by the server's batch flushers;
//! the consumer side ([`Pending`]) is what a caller gets back from
//! [`crate::Server::submit`] and friends, and it is *dual-entry*: it is a
//! [`Future`] (for async callers, with a parked [`Waker`] stored in the
//! slot) and it has a blocking [`Pending::wait`] (for sync callers, parked
//! on a condvar).  Both entries observe the same fulfilment.
//!
//! Dropping a [`Promise`] unfulfilled — only reachable through a serving
//! bug or a teardown race — *abandons* the slot, which the consumer
//! observes as [`ServerError::Internal`] rather than a hang: the
//! never-drop-a-request contract is enforced structurally here, not by
//! convention in every flusher.

use crate::error::{ServerError, ServerResult};
use crate::lock;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::task::{Context, Poll, Waker};

enum State<T> {
    /// Not fulfilled yet; holds the waker of the last async poller.
    Waiting(Option<Waker>),
    /// Fulfilled, value not yet consumed.
    Done(Option<ServerResult<T>>),
    /// The producer dropped without fulfilling.
    Abandoned,
}

struct Slot<T> {
    state: Mutex<State<T>>,
    cv: Condvar,
}

impl<T> Slot<T> {
    fn fulfil(&self, value: ServerResult<T>) {
        let mut state = lock(&self.state);
        let waker = match &mut *state {
            State::Waiting(w) => w.take(),
            // Double-fulfil is unreachable (Promise consumes itself); keep
            // the first value if it ever happens.
            _ => return,
        };
        *state = State::Done(Some(value));
        drop(state);
        self.cv.notify_all();
        if let Some(w) = waker {
            w.wake();
        }
    }

    fn abandon(&self) {
        let mut state = lock(&self.state);
        if let State::Waiting(w) = &mut *state {
            let waker = w.take();
            *state = State::Abandoned;
            drop(state);
            self.cv.notify_all();
            if let Some(w) = waker {
                w.wake();
            }
        }
    }
}

/// The producer half of a slot.  Fulfil it exactly once with
/// [`Promise::fulfil`]; dropping it unfulfilled abandons the slot (the
/// consumer gets a typed [`ServerError::Internal`], never a hang).
pub(crate) struct Promise<T> {
    slot: Arc<Slot<T>>,
}

impl<T> Promise<T> {
    pub(crate) fn fulfil(self, value: ServerResult<T>) {
        self.slot.fulfil(value);
        // `Drop` sees the slot already fulfilled and does nothing.
    }
}

impl<T> Drop for Promise<T> {
    fn drop(&mut self) {
        self.slot.abandon();
    }
}

/// The consumer half: a pending response with dual sync/async entry points.
///
/// * **Async**: `Pending<T>` is a `Future<Output = ServerResult<T>>`; poll
///   it from any executor (the waker is parked in the slot and woken on
///   fulfilment).
/// * **Sync**: [`Pending::wait`] blocks the calling thread on a condvar
///   until the response arrives.
#[must_use = "a pending response does nothing until waited on or polled"]
pub struct Pending<T> {
    slot: Arc<Slot<T>>,
}

/// Create a connected promise/pending pair.
pub(crate) fn slot<T>() -> (Promise<T>, Pending<T>) {
    let slot = Arc::new(Slot {
        state: Mutex::new(State::Waiting(None)),
        cv: Condvar::new(),
    });
    (
        Promise {
            slot: Arc::clone(&slot),
        },
        Pending { slot },
    )
}

/// A pre-fulfilled pending (used for admission-time rejections: the typed
/// error travels the same channel as a served answer).
pub(crate) fn ready<T>(value: ServerResult<T>) -> Pending<T> {
    let (promise, pending) = slot();
    promise.fulfil(value);
    pending
}

fn abandoned() -> ServerError {
    ServerError::Internal("response slot abandoned by the server".to_string())
}

impl<T> Pending<T> {
    /// Block the calling thread until the response arrives.
    pub fn wait(self) -> ServerResult<T> {
        let mut state = lock(&self.slot.state);
        loop {
            match &mut *state {
                State::Done(value) => return value.take().unwrap_or_else(|| Err(abandoned())),
                State::Abandoned => return Err(abandoned()),
                State::Waiting(_) => {
                    state = self
                        .slot
                        .cv
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }
}

impl<T> Future for Pending<T> {
    type Output = ServerResult<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut state = lock(&self.slot.state);
        match &mut *state {
            State::Done(value) => Poll::Ready(value.take().unwrap_or_else(|| Err(abandoned()))),
            State::Abandoned => Poll::Ready(Err(abandoned())),
            State::Waiting(waker) => {
                *waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::pin::pin;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::task::Wake;

    #[derive(Default)]
    struct CountingWaker(AtomicUsize);

    impl Wake for CountingWaker {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    impl CountingWaker {
        fn woken(&self) -> usize {
            self.0.load(Ordering::SeqCst)
        }
    }

    #[test]
    fn a_parked_waker_is_woken_exactly_once_on_fulfilment() {
        let (promise, pending) = slot::<u32>();
        let mut pending = pin!(pending);
        let counter = Arc::new(CountingWaker::default());
        let waker = Waker::from(Arc::clone(&counter));
        let mut cx = Context::from_waker(&waker);
        assert!(pending.as_mut().poll(&mut cx).is_pending());
        assert!(pending.as_mut().poll(&mut cx).is_pending());
        assert_eq!(counter.woken(), 0, "not before fulfilment");
        promise.fulfil(Ok(5));
        assert_eq!(counter.woken(), 1);
        assert_eq!(pending.as_mut().poll(&mut cx), Poll::Ready(Ok(5)));
        assert_eq!(counter.woken(), 1, "and never again");
    }

    #[test]
    fn a_repoll_with_another_waker_replaces_the_parked_one() {
        let (promise, pending) = slot::<u32>();
        let mut pending = pin!(pending);
        let (first, second) = (
            Arc::new(CountingWaker::default()),
            Arc::new(CountingWaker::default()),
        );
        for counter in [&first, &second] {
            let waker = Waker::from(Arc::clone(counter));
            assert!(pending
                .as_mut()
                .poll(&mut Context::from_waker(&waker))
                .is_pending());
        }
        promise.fulfil(Ok(6));
        assert_eq!((first.woken(), second.woken()), (0, 1));
    }

    #[test]
    fn an_abandoned_promise_wakes_and_resolves_to_a_typed_error() {
        let (promise, pending) = slot::<u32>();
        let mut pending = pin!(pending);
        let counter = Arc::new(CountingWaker::default());
        let waker = Waker::from(Arc::clone(&counter));
        let mut cx = Context::from_waker(&waker);
        assert!(pending.as_mut().poll(&mut cx).is_pending());
        drop(promise);
        assert_eq!(counter.woken(), 1, "a waiter is woken, not left to hang");
        match pending.as_mut().poll(&mut cx) {
            Poll::Ready(Err(ServerError::Internal(_))) => {}
            other => panic!("expected an abandoned slot, got {other:?}"),
        }
        // The blocking entry sees the same.
        let (promise, pending) = slot::<u32>();
        drop(promise);
        assert!(matches!(pending.wait(), Err(ServerError::Internal(_))));
    }
}
