//! Bounded per-session outbound queues — the backpressure layer.
//!
//! Every debug session owns one [`OutboundQueue`]/[`OutboundReceiver`]
//! pair. The service thread pushes replies and event broadcasts into
//! the queue; the session's transport (TCP writer thread or
//! in-process [`crate::ServiceTransport`]) drains it in order.
//!
//! # Why bounded
//!
//! PR 3 used unbounded channels: one slow viewer (a stalled IDE, a
//! half-dead socket) accumulating stop broadcasts would grow server
//! memory without limit. This queue bounds the *event* backlog at a
//! fixed capacity with a **drop-oldest** policy:
//!
//! * [`OutboundQueue::push_reply`] never drops. A reply answers a
//!   request the client is blocked on; losing it would hang the
//!   client. Replies are naturally request-paced, so they cannot grow
//!   the queue unboundedly on their own.
//! * [`OutboundQueue::push_event`] enforces the capacity: when the
//!   queue is full, the *oldest queued event* is discarded to make
//!   room (newest data wins — a viewer that lags wants the most recent
//!   stop, not a stale one) and a missed counter is incremented.
//! * The next [`OutboundReceiver::recv`] after any drop first yields a
//!   synthesized [`Outbound::Lagged`] message carrying the number of
//!   dropped events, so a lagging consumer *knows* its view has gaps
//!   (the same contract as `tokio::sync::broadcast`'s `Lagged` error).
//!
//! The regression test in `tests/session_state.rs` drives a stalled
//! consumer past capacity and asserts the backlog stays bounded and
//! the `Lagged` notification arrives.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::protocol::{
    encode_lagged_event, encode_response_line, encode_stop_broadcast, Response, SessionId,
};
use crate::runtime::StopEvent;

/// Default event capacity for a session's outbound queue. Generous for
/// interactive debuggers (a stop event is a few hundred bytes), small
/// enough that a thousand stalled viewers cost megabytes, not
/// gigabytes.
pub const DEFAULT_OUTBOUND_CAPACITY: usize = 1024;

/// Hard ceiling on queued *replies*, as a multiple of the event
/// capacity. Replies are never dropped — but they are request-paced,
/// so the only way to accumulate this many unread replies is a peer
/// that pipelines requests without ever reading its connection. Such
/// a peer is broken (or hostile); once it crosses the ceiling the
/// queue poisons itself, pushes fail, and the service tears the
/// session down instead of growing memory without limit.
const REPLY_LIMIT_FACTOR: usize = 16;

/// One message for a session's outbound stream, in delivery order.
#[derive(Debug, Clone)]
pub enum Outbound {
    /// Reply to one request. `last` marks the session's final reply
    /// (the request detached): the writer should flush it and close.
    Reply {
        /// Echo of the request's `seq`, if it carried one.
        seq: Option<u64>,
        /// The response payload.
        response: Response,
        /// Whether this reply ends the session.
        last: bool,
    },
    /// A session's breakpoints or watchpoints stopped the simulation.
    Stopped {
        /// The session whose request caused the stop.
        origin: SessionId,
        /// The stop event, identical to the origin's reply payload.
        event: StopEvent,
    },
    /// This session consumed its outbound queue too slowly and
    /// `missed` event broadcasts were dropped (replies are never
    /// dropped). Synthesized by the queue itself, not the service.
    Lagged {
        /// How many events were discarded since the last delivery.
        missed: u64,
    },
}

impl Outbound {
    /// Encodes this message as its wire line for `session`. Returns
    /// `(line, last)`: whether the line ends the session. The one
    /// place outbound framing lives — the TCP writer and the
    /// in-process transport both call it.
    pub fn to_line(&self, session: SessionId) -> (String, bool) {
        match self {
            Outbound::Reply {
                seq,
                response,
                last,
            } => (
                encode_response_line(response, *seq, session).to_string(),
                *last,
            ),
            Outbound::Stopped { origin, event } => {
                (encode_stop_broadcast(*origin, event).to_string(), false)
            }
            Outbound::Lagged { missed } => (encode_lagged_event(*missed).to_string(), false),
        }
    }

    /// Whether this message is a droppable event broadcast (as opposed
    /// to a reply, which the backpressure policy never discards).
    fn is_event(&self) -> bool {
        !matches!(self, Outbound::Reply { .. })
    }
}

#[derive(Debug)]
struct QueueState {
    queue: VecDeque<Outbound>,
    /// Events dropped since the last delivery; surfaced as one
    /// [`Outbound::Lagged`] on the next receive.
    missed: u64,
    sender_gone: bool,
    receiver_gone: bool,
    /// Set when the reply backlog crossed the hard ceiling: every
    /// subsequent push fails so the service disconnects the session.
    /// Already-queued messages still drain.
    poisoned: bool,
}

#[derive(Debug)]
struct Shared {
    capacity: usize,
    state: Mutex<QueueState>,
    ready: Condvar,
}

/// Producer half of a session's outbound queue (held by the service).
#[derive(Debug)]
pub struct OutboundQueue {
    shared: Arc<Shared>,
}

/// Consumer half of a session's outbound queue (held by the session's
/// transport).
#[derive(Debug)]
pub struct OutboundReceiver {
    shared: Arc<Shared>,
}

/// Creates a session outbound queue bounding the event backlog at
/// `capacity` messages (clamped to at least 1).
pub fn outbound_queue(capacity: usize) -> (OutboundQueue, OutboundReceiver) {
    let shared = Arc::new(Shared {
        capacity: capacity.max(1),
        state: Mutex::new(QueueState {
            queue: VecDeque::new(),
            missed: 0,
            sender_gone: false,
            receiver_gone: false,
            poisoned: false,
        }),
        ready: Condvar::new(),
    });
    (
        OutboundQueue {
            shared: Arc::clone(&shared),
        },
        OutboundReceiver { shared },
    )
}

/// Error returned by pushes once the receiving transport is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disconnected;

impl std::fmt::Display for Disconnected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad("outbound receiver disconnected")
    }
}

impl std::error::Error for Disconnected {}

/// Why [`OutboundReceiver::recv_timeout`] returned without a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// Nothing arrived within the timeout; the producer is still live.
    Timeout,
    /// The producer is gone and the queue is fully drained.
    Disconnected,
}

impl std::fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvTimeoutError::Timeout => f.pad("timed out waiting for outbound message"),
            RecvTimeoutError::Disconnected => f.pad("outbound sender disconnected"),
        }
    }
}

impl std::error::Error for RecvTimeoutError {}

impl OutboundQueue {
    /// Enqueues a reply. Replies are never dropped: they answer a
    /// request the client is waiting on, and their volume is bounded
    /// by the client's own request rate. A peer that defeats that
    /// pacing — pipelining requests without ever reading — hits a hard
    /// ceiling (`REPLY_LIMIT_FACTOR` = 16 × the event capacity), after
    /// which the queue poisons itself and every push fails; the
    /// service treats that as a disconnect and tears the session down
    /// rather than growing memory without limit.
    ///
    /// # Errors
    ///
    /// [`Disconnected`] when the receiver has been dropped or the
    /// reply ceiling was crossed.
    pub fn push_reply(&self, out: Outbound) -> Result<(), Disconnected> {
        let mut state = self.shared.state.lock().unwrap();
        if state.receiver_gone || state.poisoned {
            return Err(Disconnected);
        }
        if state.queue.len() >= self.shared.capacity * REPLY_LIMIT_FACTOR {
            state.poisoned = true;
            return Err(Disconnected);
        }
        state.queue.push_back(out);
        drop(state);
        self.shared.ready.notify_one();
        Ok(())
    }

    /// Enqueues an event broadcast, enforcing the capacity: when the
    /// queue is full the oldest queued *event* is discarded (replies
    /// are skipped over) and the missed counter is incremented, to be
    /// surfaced as [`Outbound::Lagged`] on the receiver's next
    /// [`OutboundReceiver::recv`].
    ///
    /// # Errors
    ///
    /// [`Disconnected`] when the receiver has been dropped.
    pub fn push_event(&self, out: Outbound) -> Result<(), Disconnected> {
        let mut state = self.shared.state.lock().unwrap();
        if state.receiver_gone || state.poisoned {
            return Err(Disconnected);
        }
        if state.queue.len() >= self.shared.capacity {
            if let Some(oldest) = state.queue.iter().position(Outbound::is_event) {
                state.queue.remove(oldest);
                state.missed += 1;
            }
            // All queued messages are replies: nothing is droppable,
            // so the queue grows by one. Replies drain at the client's
            // own request pace, so this cannot run away.
        }
        state.queue.push_back(out);
        drop(state);
        self.shared.ready.notify_one();
        Ok(())
    }
}

impl Drop for OutboundQueue {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().unwrap();
        state.sender_gone = true;
        drop(state);
        self.shared.ready.notify_all();
    }
}

impl OutboundReceiver {
    /// Blocks until the next message. After any events were dropped,
    /// the first message delivered is a synthesized
    /// [`Outbound::Lagged`] carrying the drop count. Returns `None`
    /// once the producer is gone and the queue is drained.
    pub fn recv(&self) -> Option<Outbound> {
        let mut state = self.shared.state.lock().unwrap();
        loop {
            if state.missed > 0 {
                let missed = state.missed;
                state.missed = 0;
                return Some(Outbound::Lagged { missed });
            }
            if let Some(out) = state.queue.pop_front() {
                return Some(out);
            }
            if state.sender_gone {
                return None;
            }
            state = self.shared.ready.wait(state).unwrap();
        }
    }

    /// Like [`OutboundReceiver::recv`], but gives up after `timeout`.
    /// Distinguishes a queue that is merely quiet
    /// ([`RecvTimeoutError::Timeout`] — the producer may still speak)
    /// from one that is closed and drained
    /// ([`RecvTimeoutError::Disconnected`]).
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError`] as above; any delivered message is `Ok`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Outbound, RecvTimeoutError> {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.shared.state.lock().unwrap();
        loop {
            if state.missed > 0 {
                let missed = state.missed;
                state.missed = 0;
                return Ok(Outbound::Lagged { missed });
            }
            if let Some(out) = state.queue.pop_front() {
                return Ok(out);
            }
            if state.sender_gone {
                return Err(RecvTimeoutError::Disconnected);
            }
            let Some(remaining) = deadline.checked_duration_since(std::time::Instant::now()) else {
                return Err(RecvTimeoutError::Timeout);
            };
            let (guard, result) = self.shared.ready.wait_timeout(state, remaining).unwrap();
            state = guard;
            if result.timed_out() && state.queue.is_empty() && state.missed == 0 {
                return if state.sender_gone {
                    Err(RecvTimeoutError::Disconnected)
                } else {
                    Err(RecvTimeoutError::Timeout)
                };
            }
        }
    }

    /// Pops the next message without blocking (`None` when the queue
    /// is currently empty *or* closed — use [`OutboundReceiver::recv`]
    /// to distinguish).
    pub fn try_recv(&self) -> Option<Outbound> {
        let mut state = self.shared.state.lock().unwrap();
        if state.missed > 0 {
            let missed = state.missed;
            state.missed = 0;
            return Some(Outbound::Lagged { missed });
        }
        state.queue.pop_front()
    }
}

impl Drop for OutboundReceiver {
    fn drop(&mut self) {
        self.shared.state.lock().unwrap().receiver_gone = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(seq: u64) -> Outbound {
        Outbound::Reply {
            seq: Some(seq),
            response: Response::Ok,
            last: false,
        }
    }

    fn event(time: u64) -> Outbound {
        Outbound::Stopped {
            origin: 1,
            event: StopEvent {
                time,
                filename: "x.rs".into(),
                line: 1,
                col: 1,
                hits: Vec::new(),
                sessions: vec![1],
                watch_hits: Vec::new(),
                reason: crate::runtime::StopKind::Breakpoint,
            },
        }
    }

    fn event_time(out: &Outbound) -> u64 {
        match out {
            Outbound::Stopped { event, .. } => event.time,
            other => panic!("expected event, got {other:?}"),
        }
    }

    #[test]
    fn delivers_in_order_under_capacity() {
        let (tx, rx) = outbound_queue(8);
        tx.push_reply(reply(1)).unwrap();
        tx.push_event(event(2)).unwrap();
        assert!(matches!(rx.recv(), Some(Outbound::Reply { .. })));
        assert_eq!(event_time(&rx.recv().unwrap()), 2);
        drop(tx);
        assert!(rx.recv().is_none(), "closed after producer drop + drain");
    }

    #[test]
    fn drops_oldest_event_and_reports_lagged() {
        let (tx, rx) = outbound_queue(3);
        for t in 0..10 {
            tx.push_event(event(t)).unwrap();
        }
        // 7 dropped; the lag notice comes first, then the 3 newest.
        match rx.recv().unwrap() {
            Outbound::Lagged { missed } => assert_eq!(missed, 7),
            other => panic!("expected lagged, got {other:?}"),
        }
        for t in 7..10 {
            assert_eq!(event_time(&rx.recv().unwrap()), t);
        }
        assert!(rx.try_recv().is_none());
    }

    #[test]
    fn replies_are_never_dropped() {
        let (tx, rx) = outbound_queue(2);
        tx.push_reply(reply(1)).unwrap();
        tx.push_reply(reply(2)).unwrap();
        tx.push_reply(reply(3)).unwrap();
        // Queue holds 3 replies (over capacity); an event push must
        // not evict any of them.
        tx.push_event(event(9)).unwrap();
        for want in 1..=3u64 {
            match rx.recv().unwrap() {
                Outbound::Reply { seq, .. } => assert_eq!(seq, Some(want)),
                other => panic!("expected reply, got {other:?}"),
            }
        }
        assert_eq!(event_time(&rx.recv().unwrap()), 9);
    }

    #[test]
    fn reply_flood_poisons_instead_of_growing() {
        // capacity 1 → reply ceiling 16.
        let (tx, rx) = outbound_queue(1);
        for i in 0..16 {
            tx.push_reply(reply(i)).unwrap();
        }
        assert_eq!(
            tx.push_reply(reply(99)),
            Err(Disconnected),
            "a peer pipelining without reading hits the hard ceiling"
        );
        assert_eq!(tx.push_event(event(1)), Err(Disconnected));
        // What was queued before the poison still drains, in order.
        for want in 0..16u64 {
            match rx.recv().unwrap() {
                Outbound::Reply { seq, .. } => assert_eq!(seq, Some(want)),
                other => panic!("expected reply, got {other:?}"),
            }
        }
        drop(tx);
        assert!(rx.recv().is_none());
    }

    #[test]
    fn push_fails_after_receiver_drop() {
        let (tx, rx) = outbound_queue(4);
        drop(rx);
        assert_eq!(tx.push_reply(reply(1)), Err(Disconnected));
        assert_eq!(tx.push_event(event(1)), Err(Disconnected));
    }

    #[test]
    fn recv_timeout_distinguishes_quiet_from_closed() {
        let (tx, rx) = outbound_queue(4);
        assert!(matches!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        ));
        tx.push_reply(reply(1)).unwrap();
        assert!(rx.recv_timeout(Duration::from_millis(10)).is_ok());
        drop(tx);
        assert!(matches!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Disconnected)
        ));
    }

    #[test]
    fn recv_timeout_wakes_on_cross_thread_push() {
        let (tx, rx) = outbound_queue(4);
        let producer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            tx.push_event(event(1)).unwrap();
        });
        let got = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(event_time(&got), 1);
        producer.join().unwrap();
    }

    #[test]
    fn cross_thread_handoff() {
        let (tx, rx) = outbound_queue(64);
        let producer = std::thread::spawn(move || {
            for t in 0..50 {
                tx.push_event(event(t)).unwrap();
            }
        });
        let mut got = 0u64;
        while let Some(out) = rx.recv() {
            assert_eq!(event_time(&out), got);
            got += 1;
        }
        producer.join().unwrap();
        assert_eq!(got, 50);
    }
}
