//! Per-rank mailboxes with tag/source matching.

use crate::packet::Packet;
#[cfg(test)]
use crate::packet::Elem;
use crate::sync::CANCEL_TICK;
use parking_lot::{Condvar, Mutex};
use pcg_core::cancel::{self, CancelToken};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};

/// A message in flight.
#[derive(Debug)]
pub struct Envelope {
    /// Sending rank.
    pub src: usize,
    /// User or collective tag.
    pub tag: u32,
    /// Payload.
    pub packet: Packet,
    /// Virtual time at which the message is available at the receiver.
    pub available_at: f64,
}

/// One rank's incoming message queue.
pub struct Mailbox {
    queue: Mutex<VecDeque<Envelope>>,
    cv: Condvar,
    aborted: AtomicBool,
    /// The launching candidate's cancel token, captured at construction
    /// (worlds build mailboxes on the candidate thread). When set,
    /// blocked receives tick so a deadlocked rank pair can be killed.
    cancel: Option<CancelToken>,
}

impl Default for Mailbox {
    fn default() -> Mailbox {
        Mailbox::new()
    }
}

impl Mailbox {
    /// An empty mailbox.
    pub fn new() -> Mailbox {
        Mailbox {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            aborted: AtomicBool::new(false),
            cancel: cancel::current_token(),
        }
    }

    /// Deposit a message (non-blocking eager send).
    pub fn deposit(&self, env: Envelope) {
        let mut q = self.queue.lock();
        q.push_back(env);
        drop(q);
        self.cv.notify_all();
    }

    /// Block until a message matching `(src, tag)` arrives and remove it.
    /// `src = None` matches any source. `on_first_block` runs once before
    /// the first wait (the world uses it to release the compute token —
    /// it must be released here, not reacquired, because reacquiring a
    /// token while holding the queue lock would deadlock against senders
    /// that hold tokens and need the lock to deposit). The *caller*
    /// reacquires the token after this returns. Returns whether the wait
    /// blocked, or `None` if the mailbox is aborted.
    pub fn take_matching(
        &self,
        src: Option<usize>,
        tag: u32,
        on_first_block: &mut dyn FnMut(),
    ) -> Option<(Envelope, bool)> {
        let mut q = self.queue.lock();
        let mut blocked = false;
        loop {
            if let Some(t) = &self.cancel {
                t.check();
            }
            if self.aborted.load(Ordering::Acquire) {
                return None;
            }
            if let Some(pos) = q
                .iter()
                .position(|e| e.tag == tag && src.map(|s| s == e.src).unwrap_or(true))
            {
                return q.remove(pos).map(|e| (e, blocked));
            }
            if !blocked {
                on_first_block();
                blocked = true;
            }
            match &self.cancel {
                Some(_) => {
                    let _ = self.cv.wait_for(&mut q, CANCEL_TICK);
                }
                None => self.cv.wait(&mut q),
            }
        }
    }

    /// Non-blocking take: remove and return the first matching message,
    /// if any. The multiplexed path's receive primitive — a rank fiber
    /// that finds nothing parks itself with the scheduler instead of
    /// waiting on the mailbox condvar.
    pub fn try_take(&self, src: Option<usize>, tag: u32) -> Option<Envelope> {
        let mut q = self.queue.lock();
        let pos = q
            .iter()
            .position(|e| e.tag == tag && src.map(|s| s == e.src).unwrap_or(true))?;
        q.remove(pos)
    }

    /// Whether [`Mailbox::abort`] has been called.
    pub fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }

    /// Non-blocking probe: does a matching message exist?
    pub fn probe(&self, src: Option<usize>, tag: u32) -> bool {
        let q = self.queue.lock();
        q.iter().any(|e| e.tag == tag && src.map(|s| s == e.src).unwrap_or(true))
    }

    /// Abort: wake all blocked receivers; they observe `None`.
    pub fn abort(&self) {
        self.aborted.store(true, Ordering::Release);
        let _q = self.queue.lock();
        self.cv.notify_all();
    }

    /// Number of queued messages.
    #[cfg(test)]
    fn pending(&self) -> usize {
        self.queue.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(src: usize, tag: u32) -> Envelope {
        Envelope { src, tag, packet: i64::wrap(vec![src as i64]), available_at: 0.0 }
    }

    #[test]
    fn matches_tag_and_source() {
        let mb = Mailbox::new();
        mb.deposit(env(1, 7));
        mb.deposit(env(2, 7));
        mb.deposit(env(1, 9));
        let (got, _) = mb.take_matching(Some(2), 7, &mut || {}).unwrap();
        assert_eq!(got.src, 2);
        let (got, _) = mb.take_matching(None, 9, &mut || {}).unwrap();
        assert_eq!((got.src, got.tag), (1, 9));
        assert_eq!(mb.pending(), 1);
    }

    #[test]
    fn fifo_within_match() {
        let mb = Mailbox::new();
        mb.deposit(Envelope { src: 1, tag: 5, packet: i64::wrap(vec![10]), available_at: 0.0 });
        mb.deposit(Envelope { src: 1, tag: 5, packet: i64::wrap(vec![20]), available_at: 0.0 });
        let (a, _) = mb.take_matching(Some(1), 5, &mut || {}).unwrap();
        assert_eq!(a.packet, i64::wrap(vec![10]));
    }

    #[test]
    fn blocking_receive_wakes_on_deposit() {
        let mb = Mailbox::new();
        std::thread::scope(|s| {
            let h = s.spawn(|| mb.take_matching(Some(3), 1, &mut || {}));
            std::thread::sleep(std::time::Duration::from_millis(10));
            mb.deposit(env(3, 1));
            let (got, blocked) = h.join().unwrap().unwrap();
            assert_eq!(got.src, 3);
            assert!(blocked);
        });
    }

    #[test]
    fn abort_unblocks() {
        let mb = Mailbox::new();
        std::thread::scope(|s| {
            let h = s.spawn(|| mb.take_matching(None, 42, &mut || {}));
            std::thread::sleep(std::time::Duration::from_millis(10));
            mb.abort();
            assert!(h.join().unwrap().is_none());
        });
    }

    #[test]
    fn probe_does_not_consume() {
        let mb = Mailbox::new();
        mb.deposit(env(0, 1));
        assert!(mb.probe(Some(0), 1));
        assert!(mb.probe(None, 1));
        assert!(!mb.probe(None, 2));
        assert_eq!(mb.pending(), 1);
    }
}
