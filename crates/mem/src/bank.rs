//! One memory module with its memory-network interface.
//!
//! # Fault hooks
//!
//! The §4.1 degradation story needs three things from a module: it can
//! *die* (fail-stop: contents and in-flight work lost, translation
//! re-hashes around it), it can *slow down* (service-time multiplier),
//! and — when the machine runs a retry protocol — it keeps a **dedup
//! cache** so a retried request whose original was already applied is
//! never applied twice. The cache is keyed by every sequence number folded
//! into a combined request, so even a retry of a constituent that was
//! absorbed by combining is recognized. A duplicate is answered from the
//! cache when the module knows that constituent's exact reply value (it
//! was applied alone, or was the combined amalgam's survivor) and is
//! silently swallowed otherwise — safe, because replies are never lost in
//! the fault model, so the original decombined reply is still en route.

use std::collections::VecDeque;

use ultra_net::message::{Message, MsgId, MsgKind, Reply};
use ultra_sim::heap::{deque_bytes, map_bytes};
use ultra_sim::{Counter, Cycle, IdMap, MmId, Value};

/// Instrumentation for one memory bank.
#[derive(Debug, Clone, Default)]
pub struct MemStats {
    /// Requests fully served.
    pub served: Counter,
    /// Loads served.
    pub loads: Counter,
    /// Stores served.
    pub stores: Counter,
    /// Fetch-and-phi operations served.
    pub fetch_phis: Counter,
    /// Largest request-queue depth observed — the §3.1.4 "potential serial
    /// bottleneck" indicator.
    pub max_queue_depth: usize,
    /// Cycles during which the module was actively serving a request.
    pub busy_cycles: Counter,
    /// Duplicate (retried) requests answered from the dedup cache.
    pub dedup_hits: Counter,
    /// Duplicate requests swallowed without a reply (original reply still
    /// en route through a combining tree).
    pub dedup_swallowed: Counter,
    /// Requests discarded because the module was dead.
    pub dead_discards: Counter,
}

/// A memory module plus its MNI: FIFO request queue, fixed service time,
/// fetch-and-phi ALU, and a reply outbox.
///
/// All words read as zero until written — convenient for the shared
/// counters and queue bounds of the paper's algorithms, which all start at
/// zero.
#[derive(Debug, Clone)]
pub struct MemBank {
    mm: MmId,
    words: IdMap<usize, Value>,
    queue: VecDeque<Message>,
    /// The request in service and the cycle it completes.
    in_service: Option<(Cycle, Message)>,
    outbox: VecDeque<Reply>,
    service_time: Cycle,
    stats: MemStats,
    dead: bool,
    /// Retry dedup cache (None = disabled, the fault-free default — no
    /// per-request bookkeeping at all). `Some(value)` = that sequence
    /// number was applied and observed `value`; `None` = it was applied
    /// as an absorbed constituent of a combined request, whose exact
    /// observed value only the combining tree knows.
    seen: Option<IdMap<MsgId, Option<Value>>>,
}

impl MemBank {
    /// Creates an empty module `mm` that serves one request every
    /// `service_time` cycles (§4.2 uses two network cycles).
    ///
    /// # Panics
    ///
    /// Panics if `service_time` is zero.
    #[must_use]
    pub fn new(mm: MmId, service_time: Cycle) -> Self {
        assert!(service_time >= 1, "service time must be at least one cycle");
        Self {
            mm,
            words: IdMap::default(),
            queue: VecDeque::new(),
            in_service: None,
            outbox: VecDeque::new(),
            service_time,
            stats: MemStats::default(),
            dead: false,
            seen: None,
        }
    }

    /// Heap bytes this bank owns: its touched words, queues and dedup
    /// cache.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        map_bytes(&self.words)
            + deque_bytes(&self.queue)
            + deque_bytes(&self.outbox)
            + self.seen.as_ref().map_or(0, map_bytes)
    }

    /// This module's id.
    #[must_use]
    pub fn mm(&self) -> MmId {
        self.mm
    }

    /// Enables the exactly-once dedup cache (required when the machine
    /// runs the PNI retry protocol; off by default so fault-free runs do
    /// no extra bookkeeping).
    pub fn enable_dedup(&mut self) {
        if self.seen.is_none() {
            self.seen = Some(IdMap::default());
        }
    }

    /// Fail-stops this module: contents, queued work, and undelivered
    /// replies are all lost, and every future request is discarded
    /// unserved (its PE recovers via retry against the re-hashed
    /// translation).
    pub fn kill(&mut self) {
        self.dead = true;
        let discarded =
            self.queue.len() + usize::from(self.in_service.is_some()) + self.outbox.len();
        self.stats.dead_discards.add(discarded as u64);
        self.queue.clear();
        self.in_service = None;
        self.outbox.clear();
        self.words.clear();
        if let Some(seen) = &mut self.seen {
            seen.clear();
        }
    }

    /// Degrades (or restores) the per-request service time — the slow-MM
    /// fault. Takes effect from the next request to enter service.
    ///
    /// # Panics
    ///
    /// Panics if `service_time` is zero.
    pub fn set_service_time(&mut self, service_time: Cycle) {
        assert!(service_time >= 1, "service time must be at least one cycle");
        self.service_time = service_time;
    }

    /// The current per-request service time.
    #[must_use]
    pub fn service_time(&self) -> Cycle {
        self.service_time
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Directly reads a word (test setup / result extraction; not timed).
    #[must_use]
    pub fn peek(&self, offset: usize) -> Value {
        self.words.get(&offset).copied().unwrap_or(0)
    }

    /// Directly writes a word (initialization; not timed).
    pub fn poke(&mut self, offset: usize, value: Value) {
        self.words.insert(offset, value);
    }

    /// Accepts a request delivered by the network. Returns `false` when
    /// the module is dead and discards it.
    ///
    /// # Panics
    ///
    /// Panics if the request is addressed to a different module.
    pub fn push_request(&mut self, msg: Message) -> bool {
        assert_eq!(msg.addr.mm, self.mm, "request delivered to wrong module");
        if self.dead {
            // Discarded before application: the issuing PE's retry (after
            // translation re-hashes around this module) is the request's
            // first and only application.
            self.stats.dead_discards.incr();
            return false;
        }
        self.queue.push_back(msg);
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.queue.len());
        true
    }

    /// The requests this module holds, queued or in service.
    pub fn requests(&self) -> impl Iterator<Item = &Message> {
        self.queue
            .iter()
            .chain(self.in_service.as_ref().map(|(_, m)| m))
    }

    /// The `(id, attempt)` of every request this module holds: queued, in
    /// service, or answered by a reply not yet sent back.
    pub fn in_flight(&self) -> impl Iterator<Item = (MsgId, u32)> + '_ {
        let requests = self.requests().map(|m| (m.id, m.attempt));
        requests.chain(self.outbox.iter().map(|r| (r.id, r.attempt)))
    }

    /// Requests waiting (not counting the one in service).
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Whether any work (queued, in service, or undelivered replies)
    /// remains.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.in_service.is_none() && self.outbox.is_empty()
    }

    /// Advances one cycle: starts service if idle, and completes the
    /// in-flight request when its time is up, moving the reply to the
    /// outbox. Returns the `(id, attempt)` of a request the dedup cache
    /// swallowed without a reply, the one way a served request gets none.
    pub fn cycle(&mut self, now: Cycle) -> Option<(MsgId, u32)> {
        if self.in_service.is_none() {
            if let Some(msg) = self.queue.pop_front() {
                self.in_service = Some((now + self.service_time, msg));
            }
        }
        if self.in_service.is_some() {
            self.stats.busy_cycles.incr();
        }
        if let Some((done_at, _)) = self.in_service {
            if now + 1 >= done_at {
                let (_, msg) = self.in_service.take().expect("checked");
                let replies = self.outbox.len();
                self.serve(&msg);
                if self.outbox.len() == replies {
                    return Some((msg.id, msg.attempt));
                }
            }
        }
        None
    }

    /// Serves one request at completion time: consults the dedup cache
    /// (when enabled), applies the request at most once, and enqueues the
    /// reply owed (if any).
    fn serve(&mut self, msg: &Message) {
        if let Some(seen) = &self.seen {
            if let Some(dup) = msg.constituents().iter().find_map(|id| seen.get(id)) {
                // Some constituent of this request was already applied —
                // never apply again. Retries carry exactly one folded id,
                // so a cached exact value answers the duplicate directly;
                // a `None` marker means the value only exists in the
                // combining tree's decombined reply, which is still en
                // route (replies are never lost), so stay silent.
                match *dup {
                    Some(value) => {
                        self.stats.dedup_hits.incr();
                        self.outbox.push_back(Reply::to_request(msg, value));
                    }
                    None => self.stats.dedup_swallowed.incr(),
                }
                return;
            }
        }
        let value = self.apply(msg);
        if let Some(seen) = &mut self.seen {
            // The survivor id's observed value is exactly `value`; the
            // absorbed constituents' values live in the wait buffers.
            for &id in msg.constituents() {
                seen.insert(id, if id == msg.id { Some(value) } else { None });
            }
        }
        self.outbox.push_back(Reply::to_request(msg, value));
    }

    /// The MNI ALU: applies one request to the memory array and returns the
    /// reply value (the old value for loads and fetch-and-phis; zero for
    /// store acknowledgements).
    pub fn apply(&mut self, msg: &Message) -> Value {
        self.stats.served.incr();
        let slot = self.words.entry(msg.addr.offset).or_insert(0);
        match msg.kind {
            MsgKind::Load => {
                self.stats.loads.incr();
                *slot
            }
            MsgKind::Store => {
                self.stats.stores.incr();
                *slot = msg.value;
                0
            }
            MsgKind::FetchPhi(op) => {
                self.stats.fetch_phis.incr();
                let old = *slot;
                *slot = op.apply(old, msg.value);
                old
            }
        }
    }

    /// The oldest undelivered reply, if any.
    #[must_use]
    pub fn peek_reply(&self) -> Option<&Reply> {
        self.outbox.front()
    }

    /// Removes and returns the oldest undelivered reply.
    pub fn pop_reply(&mut self) -> Option<Reply> {
        self.outbox.pop_front()
    }

    /// Puts back, at the head of the outbox, a reply the network refused
    /// this cycle — the counterpart of [`MemBank::pop_reply`] for callers
    /// that offer replies by value.
    pub fn return_reply(&mut self, reply: Reply) {
        self.outbox.push_front(reply);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultra_net::message::{MsgId, PhiOp, ReplyKind};
    use ultra_sim::{MemAddr, PeId};

    fn req(id: u64, kind: MsgKind, offset: usize, value: Value) -> Message {
        Message::request(
            MsgId(id),
            kind,
            MemAddr::new(MmId(0), offset),
            value,
            PeId(1),
            0,
        )
    }

    #[test]
    fn unwritten_words_read_zero() {
        let bank = MemBank::new(MmId(0), 1);
        assert_eq!(bank.peek(12345), 0);
    }

    #[test]
    fn service_takes_configured_time() {
        let mut bank = MemBank::new(MmId(0), 3);
        bank.push_request(req(1, MsgKind::Load, 0, 0));
        bank.cycle(0); // starts service, completes at cycle 3
        assert!(bank.pop_reply().is_none());
        bank.cycle(1);
        assert!(bank.pop_reply().is_none());
        bank.cycle(2); // now + 1 == done_at
        assert!(bank.pop_reply().is_some());
    }

    #[test]
    fn single_cycle_service() {
        let mut bank = MemBank::new(MmId(0), 1);
        bank.push_request(req(1, MsgKind::Load, 0, 0));
        bank.cycle(0);
        assert!(
            bank.pop_reply().is_some(),
            "1-cycle service completes immediately"
        );
    }

    #[test]
    fn load_store_roundtrip() {
        let mut bank = MemBank::new(MmId(0), 1);
        bank.push_request(req(1, MsgKind::Store, 7, 55));
        bank.push_request(req(2, MsgKind::Load, 7, 0));
        bank.cycle(0);
        bank.cycle(1);
        let ack = bank.pop_reply().unwrap();
        assert_eq!(ack.kind, ReplyKind::Ack);
        let loaded = bank.pop_reply().unwrap();
        assert_eq!(loaded.kind, ReplyKind::Value);
        assert_eq!(loaded.value, 55);
    }

    #[test]
    fn fifo_service_order() {
        let mut bank = MemBank::new(MmId(0), 1);
        for i in 0..5 {
            bank.push_request(req(i, MsgKind::Store, 0, i as Value));
        }
        for now in 0..5 {
            bank.cycle(now);
        }
        assert_eq!(bank.peek(0), 4, "last store wins under FIFO");
        assert_eq!(bank.stats().served.get(), 5);
        assert_eq!(bank.stats().max_queue_depth, 5);
    }

    #[test]
    fn fetch_phi_ops_apply() {
        let mut bank = MemBank::new(MmId(0), 1);
        bank.poke(3, 0b1100);
        let old = bank.apply(&req(1, MsgKind::FetchPhi(PhiOp::And), 3, 0b1010));
        assert_eq!(old, 0b1100);
        assert_eq!(bank.peek(3), 0b1000);
        let old = bank.apply(&req(2, MsgKind::FetchPhi(PhiOp::Second), 3, 99));
        assert_eq!(old, 0b1000, "swap returns old");
        assert_eq!(bank.peek(3), 99);
    }

    #[test]
    #[should_panic(expected = "wrong module")]
    fn rejects_misrouted_request() {
        let mut bank = MemBank::new(MmId(1), 1);
        bank.push_request(req(1, MsgKind::Load, 0, 0));
    }

    #[test]
    fn killed_module_discards_everything() {
        let mut bank = MemBank::new(MmId(0), 2);
        bank.poke(3, 42);
        bank.push_request(req(1, MsgKind::Load, 0, 0));
        bank.cycle(0);
        bank.kill();
        assert!(bank.is_idle(), "all in-flight work discarded");
        assert_eq!(bank.peek(3), 0, "contents lost");
        assert!(!bank.push_request(req(2, MsgKind::Store, 0, 9)));
        assert!(bank.is_idle(), "dead module accepts nothing");
        for now in 0..10 {
            bank.cycle(now);
        }
        assert!(bank.pop_reply().is_none());
        assert_eq!(bank.stats().dead_discards.get(), 2);
    }

    #[test]
    fn slow_module_takes_longer_per_request() {
        let mut bank = MemBank::new(MmId(0), 1);
        bank.set_service_time(4);
        assert_eq!(bank.service_time(), 4);
        bank.push_request(req(1, MsgKind::Load, 0, 0));
        for now in 0..3 {
            bank.cycle(now);
            assert!(bank.peek_reply().is_none(), "still serving at {now}");
        }
        bank.cycle(3);
        assert!(bank.pop_reply().is_some());
    }

    #[test]
    fn dedup_answers_duplicate_without_reapplying() {
        let mut bank = MemBank::new(MmId(0), 1);
        bank.enable_dedup();
        bank.push_request(req(7, MsgKind::FetchPhi(PhiOp::Add), 0, 5));
        bank.cycle(0);
        assert_eq!(bank.pop_reply().unwrap().value, 0);
        assert_eq!(bank.peek(0), 5);
        // A (spurious) retry of the same sequence number arrives later.
        let mut dup = req(7, MsgKind::FetchPhi(PhiOp::Add), 0, 5);
        dup = dup.as_retry(1, 10);
        bank.push_request(dup);
        bank.cycle(10);
        let r = bank.pop_reply().unwrap();
        assert_eq!(r.value, 0, "duplicate observes the original's value");
        assert_eq!(r.attempt, 1, "reply tagged with the retry attempt");
        assert_eq!(bank.peek(0), 5, "applied exactly once");
        assert_eq!(bank.stats().dedup_hits.get(), 1);
    }

    #[test]
    fn dedup_swallows_retry_of_absorbed_constituent() {
        let mut bank = MemBank::new(MmId(0), 1);
        bank.enable_dedup();
        // A combined amalgam: survivor id 1 folding ids 1 and 2.
        let mut amalgam = req(1, MsgKind::FetchPhi(PhiOp::Add), 0, 8);
        amalgam.folded = Some(Box::new(vec![MsgId(1), MsgId(2)]));
        bank.push_request(amalgam);
        bank.cycle(0);
        assert_eq!(bank.pop_reply().unwrap().value, 0);
        assert_eq!(bank.peek(0), 8);
        // Retry of the absorbed constituent 2: its exact value lives in
        // the combining tree, so the module must not invent one.
        let dup = req(2, MsgKind::FetchPhi(PhiOp::Add), 0, 3).as_retry(1, 10);
        bank.push_request(dup);
        assert_eq!(
            bank.cycle(10),
            Some((MsgId(2), 1)),
            "names what it swallowed"
        );
        assert!(bank.pop_reply().is_none(), "swallowed, not re-applied");
        assert_eq!(bank.peek(0), 8, "applied exactly once");
        assert_eq!(bank.stats().dedup_swallowed.get(), 1);
        // Retry of the survivor id 1 is answered from the cache.
        let dup = req(1, MsgKind::FetchPhi(PhiOp::Add), 0, 8).as_retry(1, 20);
        bank.push_request(dup);
        bank.cycle(20);
        assert_eq!(bank.pop_reply().unwrap().value, 0);
        assert_eq!(bank.peek(0), 8);
    }

    #[test]
    fn idle_tracking() {
        let mut bank = MemBank::new(MmId(0), 2);
        assert!(bank.is_idle());
        bank.push_request(req(1, MsgKind::Load, 0, 0));
        assert!(!bank.is_idle());
        bank.cycle(0);
        bank.cycle(1);
        assert!(!bank.is_idle(), "reply still in outbox");
        let _ = bank.pop_reply();
        assert!(bank.is_idle());
        assert_eq!(bank.stats().busy_cycles.get(), 2);
    }
}
