//! One memory module with its memory-network interface.
//!
//! # Fault hooks
//!
//! The §4.1 degradation story needs two things from a module: it can
//! *die* (fail-stop: contents and in-flight work lost, translation
//! re-hashes around it) and it can *slow down* (service-time multiplier).
//! A dead module reports every loss it makes: it answers each request
//! that reaches it with a NACK ([`Reply::nack`]), and when it dies it turns
//! every request it holds and every reply in its outbox into one, since
//! its words are lost with it. No request is ever applied twice, so a
//! module keeps no record of what it has served.
//!
//! # Storage
//!
//! A fabric holds one module per PE, and nearly all of them are idle. The
//! per-module record, [`Bank`], therefore owns no heap of its own: the
//! words every module of a fabric holds are one map keyed by physical
//! address, and queued requests and undelivered replies are [`Ring`]s in
//! one slab each, all three in the fabric's [`BankStore`], which every
//! call that touches them takes. Copying every module of a fabric is then
//! one copy of the records and one of each store buffer. [`MemBank`] is
//! one module with a store of its own, for use outside a fabric.

use ultra_net::message::{Message, MsgKind, Reply, ReplyKind};
use ultra_sim::heap::map_bytes;
use ultra_sim::ring::{Ring, Rings};
use ultra_sim::{Counter, Cycle, IdMap, MemAddr, MmId, Value};

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
    /// Requests and replies refused with a NACK because the module was
    /// dead or died holding them.
    pub dead_discards: Counter,
}

/// The words, queued requests and undelivered replies of every [`Bank`]
/// of a fabric (see the module docs).
///
/// All words read as zero until written — convenient for the shared
/// counters and queue bounds of the paper's algorithms, which all start at
/// zero.
#[derive(Debug, Clone, Default)]
pub struct BankStore {
    words: IdMap<MemAddr, Value>,
    requests: Rings<Message>,
    replies: Rings<Reply>,
}

impl BankStore {
    /// Heap bytes of the touched words and both slabs.
    pub(crate) fn heap_bytes(&self) -> usize {
        map_bytes(&self.words) + self.requests.heap_bytes() + self.replies.heap_bytes()
    }

    /// Directly reads a word (test setup / result extraction; not timed).
    pub(crate) fn peek(&self, addr: MemAddr) -> Value {
        self.words.get(&addr).copied().unwrap_or(0)
    }

    /// Directly writes a word (initialization; not timed).
    pub(crate) fn poke(&mut self, addr: MemAddr, value: Value) {
        self.words.insert(addr, value);
    }
}

/// A memory module plus its MNI: FIFO request queue, fixed service time,
/// fetch-and-phi ALU, and a reply outbox, held in a [`BankStore`].
#[derive(Debug, Clone)]
pub struct Bank {
    mm: MmId,
    /// Arrived requests; the head is in service while `in_service` is set.
    queue: Ring,
    /// The cycle the request in service completes.
    in_service: Option<Cycle>,
    outbox: Ring,
    service_time: Cycle,
    stats: MemStats,
    dead: bool,
}

impl Bank {
    /// Creates an empty module `mm` that serves one request every
    /// `service_time` cycles (§4.2 uses two network cycles).
    ///
    /// # Panics
    ///
    /// Panics if `service_time` is zero.
    pub(crate) fn new(mm: MmId, service_time: Cycle) -> Self {
        assert!(service_time >= 1, "service time must be at least one cycle");
        Self {
            mm,
            queue: Ring::default(),
            in_service: None,
            outbox: Ring::default(),
            service_time,
            stats: MemStats::default(),
            dead: false,
        }
    }

    /// Fail-stops this module: its words are lost, every undelivered reply
    /// becomes a NACK (the word it answered from is gone) and every
    /// request it holds is answered with one, in that order; every later
    /// request is answered with a NACK too.
    pub(crate) fn kill(&mut self, store: &mut BankStore) {
        self.dead = true;
        let discarded = self.queue.len() + self.outbox.len();
        self.stats.dead_discards.add(discarded as u64);
        store.replies.for_each_mut(self.outbox, |reply| {
            reply.kind = ReplyKind::Nack;
            reply.value = 0;
        });
        self.in_service = None;
        while let Some(msg) = store.requests.pop_front(&mut self.queue) {
            store.replies.push_back(&mut self.outbox, Reply::nack(&msg));
        }
        store.words.retain(|addr, _| addr.mm != self.mm);
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

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Accepts a request delivered by the network. Returns `false` when
    /// the module is dead and refuses it with a NACK.
    ///
    /// # Panics
    ///
    /// Panics if the request is addressed to a different module.
    pub(crate) fn push_request(&mut self, store: &mut BankStore, msg: Message) -> bool {
        assert_eq!(msg.addr.mm, self.mm, "request delivered to wrong module");
        if self.dead {
            // Refused before application: the issuing PE re-issues it under
            // the translation that re-hashes around this module, and that
            // is the request's first and only application.
            self.stats.dead_discards.incr();
            (store.replies).push_back(&mut self.outbox, Reply::nack(&msg));
            return false;
        }
        store.requests.push_back(&mut self.queue, msg);
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.queue_depth());
        true
    }

    /// The requests this module holds, in service first.
    pub(crate) fn requests<'a>(
        &'a self,
        store: &'a BankStore,
    ) -> impl Iterator<Item = &'a Message> {
        store.requests.iter(self.queue)
    }

    /// Requests waiting (not counting the one in service).
    pub(crate) fn queue_depth(&self) -> usize {
        self.queue.len() - usize::from(self.in_service.is_some())
    }

    /// Whether any work (queued, in service, or undelivered replies)
    /// remains.
    pub(crate) fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.outbox.is_empty()
    }

    /// Advances one cycle: starts service if idle, and completes the
    /// request in service when its time is up, moving its reply, if one is
    /// owed, to the outbox.
    pub(crate) fn cycle(&mut self, store: &mut BankStore, now: Cycle) {
        if self.in_service.is_none() && !self.queue.is_empty() {
            self.in_service = Some(now + self.service_time);
        }
        let Some(done_at) = self.in_service else {
            return;
        };
        self.stats.busy_cycles.incr();
        if now + 1 >= done_at {
            self.in_service = None;
            let msg = store
                .requests
                .pop_front(&mut self.queue)
                .expect("in service");
            self.serve(store, &msg);
        }
    }

    /// Serves one request at completion time: applies it and enqueues its
    /// reply.
    fn serve(&mut self, store: &mut BankStore, msg: &Message) {
        let value = self.apply(store, msg);
        (store.replies).push_back(&mut self.outbox, Reply::to_request(msg, value));
    }

    /// The MNI ALU: applies one request to the memory array and returns the
    /// reply value (the old value for loads and fetch-and-phis; zero for
    /// store acknowledgements).
    fn apply(&mut self, store: &mut BankStore, msg: &Message) -> Value {
        self.stats.served.incr();
        let addr = MemAddr::new(self.mm, msg.addr.offset);
        let slot = store.words.entry(addr).or_insert(0);
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
    pub(crate) fn peek_reply<'a>(&self, store: &'a BankStore) -> Option<&'a Reply> {
        store.replies.front(self.outbox)
    }

    /// Removes and returns the oldest undelivered reply.
    pub(crate) fn pop_reply(&mut self, store: &mut BankStore) -> Option<Reply> {
        store.replies.pop_front(&mut self.outbox)
    }

    /// Puts back, at the head of the outbox, a reply the network refused
    /// this cycle — the counterpart of [`Bank::pop_reply`] for callers
    /// that offer replies by value.
    pub(crate) fn return_reply(&mut self, store: &mut BankStore, reply: Reply) {
        store.replies.push_front(&mut self.outbox, reply);
    }
}

/// One memory module with a [`BankStore`] of its own: a [`Bank`] outside
/// a fabric. Each method is the [`Bank`] method of the same name.
#[derive(Debug, Clone)]
pub struct MemBank {
    bank: Bank,
    store: BankStore,
}

impl MemBank {
    /// Creates an empty module `mm` that serves one request every
    /// `service_time` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `service_time` is zero.
    #[must_use]
    pub fn new(mm: MmId, service_time: Cycle) -> Self {
        Self {
            bank: Bank::new(mm, service_time),
            store: BankStore::default(),
        }
    }

    /// Fail-stops the module: its words are lost, every undelivered reply
    /// becomes a NACK and every request it holds is answered with one, in
    /// that order; every later request is answered with a NACK too.
    pub fn kill(&mut self) {
        self.bank.kill(&mut self.store);
    }

    /// See [`Bank::set_service_time`].
    ///
    /// # Panics
    ///
    /// Panics if `service_time` is zero.
    pub fn set_service_time(&mut self, service_time: Cycle) {
        self.bank.set_service_time(service_time);
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &MemStats {
        self.bank.stats()
    }

    /// Directly reads a word (test setup / result extraction; not timed).
    #[must_use]
    pub fn peek(&self, offset: usize) -> Value {
        self.store.peek(MemAddr::new(self.bank.mm, offset))
    }

    /// Directly writes a word (initialization; not timed).
    pub fn poke(&mut self, offset: usize, value: Value) {
        self.store.poke(MemAddr::new(self.bank.mm, offset), value);
    }

    /// Accepts a request delivered by the network. Returns `false` when
    /// the module is dead and refuses it with a NACK.
    ///
    /// # Panics
    ///
    /// Panics if the request is addressed to a different module.
    pub fn push_request(&mut self, msg: Message) -> bool {
        self.bank.push_request(&mut self.store, msg)
    }

    /// Whether any work (queued, in service, or undelivered replies)
    /// remains.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.bank.is_idle()
    }

    /// Advances one cycle: starts service if idle, and completes the
    /// request in service when its time is up.
    pub fn cycle(&mut self, now: Cycle) {
        self.bank.cycle(&mut self.store, now);
    }

    /// Applies one request to the memory array at once and returns the
    /// reply value.
    pub fn apply(&mut self, msg: &Message) -> Value {
        self.bank.apply(&mut self.store, msg)
    }

    /// The oldest undelivered reply, if any.
    #[must_use]
    pub fn peek_reply(&self) -> Option<&Reply> {
        self.bank.peek_reply(&self.store)
    }

    /// Removes and returns the oldest undelivered reply.
    pub fn pop_reply(&mut self) -> Option<Reply> {
        self.bank.pop_reply(&mut self.store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultra_net::message::{MsgId, PhiOp};
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
        bank.push_request(req(1, MsgKind::Load, 3, 0));
        bank.cycle(0);
        bank.cycle(1);
        bank.push_request(req(2, MsgKind::fetch_add(), 3, 1));
        bank.push_request(req(3, MsgKind::Store, 0, 9));
        bank.cycle(2);
        // Load 1 is served and waits in the outbox, fetch-and-add 2 is in
        // service, store 3 is queued: the module dies.
        bank.kill();
        assert_eq!(bank.peek(3), 0, "contents lost");
        assert!(!bank.push_request(req(4, MsgKind::Load, 0, 0)));
        for now in 3..10 {
            bank.cycle(now);
        }
        let mut refused = Vec::new();
        while let Some(reply) = bank.pop_reply() {
            assert_eq!((reply.kind, reply.value), (ReplyKind::Nack, 0));
            refused.push(reply.id);
        }
        let ids = [1, 2, 3, 4].map(MsgId);
        assert_eq!(refused, ids, "each refused once, the outbox first");
        assert!(bank.is_idle());
        assert_eq!(bank.peek(3), 0, "nothing applied after death");
        assert_eq!(bank.stats().dead_discards.get(), 4);
    }

    #[test]
    fn slow_module_takes_longer_per_request() {
        let mut bank = MemBank::new(MmId(0), 1);
        bank.set_service_time(4);
        bank.push_request(req(1, MsgKind::Load, 0, 0));
        for now in 0..3 {
            bank.cycle(now);
            assert!(bank.peek_reply().is_none(), "still serving at {now}");
        }
        bank.cycle(3);
        assert!(bank.pop_reply().is_some());
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
