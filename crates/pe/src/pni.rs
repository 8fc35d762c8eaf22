//! The processor-network interface (§3.4).
//!
//! "The PNI performs four functions: virtual to physical address
//! translation, assembly/disassembly of memory requests, enforcement of the
//! network pipeline policy, and cache management." Assembly/disassembly is
//! absorbed by the packet-length model in `ultra-net`; the PE cache is not
//! modelled (DESIGN.md §6); this module implements translation and the
//! pipeline policy:
//!
//! * requests to **distinct** locations may be pipelined (issued before
//!   earlier ones are acknowledged);
//! * at most **one outstanding reference per memory location** — "the PNI
//!   is to prohibit a PE from having more than one outstanding reference to
//!   the same memory location" (§3.3), which is what lets wait-buffer keys
//!   identify messages uniquely.
//!
//! # Retry protocol (fault recovery)
//!
//! When the machine runs under a fault plan, the PNI also implements the
//! recovery protocol: every issued request carries a deadline; an
//! unanswered request past its deadline is re-issued under the **same id**
//! (the id doubles as the sequence number) with an incremented attempt
//! counter and exponential backoff. Retried messages never combine in the
//! network, and the memory modules' dedup cache guarantees each sequence
//! number is applied at most once, so a retried fetch-and-add still gets
//! its §2.1 serialization-chain ticket exactly once. Every request then
//! carries the folded-id list that cache reads ([`Message::tracked`]).
//! Disabled (the default), requests carry no list and nothing is ever
//! re-issued.
//!
//! # Footprint
//!
//! A machine holds one PNI per PE, so the per-PE record, [`PniCore`],
//! keeps only what is its own: its id counter, its counters and the
//! [`Ring`] that names its outstanding requests. Each request is one
//! [`Pending`] entry of the machine's one [`Outstanding`] slab, the only
//! record of it between issue and reply: what a reply frees and hands back
//! (the location and the issuer's tag) and what a retry re-issues (the
//! access, its attempt and its deadline). The ring keeps them in issue
//! order, which is id order. The address translator and the retry policy
//! are the machine's too: both are passed to the calls that read them.
//! Copying every PNI of a machine is then one copy of the records and one
//! of the slab, and a dead module's remap tables exist once, not once per
//! PE. [`Pni`] is one interface with a translator, a policy and a slab of
//! its own, for use outside a machine.

use std::sync::Arc;

use ultra_faults::RetryPolicy;
use ultra_mem::AddressHasher;
use ultra_net::message::{Message, MsgId, MsgKind, Reply};
use ultra_sim::ring::{Ring, Rings};
use ultra_sim::{Counter, Cycle, MemAddr, PeId, Value};

/// Why the PNI refused to issue a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PniError {
    /// A request to the same physical location is already outstanding;
    /// §3.3's uniqueness rule forbids a second.
    LocationBusy,
}

impl std::fmt::Display for PniError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PniError::LocationBusy => {
                write!(f, "a reference to this location is already outstanding")
            }
        }
    }
}

impl std::error::Error for PniError {}

/// What a PE asks its PNI to issue: an access to a virtual word, and the
/// tag the reply hands back ([`PniCore::complete`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access<T> {
    /// Function indicator.
    pub kind: MsgKind,
    /// The virtual word.
    pub vaddr: usize,
    /// Store datum or fetch-and-phi operand.
    pub value: Value,
    /// The issuer's record of what the reply is for.
    pub tag: T,
}

/// One outstanding request, from issue to reply.
#[derive(Debug, Clone, Copy)]
pub struct Pending<T> {
    id: MsgId,
    /// The physical word under the current translation.
    addr: MemAddr,
    /// The virtual word, so a retry re-translates after the translator
    /// re-hashes around a newly dead module.
    vaddr: usize,
    kind: MsgKind,
    value: Value,
    attempt: u32,
    /// When the current attempt is declared lost (under the retry
    /// protocol).
    deadline: Cycle,
    tag: T,
}

/// Every outstanding request of every PNI of a machine, one [`Ring`] per
/// PNI. A PE keeps only a handful in flight, so a walk of its ring answers
/// both "is this location busy" and "which request does this reply
/// answer".
pub type Outstanding<T = ()> = Rings<Pending<T>>;

/// One PE's network interface, as a machine keeps it: everything but its
/// translator, its retry policy and the slab its outstanding requests sit
/// in (see the module docs).
#[derive(Debug, Clone)]
pub struct PniCore {
    pe: PeId,
    /// This PNI's requests in the machine's [`Outstanding`] slab.
    outstanding: Ring,
    next_id: u64,
    stats: PniStats,
}

/// PNI instrumentation.
#[derive(Debug, Clone, Default)]
pub struct PniStats {
    /// Requests issued.
    pub issued: Counter,
    /// Replies matched to outstanding requests.
    pub completed: Counter,
    /// Issue attempts refused by the one-per-location rule.
    pub location_conflicts: Counter,
    /// Highest number of simultaneously outstanding requests.
    pub max_outstanding: usize,
    /// Timed-out requests re-issued by the retry protocol.
    pub retries: Counter,
}

impl PniCore {
    /// Creates the interface for `pe`. Request ids are drawn from a
    /// PE-disjoint space so that ids are unique machine-wide.
    #[must_use]
    pub fn new(pe: PeId) -> Self {
        Self {
            pe,
            outstanding: Ring::default(),
            // Top 20 bits reserved for the PE number: unique across 2^20 PEs
            // and 2^44 requests each.
            next_id: ((pe.0 as u64) << 44) + 1,
            stats: PniStats::default(),
        }
    }

    /// Re-keys the outstanding references under `hasher` — the machine
    /// calls this on every PNI when a module dies mid-run and translation
    /// re-hashes around it — so their retries reach the adoptive module.
    pub fn rekey<T>(&mut self, hasher: &AddressHasher, slab: &mut Outstanding<T>) {
        slab.for_each_mut(self.outstanding, |p| p.addr = hasher.translate(p.vaddr));
    }

    /// Re-issues each request whose deadline has passed under its
    /// original id, with an incremented attempt counter and a deadline
    /// backed off by `policy`, handing it to `out`. Timed-out requests go
    /// out in id order.
    pub fn due_retries<T>(
        &mut self,
        policy: RetryPolicy,
        slab: &mut Outstanding<T>,
        now: Cycle,
        mut out: impl FnMut(Message),
    ) {
        let (pe, retries) = (self.pe, &mut self.stats.retries);
        slab.for_each_mut(self.outstanding, |p| {
            if p.deadline > now {
                return;
            }
            p.attempt += 1;
            p.deadline = policy.deadline(now, p.attempt);
            retries.incr();
            out(Message::request(p.id, p.kind, p.addr, p.value, pe, now).as_retry(p.attempt, now));
        });
    }

    /// The earliest deadline among the outstanding requests — under the
    /// retry protocol, the next cycle at which [`PniCore::due_retries`]
    /// could produce anything. `None` when nothing is outstanding. The
    /// idle fast-forward uses this to bound its jump.
    #[must_use]
    pub fn next_retry_deadline<T>(&self, slab: &Outstanding<T>) -> Option<Cycle> {
        slab.iter(self.outstanding).map(|p| p.deadline).min()
    }

    /// Forgets every outstanding request — the machine calls this when it
    /// fail-stops (deconfigures) this PE, so late replies for its traffic
    /// are recognized as orphans rather than retried forever.
    pub fn abandon_all<T>(&mut self, slab: &mut Outstanding<T>) {
        slab.clear(&mut self.outstanding);
    }

    /// The PE this interface serves.
    #[must_use]
    pub fn pe(&self) -> PeId {
        self.pe
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &PniStats {
        &self.stats
    }

    /// Builds a network request for `access`, translated by `hasher`,
    /// enforcing the pipeline policy, and records it in `slab`. Under a
    /// retry `policy` the request gets a deadline and carries the
    /// folded-id list the modules' dedup cache reads.
    ///
    /// # Errors
    ///
    /// [`PniError::LocationBusy`] if a reference to the same location is
    /// already outstanding.
    pub fn issue<T>(
        &mut self,
        hasher: &AddressHasher,
        policy: Option<RetryPolicy>,
        slab: &mut Outstanding<T>,
        access: Access<T>,
        now: Cycle,
    ) -> Result<Message, PniError> {
        let Access {
            kind,
            vaddr,
            value,
            tag,
        } = access;
        let addr = hasher.translate(vaddr);
        if self.references(slab, addr) {
            self.stats.location_conflicts.incr();
            return Err(PniError::LocationBusy);
        }
        let id = MsgId(self.next_id);
        self.next_id += 1;
        let pending = Pending {
            id,
            addr,
            vaddr,
            kind,
            value,
            attempt: 0,
            deadline: policy.map_or(Cycle::MAX, |p| p.deadline(now, 0)),
            tag,
        };
        slab.push_back(&mut self.outstanding, pending);
        self.stats.issued.incr();
        self.stats.max_outstanding = self.stats.max_outstanding.max(self.outstanding.len());
        let msg = Message::request(id, kind, addr, value, self.pe, now);
        Ok(if policy.is_some() { msg.tracked() } else { msg })
    }

    /// Records the arrival of `reply`, freeing its location for new
    /// references. Returns the tag of the request it answers, or `None`
    /// when no request of this PE waits for it: a duplicate answer.
    pub fn complete<T>(&mut self, slab: &mut Outstanding<T>, reply: &Reply) -> Option<T> {
        let pending = slab.remove_first(&mut self.outstanding, |p| p.id == reply.id)?;
        self.stats.completed.incr();
        Some(pending.tag)
    }

    /// Number of requests awaiting replies.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Whether a request to physical location `addr` is outstanding.
    fn references<T>(&self, slab: &Outstanding<T>, addr: MemAddr) -> bool {
        slab.iter(self.outstanding).any(|p| p.addr == addr)
    }
}

/// One network interface with a translator, a retry policy and an
/// outstanding slab of its own: a [`PniCore`] outside a machine.
///
/// # Example
///
/// ```
/// use ultra_mem::{AddressHasher, TranslationMode};
/// use ultra_net::message::MsgKind;
/// use ultra_pe::pni::Pni;
/// use ultra_sim::PeId;
///
/// let hasher = AddressHasher::new(8, TranslationMode::Hashed);
/// let mut pni = Pni::new(PeId(2), hasher);
/// let msg = pni.issue(MsgKind::Load, 100, 0, 0).expect("nothing outstanding");
/// assert_eq!(pni.outstanding(), 1);
/// // Re-referencing the same virtual word before the reply is forbidden:
/// assert!(pni.issue(MsgKind::Load, 100, 0, 1).is_err());
/// # let _ = msg;
/// ```
#[derive(Debug, Clone)]
pub struct Pni {
    core: PniCore,
    hasher: Arc<AddressHasher>,
    retry: Option<RetryPolicy>,
    slab: Outstanding,
}

impl Pni {
    /// Creates the interface for `pe` over `hasher` (see [`PniCore::new`]).
    #[must_use]
    pub fn new(pe: PeId, hasher: impl Into<Arc<AddressHasher>>) -> Self {
        Self {
            core: PniCore::new(pe),
            hasher: hasher.into(),
            retry: None,
            slab: Outstanding::default(),
        }
    }

    /// Heap bytes this interface owns: its outstanding slab. The
    /// translator is shared, not owned.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.slab.heap_bytes()
    }

    /// Enables the timeout/retry recovery protocol for requests issued
    /// from now on.
    pub fn enable_retry(&mut self, policy: RetryPolicy) {
        self.retry = Some(policy);
    }

    /// Replaces the translation function and re-keys the outstanding
    /// references under it (see [`PniCore::rekey`]).
    pub fn set_hasher(&mut self, hasher: Arc<AddressHasher>) {
        self.hasher = hasher;
        self.core.rekey(&self.hasher, &mut self.slab);
    }

    /// Appends the timed-out requests, re-issued, to `out` (see
    /// [`PniCore::due_retries`]); nothing unless the retry protocol is
    /// enabled.
    pub fn due_retries_into(&mut self, now: Cycle, out: &mut impl Extend<Message>) {
        if let Some(policy) = self.retry {
            (self.core).due_retries(policy, &mut self.slab, now, |msg| out.extend([msg]));
        }
    }

    /// See [`PniCore::abandon_all`].
    pub fn abandon_all(&mut self) {
        self.core.abandon_all(&mut self.slab);
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &PniStats {
        self.core.stats()
    }

    /// Virtual→physical translation (§3.1.4 hashing included).
    #[must_use]
    pub fn translate(&self, vaddr: usize) -> MemAddr {
        self.hasher.translate(vaddr)
    }

    /// See [`PniCore::issue`].
    ///
    /// # Errors
    ///
    /// [`PniError::LocationBusy`] if a reference to the same location is
    /// already outstanding.
    pub fn issue(
        &mut self,
        kind: MsgKind,
        vaddr: usize,
        value: Value,
        now: Cycle,
    ) -> Result<Message, PniError> {
        let access = Access {
            kind,
            vaddr,
            value,
            tag: (),
        };
        (self.core).issue(&self.hasher, self.retry, &mut self.slab, access, now)
    }

    /// Records the arrival of `reply`; returns whether it answered an
    /// outstanding request (see [`PniCore::complete`]).
    pub fn complete(&mut self, reply: &Reply) -> bool {
        self.core.complete(&mut self.slab, reply).is_some()
    }

    /// Number of requests awaiting replies.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.core.outstanding()
    }

    /// Whether a reference to virtual word `vaddr` is outstanding.
    #[must_use]
    pub fn is_location_busy(&self, vaddr: usize) -> bool {
        self.core.references(&self.slab, self.translate(vaddr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultra_mem::TranslationMode;
    use ultra_net::message::ReplyKind;

    fn pni() -> Pni {
        Pni::new(PeId(3), AddressHasher::new(8, TranslationMode::Interleaved))
    }

    fn due(p: &mut Pni, now: Cycle) -> Vec<Message> {
        let mut out = Vec::new();
        p.due_retries_into(now, &mut out);
        out
    }

    #[test]
    fn issues_and_completes() {
        let mut p = pni();
        let m = p.issue(MsgKind::Load, 42, 0, 0).unwrap();
        assert_eq!(m.src, PeId(3));
        assert_eq!(m.addr, p.translate(42));
        assert_eq!(p.outstanding(), 1);
        let r = Reply::to_request(&m, 5);
        assert!(p.complete(&r));
        assert_eq!(p.outstanding(), 0);
        assert!(!p.complete(&r), "double completion rejected");
    }

    #[test]
    fn one_outstanding_per_location() {
        let mut p = pni();
        let m = p.issue(MsgKind::fetch_add(), 42, 1, 0).unwrap();
        assert_eq!(
            p.issue(MsgKind::fetch_add(), 42, 1, 1),
            Err(PniError::LocationBusy)
        );
        assert!(p.is_location_busy(42));
        assert_eq!(p.stats().location_conflicts.get(), 1);
        // A different word in the same MM is fine (pipelining allowed).
        let _ = p.issue(MsgKind::Load, 42 + 8, 0, 1).unwrap();
        assert_eq!(p.outstanding(), 2);
        // After completion the location frees up.
        let r = Reply::to_request(&m, 0);
        p.complete(&r);
        assert!(p.issue(MsgKind::Load, 42, 0, 2).is_ok());
    }

    #[test]
    fn ids_unique_across_pes() {
        let hasher = AddressHasher::new(8, TranslationMode::Interleaved);
        let mut a = Pni::new(PeId(0), hasher.clone());
        let mut b = Pni::new(PeId(1), hasher);
        let ma = a.issue(MsgKind::Load, 1, 0, 0).unwrap();
        let mb = b.issue(MsgKind::Load, 1, 0, 0).unwrap();
        assert_ne!(ma.id, mb.id);
    }

    #[test]
    fn foreign_reply_is_ignored() {
        let mut p = pni();
        let foreign = Reply {
            id: MsgId(999),
            dst: PeId(3),
            addr: MemAddr::new(ultra_sim::MmId(0), 0),
            value: 0,
            kind: ReplyKind::Ack,
            request_issued_at: 0,
            mm_injected_at: 0,
            attempt: 0,
            copy: 0,
        };
        assert!(!p.complete(&foreign));
    }

    #[test]
    fn retry_fires_after_deadline_with_same_id() {
        let mut p = pni();
        p.enable_retry(RetryPolicy {
            base_timeout: 10,
            backoff_cap: 3,
        });
        let m = p.issue(MsgKind::fetch_add(), 7, 1, 0).unwrap();
        assert!(due(&mut p, 9).is_empty(), "deadline not yet reached");
        let retries = due(&mut p, 10);
        assert_eq!(retries.len(), 1);
        assert_eq!(retries[0].id, m.id, "retry reuses the sequence number");
        assert_eq!(retries[0].attempt, 1);
        assert_eq!(m.constituents(), [m.id]);
        assert!(m.folded.is_some(), "a retrying PNI issues with a list");
        assert_eq!(retries[0].folded, Some(Box::new(vec![m.id])));
        assert_eq!(p.stats().retries.get(), 1);
        // Backoff: next deadline is base << 1 after the retry instant.
        assert!(due(&mut p, 10 + 19).is_empty());
        let again = due(&mut p, 10 + 20);
        assert_eq!(again.len(), 1);
        assert_eq!(again[0].attempt, 2);
    }

    #[test]
    fn completion_cancels_pending_retry() {
        let mut p = pni();
        p.enable_retry(RetryPolicy {
            base_timeout: 5,
            backoff_cap: 3,
        });
        let m = p.issue(MsgKind::Load, 7, 0, 0).unwrap();
        assert!(p.complete(&Reply::to_request(&m, 3)));
        assert!(due(&mut p, 1_000).is_empty());
    }

    #[test]
    fn due_retries_are_id_ordered() {
        let mut p = pni();
        p.enable_retry(RetryPolicy {
            base_timeout: 4,
            backoff_cap: 3,
        });
        let ids: Vec<MsgId> = (0..6)
            .map(|i| p.issue(MsgKind::Load, i, 0, 0).unwrap().id)
            .collect();
        let retried: Vec<MsgId> = due(&mut p, 100).iter().map(|m| m.id).collect();
        assert_eq!(retried, ids);
    }

    #[test]
    fn set_hasher_rekeys_outstanding_references() {
        let mut p = pni();
        p.enable_retry(RetryPolicy {
            base_timeout: 8,
            backoff_cap: 3,
        });
        let m = p.issue(MsgKind::fetch_add(), 2, 1, 0).unwrap();
        let mut degraded = AddressHasher::new(8, TranslationMode::Interleaved);
        degraded.set_dead_mms(&[ultra_sim::MmId(2)]);
        let new_addr = degraded.translate(2);
        assert_ne!(new_addr, m.addr, "vaddr 2 must re-translate");
        p.set_hasher(Arc::new(degraded));
        let retries = due(&mut p, 100);
        assert_eq!(retries[0].addr, new_addr, "retry targets the adoptive MM");
        assert!(p.is_location_busy(2), "busy under the NEW translation");
        // The reply still completes by id even though the address moved.
        let mut late = Reply::to_request(&m, 0);
        late.id = m.id;
        assert!(p.complete(&late));
    }

    #[test]
    fn retry_disabled_means_no_bookkeeping() {
        let mut p = pni();
        let m = p.issue(MsgKind::Load, 1, 0, 0).unwrap();
        assert_eq!(m.folded, None, "no folded-id list");
        assert!(due(&mut p, u64::MAX - 1).is_empty());
    }

    #[test]
    fn out_of_order_completion_frees_exactly_its_own_location() {
        let mut p = pni();
        let msgs: Vec<Message> = (0..4)
            .map(|v| p.issue(MsgKind::Load, v, 0, 0).unwrap())
            .collect();
        assert!(p.complete(&Reply::to_request(&msgs[1], 0)));
        assert_eq!(p.outstanding(), 3);
        assert_eq!(p.stats().max_outstanding, 4, "a high-water mark");
        assert!(!p.is_location_busy(1), "its own location is free");
        for v in [0, 2, 3] {
            assert!(p.is_location_busy(v), "word {v} still referenced");
            assert_eq!(p.issue(MsgKind::Load, v, 0, 1), Err(PniError::LocationBusy));
        }
        let again = p.issue(MsgKind::Store, 1, 5, 1).unwrap();
        assert_eq!(p.stats().max_outstanding, 4);
        // Completing the rest in another order empties the list.
        for m in [&msgs[3], &again, &msgs[0], &msgs[2]] {
            assert!(p.complete(&Reply::to_request(m, 0)));
        }
        assert_eq!(p.outstanding(), 0);
        assert!(!p.complete(&Reply::to_request(&msgs[2], 0)));
        assert_eq!(p.stats().completed.get(), 5);
    }

    #[test]
    fn set_hasher_under_retry_rekeys_in_id_order() {
        let healthy = Arc::new(AddressHasher::new(8, TranslationMode::Interleaved));
        let [mut p, mut idle] = [3, 4].map(|pe| Pni::new(PeId(pe), Arc::clone(&healthy)));
        for pni in [&mut p, &mut idle] {
            pni.enable_retry(RetryPolicy {
                base_timeout: 8,
                backoff_cap: 3,
            });
        }
        let msgs: Vec<Message> = (0..6)
            .map(|v| p.issue(MsgKind::Load, v, 0, 0).unwrap())
            .collect();
        // Out-of-order completions leave the list out of id order.
        p.complete(&Reply::to_request(&msgs[0], 0));
        p.complete(&Reply::to_request(&msgs[3], 0));
        let mut degraded = AddressHasher::new(8, TranslationMode::Interleaved);
        degraded.set_dead_mms(&[ultra_sim::MmId(2)]);
        let degraded = Arc::new(degraded);
        let before = p.heap_bytes();
        // The machine re-keys every PNI by handing each the one new
        // translator: no PNI copies its tables.
        for pni in [&mut p, &mut idle] {
            pni.set_hasher(Arc::clone(&degraded));
            assert!(Arc::ptr_eq(&pni.hasher, &degraded));
        }
        assert_eq!(Arc::strong_count(&degraded), 3);
        assert_eq!(Arc::strong_count(&healthy), 1, "the old one is let go");
        assert!(degraded.heap_bytes() > 0);
        assert_eq!(p.heap_bytes(), before, "the tables are not the PNI's");
        let expect: Vec<(MsgId, MemAddr)> = [1, 2, 4, 5]
            .iter()
            .map(|&v| (msgs[v].id, degraded.translate(v)))
            .collect();
        let held: Vec<(MsgId, MemAddr)> = (p.slab.iter(p.core.outstanding))
            .map(|p| (p.id, p.addr))
            .collect();
        assert_eq!(held, expect);
        assert_eq!(idle.outstanding(), 0);
    }

    #[test]
    fn abandon_all_returns_sorted_ids_and_forgets_everything() {
        let mut p = pni();
        p.enable_retry(RetryPolicy {
            base_timeout: 8,
            backoff_cap: 3,
        });
        let msgs: Vec<Message> = (0..5)
            .map(|v| p.issue(MsgKind::Load, v, 0, 0).unwrap())
            .collect();
        p.complete(&Reply::to_request(&msgs[1], 0));
        let held: Vec<MsgId> = p.slab.iter(p.core.outstanding).map(|p| p.id).collect();
        assert_eq!(held, [msgs[0].id, msgs[2].id, msgs[3].id, msgs[4].id]);
        p.abandon_all();
        assert_eq!(p.outstanding(), 0);
        assert!(p.slab.is_empty(), "every entry is freed");
        assert!(!p.is_location_busy(0));
        assert!(due(&mut p, 1_000).is_empty(), "no retry survives");
        assert!(!p.complete(&Reply::to_request(&msgs[0], 0)));
    }

    #[test]
    fn heap_bytes_counts_the_outstanding_list() {
        let mut p = pni();
        p.enable_retry(RetryPolicy {
            base_timeout: 8,
            backoff_cap: 3,
        });
        assert_eq!(p.heap_bytes(), 0, "the retry protocol costs no heap");
        for v in 0..9 {
            let _ = p.issue(MsgKind::Load, v, 0, 0).unwrap();
        }
        let entry = std::mem::size_of::<Pending<()>>();
        assert!(p.slab.heap_bytes() >= 9 * entry);
        assert_eq!(p.heap_bytes(), p.slab.heap_bytes());
    }

    /// A machine holds one PNI per PE: a field added here must not
    /// silently re-inflate the per-PE cost. Its outstanding requests, and
    /// all their retry state, are the slab's.
    #[test]
    fn a_pni_stays_small() {
        assert!(
            std::mem::size_of::<PniCore>() <= 64,
            "PniCore is {} bytes",
            std::mem::size_of::<PniCore>()
        );
        let mut plain = pni();
        let mut p = pni();
        p.enable_retry(RetryPolicy::for_depth(3));
        for v in 0..4 {
            let _ = plain.issue(MsgKind::Load, v, 0, 0).unwrap();
            let _ = p.issue(MsgKind::Load, v, 0, 0).unwrap();
        }
        assert_eq!(p.heap_bytes(), plain.heap_bytes(), "no per-PNI retry state");
    }

    #[test]
    fn max_outstanding_tracked() {
        let mut p = pni();
        for i in 0..5 {
            let _ = p.issue(MsgKind::Load, i, 0, 0).unwrap();
        }
        assert_eq!(p.stats().max_outstanding, 5);
    }
}
