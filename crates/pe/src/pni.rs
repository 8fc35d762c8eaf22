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
//! # Loss recovery
//!
//! Every loss the fault model makes is reported where it happens. A
//! lossy injection link or a `DropOnConflict` switch hands the request
//! back, and the machine offers it again as it is. A dead memory module
//! answers with a NACK ([`ultra_net::message::ReplyKind::Nack`]). The PNI
//! is the one place that re-issues: on a NACK, or when no live network
//! copy can route a request, [`PniCore::reissue`] re-translates the
//! request's outstanding entry from its virtual word (translation may
//! have re-hashed around a newly dead module) and rebuilds it under the
//! same id. A request is re-issued only once its loss is reported, so no
//! two copies of it are ever in flight and a retried fetch-and-add still
//! gets its §2.1 serialization-chain ticket exactly once. Nothing waits
//! on a timeout.
//!
//! # Footprint
//!
//! A machine holds one PNI per PE, so the per-PE record, [`PniCore`],
//! keeps only what is its own: its id counter, its counters and the
//! [`Ring`] that names its outstanding requests. Each request is one
//! [`Pending`] entry of the machine's one [`Outstanding`] slab, the only
//! record of it between issue and reply: what a reply frees and hands back
//! (the location and the issuer's tag) and what a re-issue rebuilds (the
//! access). The ring keeps them in issue order, which is id order. The
//! address translator is the machine's too: it is passed to the calls
//! that read it. Copying every PNI of a machine is then one copy of the
//! records and one of the slab, and a dead module's remap tables exist
//! once, not once per PE. [`Pni`] is one interface with a translator and
//! a slab of its own, for use outside a machine.

use std::sync::Arc;

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
    /// The virtual word: a location is busy by it, and a re-issue
    /// translates it afresh.
    vaddr: usize,
    kind: MsgKind,
    value: Value,
    tag: T,
}

/// Every outstanding request of every PNI of a machine, one [`Ring`] per
/// PNI. A PE keeps only a handful in flight, so a walk of its ring answers
/// both "is this location busy" and "which request does this reply
/// answer".
pub type Outstanding<T = ()> = Rings<Pending<T>>;

/// One PE's network interface, as a machine keeps it: everything but its
/// translator and the slab its outstanding requests sit in (see the
/// module docs).
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
    /// Requests re-issued after a NACK or an unroutable offer.
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

    /// Rebuilds outstanding request `id`, whose loss was just reported (a
    /// NACK, or no live copy could route it), under `hasher`'s current
    /// translation of its virtual word and the same id, for injection at
    /// `now`. `None` when no request of this PE waits under that id: the
    /// report answers nothing.
    pub fn reissue<T>(
        &mut self,
        hasher: &AddressHasher,
        slab: &Outstanding<T>,
        id: MsgId,
        now: Cycle,
    ) -> Option<Message> {
        let p = slab.iter(self.outstanding).find(|p| p.id == id)?;
        self.stats.retries.incr();
        let addr = hasher.translate(p.vaddr);
        Some(Message::request(id, p.kind, addr, p.value, self.pe, now))
    }

    /// Forgets every outstanding request — the machine calls this when it
    /// fail-stops (deconfigures) this PE, so late replies for its traffic
    /// are recognized as orphans rather than re-issued.
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
    /// enforcing the pipeline policy, and records it in `slab`.
    ///
    /// # Errors
    ///
    /// [`PniError::LocationBusy`] if a reference to the same location is
    /// already outstanding.
    pub fn issue<T>(
        &mut self,
        hasher: &AddressHasher,
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
        if self.references(slab, vaddr) {
            self.stats.location_conflicts.incr();
            return Err(PniError::LocationBusy);
        }
        let id = MsgId(self.next_id);
        self.next_id += 1;
        let pending = Pending {
            id,
            vaddr,
            kind,
            value,
            tag,
        };
        slab.push_back(&mut self.outstanding, pending);
        self.stats.issued.incr();
        self.stats.max_outstanding = self.stats.max_outstanding.max(self.outstanding.len());
        let addr = hasher.translate(vaddr);
        Ok(Message::request(id, kind, addr, value, self.pe, now))
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

    /// Whether a request to virtual word `vaddr` is outstanding. Translation
    /// is injective, so this is the §3.3 rule on physical locations under
    /// any translation, before or after a module dies.
    fn references<T>(&self, slab: &Outstanding<T>, vaddr: usize) -> bool {
        slab.iter(self.outstanding).any(|p| p.vaddr == vaddr)
    }
}

/// One network interface with a translator and an outstanding slab of its
/// own: a [`PniCore`] outside a machine.
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
    slab: Outstanding,
}

impl Pni {
    /// Creates the interface for `pe` over `hasher` (see [`PniCore::new`]).
    #[must_use]
    pub fn new(pe: PeId, hasher: impl Into<Arc<AddressHasher>>) -> Self {
        Self {
            core: PniCore::new(pe),
            hasher: hasher.into(),
            slab: Outstanding::default(),
        }
    }

    /// Heap bytes this interface owns: its outstanding slab. The
    /// translator is shared, not owned.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.slab.heap_bytes()
    }

    /// Replaces the translation function: requests re-issued from now on
    /// are translated by `hasher`.
    pub fn set_hasher(&mut self, hasher: Arc<AddressHasher>) {
        self.hasher = hasher;
    }

    /// See [`PniCore::reissue`].
    pub fn reissue(&mut self, id: MsgId, now: Cycle) -> Option<Message> {
        self.core.reissue(&self.hasher, &self.slab, id, now)
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
        (self.core).issue(&self.hasher, &mut self.slab, access, now)
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
        self.core.references(&self.slab, vaddr)
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
            copy: 0,
        };
        assert!(!p.complete(&foreign));
        assert_eq!(p.reissue(foreign.id, 1), None, "nor is a foreign NACK");
        assert_eq!(p.stats().retries.get(), 0);
    }

    #[test]
    fn completion_cancels_pending_retry() {
        let mut p = pni();
        let m = p.issue(MsgKind::Load, 7, 0, 0).unwrap();
        assert!(p.complete(&Reply::to_request(&m, 3)));
        // A late report of a loss names nothing once the request is done.
        assert_eq!(p.reissue(m.id, 1_000), None);
        assert_eq!(p.stats().retries.get(), 0);
    }

    #[test]
    fn set_hasher_rekeys_outstanding_references() {
        let mut p = pni();
        let m = p.issue(MsgKind::fetch_add(), 2, 1, 0).unwrap();
        let mut degraded = AddressHasher::new(8, TranslationMode::Interleaved);
        degraded.set_dead_mms(&[ultra_sim::MmId(2)]);
        let new_addr = degraded.translate(2);
        assert_ne!(new_addr, m.addr, "vaddr 2 must re-translate");
        p.set_hasher(Arc::new(degraded));
        assert!(p.is_location_busy(2), "busy under the NEW translation");
        // The dead module's NACK: the request goes out again, same id,
        // same access, to the adoptive module.
        let again = p.reissue(m.id, 100).expect("outstanding");
        assert_eq!((again.id, again.kind, again.value), (m.id, m.kind, m.value));
        assert_eq!((again.addr, again.issued_at), (new_addr, 100));
        assert_eq!(p.stats().retries.get(), 1);
        assert_eq!(p.outstanding(), 1, "still the one record of it");
        assert!(p.complete(&Reply::to_request(&again, 0)));
    }

    #[test]
    fn retry_disabled_means_no_bookkeeping() {
        // There is no timeout to arm: a request's record is its id, its
        // access and its tag, and nothing is re-issued unless a loss is
        // reported for it.
        assert_eq!(std::mem::size_of::<Pending<()>>(), 32);
        let mut p = pni();
        let m = p.issue(MsgKind::Load, 1, 0, 0).unwrap();
        assert_eq!(
            m,
            Message::request(m.id, MsgKind::Load, p.translate(1), 0, PeId(3), 0)
        );
        assert_eq!(p.outstanding(), 1);
        assert_eq!(p.stats().retries.get(), 0);
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
        let msgs: Vec<Message> = (0..6)
            .map(|v| p.issue(MsgKind::Load, v, 0, 0).unwrap())
            .collect();
        // Out-of-order completions leave gaps in the ring.
        p.complete(&Reply::to_request(&msgs[0], 0));
        p.complete(&Reply::to_request(&msgs[3], 0));
        let mut degraded = AddressHasher::new(8, TranslationMode::Interleaved);
        degraded.set_dead_mms(&[ultra_sim::MmId(2)]);
        let degraded = Arc::new(degraded);
        let before = p.heap_bytes();
        // The machine hands every PNI the one new translator: no PNI
        // copies its tables.
        for pni in [&mut p, &mut idle] {
            pni.set_hasher(Arc::clone(&degraded));
            assert!(Arc::ptr_eq(&pni.hasher, &degraded));
        }
        assert_eq!(Arc::strong_count(&degraded), 3);
        assert_eq!(Arc::strong_count(&healthy), 1, "the old one is let go");
        assert!(degraded.heap_bytes() > 0);
        assert_eq!(p.heap_bytes(), before, "the tables are not the PNI's");
        let held: Vec<MsgId> = p.slab.iter(p.core.outstanding).map(|p| p.id).collect();
        let expect = [1, 2, 4, 5].map(|v| msgs[v].id);
        assert_eq!(held, expect, "still in id order");
        for v in [1, 2, 4, 5] {
            let again = p.reissue(msgs[v].id, 9).expect("outstanding");
            assert_eq!(again.addr, degraded.translate(v), "word {v}");
        }
        assert_eq!(idle.outstanding(), 0);
    }

    #[test]
    fn abandon_all_returns_sorted_ids_and_forgets_everything() {
        let mut p = pni();
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
        assert_eq!(p.reissue(msgs[0].id, 1_000), None, "nothing re-issues");
        assert!(!p.complete(&Reply::to_request(&msgs[0], 0)));
    }

    #[test]
    fn heap_bytes_counts_the_outstanding_list() {
        let mut p = pni();
        assert_eq!(p.heap_bytes(), 0, "nothing outstanding, no heap");
        for v in 0..9 {
            let _ = p.issue(MsgKind::Load, v, 0, 0).unwrap();
        }
        let entry = std::mem::size_of::<Pending<()>>();
        assert!(p.slab.heap_bytes() >= 9 * entry);
        assert_eq!(p.heap_bytes(), p.slab.heap_bytes());
    }

    /// A machine holds one PNI per PE: a field added here must not
    /// silently re-inflate the per-PE cost. Its outstanding requests are
    /// the slab's, and a re-issue adds nothing to them.
    #[test]
    fn a_pni_stays_small() {
        assert!(
            std::mem::size_of::<PniCore>() <= 64,
            "PniCore is {} bytes",
            std::mem::size_of::<PniCore>()
        );
        let mut plain = pni();
        let mut p = pni();
        for v in 0..4 {
            let _ = plain.issue(MsgKind::Load, v, 0, 0).unwrap();
            let m = p.issue(MsgKind::Load, v, 0, 0).unwrap();
            assert!(p.reissue(m.id, 1).is_some());
        }
        assert_eq!(p.heap_bytes(), plain.heap_bytes(), "no per-retry state");
        assert_eq!(p.outstanding(), plain.outstanding());
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
