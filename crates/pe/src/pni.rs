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
//! Disabled (the default), none of this bookkeeping exists, and requests
//! carry no list.
//!
//! # Footprint
//!
//! A machine holds one PNI per PE, so the per-PE record, [`PniCore`],
//! keeps only what is its own: its id counter, its counters and the
//! [`Ring`] that names its outstanding requests. The requests themselves
//! live in the machine's one [`Outstanding`] slab, and the address
//! translator is the machine's too: both are passed to the calls that
//! read them. Copying every PNI of a machine is then one copy of the
//! records and one of the slab, and a dead module's remap tables exist
//! once, not once per PE. The retry protocol's state sits behind one box
//! that a fault-free PNI never allocates. [`Pni`] is one interface with a
//! translator and a slab of its own, for use outside a machine.

use std::sync::Arc;

use ultra_faults::RetryPolicy;
use ultra_mem::AddressHasher;
use ultra_net::message::{Message, MsgId, MsgKind, Reply};
use ultra_sim::heap::{map_bytes, vec_bytes};
use ultra_sim::ring::{Ring, Rings};
use ultra_sim::{Counter, Cycle, IdMap, MemAddr, PeId, Value};

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

/// Every outstanding request of every PNI of a machine, with the physical
/// location it references, one [`Ring`] per PNI. A PE keeps only a
/// handful in flight, so a walk of its ring answers both "is this
/// location busy" and "which location does this reply free".
pub type Outstanding = Rings<(MsgId, MemAddr)>;

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
    /// The recovery protocol's state, if enabled.
    retry: Option<Box<Retry>>,
}

/// The retry protocol's state: the policy and what re-issuing needs.
#[derive(Debug, Clone)]
struct Retry {
    policy: RetryPolicy,
    /// Everything needed to re-issue each outstanding request.
    pending: IdMap<MsgId, PendingRequest>,
    /// Reused between [`PniCore::due_retries`] calls so the per-cycle
    /// timeout sweep allocates nothing in the common empty case.
    due_scratch: Vec<MsgId>,
}

/// Book-keeping for one outstanding request under the retry protocol.
#[derive(Debug, Clone)]
struct PendingRequest {
    kind: MsgKind,
    /// Virtual address, when known — lets a retry re-translate after the
    /// hasher re-hashes around a newly dead module.
    vaddr: Option<usize>,
    addr: MemAddr,
    value: Value,
    attempt: u32,
    deadline: Cycle,
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
            retry: None,
        }
    }

    /// Heap bytes this interface owns: its retry state. Its outstanding
    /// requests are the slab's.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.retry.as_ref().map_or(0, |r| {
            std::mem::size_of::<Retry>() + map_bytes(&r.pending) + vec_bytes(&r.due_scratch)
        })
    }

    /// Enables the timeout/retry recovery protocol.
    pub fn enable_retry(&mut self, policy: RetryPolicy) {
        self.retry = Some(Box::new(Retry {
            policy,
            pending: IdMap::default(),
            due_scratch: Vec::new(),
        }));
    }

    /// Re-keys the outstanding references under `hasher` — the machine
    /// calls this on every PNI when a module dies mid-run and translation
    /// re-hashes around it — so their retries reach the adoptive module.
    /// Without the retry protocol there is nothing to re-key.
    pub fn rekey(&mut self, hasher: &AddressHasher, slab: &mut Outstanding) {
        let Some(retry) = self.retry.as_deref_mut() else {
            return;
        };
        if retry.pending.is_empty() {
            return;
        }
        for state in retry.pending.values_mut() {
            if let Some(v) = state.vaddr {
                state.addr = hasher.translate(v);
            }
        }
        // Rebuilt in id order, so the ring does not depend on the retry
        // table's iteration order.
        slab.clear(&mut self.outstanding);
        let mut entries: Vec<(MsgId, MemAddr)> =
            retry.pending.iter().map(|(&id, s)| (id, s.addr)).collect();
        entries.sort_unstable_by_key(|&(id, _)| id);
        for entry in entries {
            slab.push_back(&mut self.outstanding, entry);
        }
    }

    /// Collects the requests whose deadline has passed and re-issues each
    /// under its original id with an incremented attempt counter and a
    /// backed-off deadline, handing them to `out`. Hands over nothing
    /// unless the retry protocol is enabled. Deterministic: timed-out
    /// requests go out in id order. The common case (nothing timed out)
    /// touches no heap at all.
    pub fn due_retries(&mut self, now: Cycle, mut out: impl FnMut(Message)) {
        let Some(retry) = self.retry.as_deref_mut() else {
            return;
        };
        if retry.pending.is_empty() {
            return;
        }
        retry.due_scratch.clear();
        retry.due_scratch.extend(
            (retry.pending.iter())
                .filter(|(_, s)| s.deadline <= now)
                .map(|(&id, _)| id),
        );
        retry.due_scratch.sort_unstable();
        for &id in &retry.due_scratch {
            let state = retry.pending.get_mut(&id).expect("collected above");
            state.attempt += 1;
            state.deadline = retry.policy.deadline(now, state.attempt);
            self.stats.retries.incr();
            out(
                Message::request(id, state.kind, state.addr, state.value, self.pe, now)
                    .as_retry(state.attempt, now),
            );
        }
    }

    /// The earliest deadline among outstanding requests under the retry
    /// protocol — the next cycle at which [`PniCore::due_retries`] could
    /// produce anything. `None` when nothing is outstanding (or the retry
    /// protocol is disabled). The idle fast-forward uses this to bound its
    /// jump.
    #[must_use]
    pub fn next_retry_deadline(&self) -> Option<Cycle> {
        let retry = self.retry.as_deref()?;
        retry.pending.values().map(|s| s.deadline).min()
    }

    /// Forgets every outstanding request and returns their ids — the
    /// machine calls this when it fail-stops (deconfigures) this PE, so
    /// late replies for its traffic are recognized as orphans rather
    /// than retried forever.
    pub fn abandon_all(&mut self, slab: &mut Outstanding) -> Vec<MsgId> {
        let mut ids = Vec::with_capacity(self.outstanding.len());
        while let Some((id, _)) = slab.pop_front(&mut self.outstanding) {
            ids.push(id);
        }
        ids.sort_unstable();
        if let Some(retry) = self.retry.as_deref_mut() {
            retry.pending.clear();
        }
        ids
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

    /// Builds a network request for virtual word `vaddr`, translated by
    /// `hasher`, enforcing the pipeline policy.
    ///
    /// # Errors
    ///
    /// [`PniError::LocationBusy`] if a reference to the same location is
    /// already outstanding.
    pub fn issue(
        &mut self,
        hasher: &AddressHasher,
        slab: &mut Outstanding,
        kind: MsgKind,
        vaddr: usize,
        value: Value,
        now: Cycle,
    ) -> Result<Message, PniError> {
        let addr = hasher.translate(vaddr);
        if self.references(slab, addr) {
            self.stats.location_conflicts.incr();
            return Err(PniError::LocationBusy);
        }
        let id = MsgId(self.next_id);
        self.next_id += 1;
        slab.push_back(&mut self.outstanding, (id, addr));
        self.stats.issued.incr();
        self.stats.max_outstanding = self.stats.max_outstanding.max(self.outstanding.len());
        let msg = Message::request(id, kind, addr, value, self.pe, now);
        if let Some(retry) = self.retry.as_deref_mut() {
            let policy = retry.policy;
            retry.pending.insert(
                id,
                PendingRequest {
                    kind,
                    vaddr: Some(vaddr),
                    addr,
                    value,
                    attempt: 0,
                    deadline: policy.deadline(now, 0),
                },
            );
            // The MMs' dedup cache reads the folded-id list.
            return Ok(msg.tracked());
        }
        Ok(msg)
    }

    /// Records the arrival of `reply`, freeing its location for new
    /// references. Returns `true` if the reply matched an outstanding
    /// request of this PE.
    pub fn complete(&mut self, slab: &mut Outstanding, reply: &Reply) -> bool {
        if (slab.remove_first(&mut self.outstanding, |&(id, _)| id == reply.id)).is_none() {
            return false;
        }
        if let Some(retry) = self.retry.as_deref_mut() {
            retry.pending.remove(&reply.id);
        }
        self.stats.completed.incr();
        true
    }

    /// Number of requests awaiting replies.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Whether a request to physical location `addr` is outstanding.
    fn references(&self, slab: &Outstanding, addr: MemAddr) -> bool {
        slab.iter(self.outstanding).any(|&(_, held)| held == addr)
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

    /// Heap bytes this interface owns: its outstanding slab and its retry
    /// state. The translator is shared, not owned.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.slab.heap_bytes() + self.core.heap_bytes()
    }

    /// Enables the timeout/retry recovery protocol.
    pub fn enable_retry(&mut self, policy: RetryPolicy) {
        self.core.enable_retry(policy);
    }

    /// Replaces the translation function and re-keys the outstanding
    /// references under it (see [`PniCore::rekey`]).
    pub fn set_hasher(&mut self, hasher: Arc<AddressHasher>) {
        self.hasher = hasher;
        self.core.rekey(&self.hasher, &mut self.slab);
    }

    /// Appends the timed-out requests, re-issued, to `out` (see
    /// [`PniCore::due_retries`]).
    pub fn due_retries_into(&mut self, now: Cycle, out: &mut impl Extend<Message>) {
        self.core.due_retries(now, |msg| out.extend([msg]));
    }

    /// See [`PniCore::next_retry_deadline`].
    #[must_use]
    pub fn next_retry_deadline(&self) -> Option<Cycle> {
        self.core.next_retry_deadline()
    }

    /// See [`PniCore::abandon_all`].
    pub fn abandon_all(&mut self) -> Vec<MsgId> {
        self.core.abandon_all(&mut self.slab)
    }

    /// The PE this interface serves.
    #[must_use]
    pub fn pe(&self) -> PeId {
        self.core.pe()
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
        (self.core).issue(&self.hasher, &mut self.slab, kind, vaddr, value, now)
    }

    /// See [`PniCore::complete`].
    pub fn complete(&mut self, reply: &Reply) -> bool {
        self.core.complete(&mut self.slab, reply)
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
        let held: Vec<(MsgId, MemAddr)> = p.slab.iter(p.core.outstanding).copied().collect();
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
        let ids = p.abandon_all();
        assert_eq!(ids, [msgs[0].id, msgs[2].id, msgs[3].id, msgs[4].id]);
        assert_eq!(p.outstanding(), 0);
        assert!(!p.is_location_busy(0));
        assert!(due(&mut p, 1_000).is_empty(), "no retry survives");
        assert!(!p.complete(&Reply::to_request(&msgs[0], 0)));
    }

    #[test]
    fn heap_bytes_counts_the_outstanding_list() {
        let mut p = pni();
        let base = p.heap_bytes();
        for v in 0..9 {
            let _ = p.issue(MsgKind::Load, v, 0, 0).unwrap();
        }
        let entry = std::mem::size_of::<(MsgId, MemAddr)>();
        assert!(p.slab.heap_bytes() >= 9 * entry);
        assert_eq!(p.heap_bytes(), base + p.slab.heap_bytes());
    }

    /// A machine holds one PNI per PE: a field added here must not
    /// silently re-inflate the per-PE cost.
    #[test]
    fn a_pni_stays_small() {
        assert!(
            std::mem::size_of::<PniCore>() <= 72,
            "PniCore is {} bytes",
            std::mem::size_of::<PniCore>()
        );
        let mut p = pni();
        assert!(
            p.core.retry.is_none(),
            "a fault-free PNI holds no retry state"
        );
        p.enable_retry(RetryPolicy {
            base_timeout: 8,
            backoff_cap: 3,
        });
        assert_eq!(p.heap_bytes(), std::mem::size_of::<Retry>());
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
