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

use ultra_faults::RetryPolicy;
use ultra_mem::AddressHasher;
use ultra_net::message::{Message, MsgId, MsgKind, Reply};
use ultra_sim::heap::{map_bytes, vec_bytes};
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

/// Per-PE network interface state.
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
    pe: PeId,
    hasher: AddressHasher,
    /// Physical location → outstanding request id.
    by_location: IdMap<MemAddr, MsgId>,
    /// Outstanding id → physical location (for completion).
    inflight: IdMap<MsgId, MemAddr>,
    next_id: u64,
    stats: PniStats,
    /// The recovery protocol, if enabled.
    retry: Option<RetryPolicy>,
    /// Everything needed to re-issue each outstanding request (empty when
    /// the retry protocol is disabled).
    pending: IdMap<MsgId, PendingRequest>,
    /// Reused between [`Pni::due_retries_into`] calls so the per-cycle
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

impl Pni {
    /// Creates the interface for `pe`. Request ids are drawn from a
    /// PE-disjoint space so that ids are unique machine-wide.
    #[must_use]
    pub fn new(pe: PeId, hasher: AddressHasher) -> Self {
        Self {
            pe,
            hasher,
            by_location: IdMap::default(),
            inflight: IdMap::default(),
            // Top 20 bits reserved for the PE number: unique across 2^20 PEs
            // and 2^44 requests each.
            next_id: ((pe.0 as u64) << 44) + 1,
            stats: PniStats::default(),
            retry: None,
            pending: IdMap::default(),
            due_scratch: Vec::new(),
        }
    }

    /// Heap bytes this interface owns: its request tables and its copy of
    /// the address translator.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        map_bytes(&self.by_location)
            + map_bytes(&self.inflight)
            + map_bytes(&self.pending)
            + vec_bytes(&self.due_scratch)
            + self.hasher.heap_bytes()
    }

    /// Enables the timeout/retry recovery protocol.
    pub fn enable_retry(&mut self, policy: RetryPolicy) {
        self.retry = Some(policy);
    }

    /// Replaces the translation function — the machine calls this on every
    /// PNI when a module dies mid-run and translation re-hashes around it.
    /// Outstanding references are re-keyed under the new translation so
    /// their retries reach the adoptive module.
    pub fn set_hasher(&mut self, hasher: AddressHasher) {
        self.hasher = hasher;
        if self.retry.is_none() || self.pending.is_empty() {
            return;
        }
        for state in self.pending.values_mut() {
            if let Some(v) = state.vaddr {
                state.addr = self.hasher.translate(v);
            }
        }
        // Rebuilt in id order, so that if the new translation ever folded
        // two outstanding words onto one location the survivor would not
        // depend on the map's iteration order.
        let mut live: Vec<(MsgId, MemAddr)> =
            self.pending.iter().map(|(&id, s)| (id, s.addr)).collect();
        live.sort_unstable_by_key(|&(id, _)| id);
        self.inflight = live.iter().copied().collect();
        self.by_location = live.iter().map(|&(id, addr)| (addr, id)).collect();
    }

    /// Collects the requests whose deadline has passed and re-issues each
    /// under its original id with an incremented attempt counter and a
    /// backed-off deadline, appending them to `out`. Appends nothing
    /// unless the retry protocol is enabled. Deterministic: timed-out
    /// requests are appended in id order. The common case (nothing timed
    /// out) touches no heap at all.
    pub fn due_retries_into(&mut self, now: Cycle, out: &mut impl Extend<Message>) {
        let Some(policy) = self.retry else {
            return;
        };
        if self.pending.is_empty() {
            return;
        }
        self.due_scratch.clear();
        self.due_scratch.extend(
            self.pending
                .iter()
                .filter(|(_, s)| s.deadline <= now)
                .map(|(&id, _)| id),
        );
        self.due_scratch.sort_unstable();
        for i in 0..self.due_scratch.len() {
            let id = self.due_scratch[i];
            let state = self.pending.get_mut(&id).expect("collected above");
            state.attempt += 1;
            state.deadline = policy.deadline(now, state.attempt);
            self.stats.retries.incr();
            out.extend(core::iter::once(
                Message::request(id, state.kind, state.addr, state.value, self.pe, now)
                    .as_retry(state.attempt, now),
            ));
        }
    }

    /// The earliest deadline among outstanding requests under the retry
    /// protocol — the next cycle at which [`Pni::due_retries_into`] could
    /// produce anything. `None` when nothing is outstanding (or the retry
    /// protocol is disabled). The idle fast-forward uses this to bound its
    /// jump.
    #[must_use]
    pub fn next_retry_deadline(&self) -> Option<Cycle> {
        self.pending.values().map(|s| s.deadline).min()
    }

    /// Forgets every outstanding request and returns their ids — the
    /// machine calls this when it fail-stops (deconfigures) this PE, so
    /// late replies for its traffic are recognized as orphans rather
    /// than retried forever.
    pub fn abandon_all(&mut self) -> Vec<MsgId> {
        let mut ids: Vec<MsgId> = self.inflight.keys().copied().collect();
        ids.sort_unstable();
        self.inflight.clear();
        self.by_location.clear();
        self.pending.clear();
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

    /// Virtual→physical translation (§3.1.4 hashing included).
    #[must_use]
    pub fn translate(&self, vaddr: usize) -> MemAddr {
        self.hasher.translate(vaddr)
    }

    /// Builds a network request for virtual word `vaddr`, enforcing the
    /// pipeline policy.
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
        let addr = self.translate(vaddr);
        if self.by_location.contains_key(&addr) {
            self.stats.location_conflicts.incr();
            return Err(PniError::LocationBusy);
        }
        let id = MsgId(self.next_id);
        self.next_id += 1;
        self.by_location.insert(addr, id);
        self.inflight.insert(id, addr);
        self.stats.issued.incr();
        self.stats.max_outstanding = self.stats.max_outstanding.max(self.inflight.len());
        let msg = Message::request(id, kind, addr, value, self.pe, now);
        if let Some(policy) = self.retry {
            self.pending.insert(
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
    pub fn complete(&mut self, reply: &Reply) -> bool {
        match self.inflight.remove(&reply.id) {
            Some(addr) => {
                let removed = self.by_location.remove(&addr);
                debug_assert_eq!(removed, Some(reply.id));
                self.pending.remove(&reply.id);
                self.stats.completed.incr();
                true
            }
            None => false,
        }
    }

    /// Number of requests awaiting replies.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.inflight.len()
    }

    /// Whether a reference to virtual word `vaddr` is outstanding.
    #[must_use]
    pub fn is_location_busy(&self, vaddr: usize) -> bool {
        self.by_location.contains_key(&self.translate(vaddr))
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
            amalgam: 0,
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
        p.set_hasher(degraded);
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
    fn max_outstanding_tracked() {
        let mut p = pni();
        for i in 0..5 {
            let _ = p.issue(MsgKind::Load, i, 0, 0).unwrap();
        }
        assert_eq!(p.stats().max_outstanding, 5);
    }
}
