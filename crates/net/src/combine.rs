//! Pairwise request combining and reply decombining (§3.1.2, §3.1.3, §3.3).
//!
//! When two requests referencing the same memory word meet in a switch's
//! ToMM queue, the switch merges them into one forward request and records a
//! [`WaitEntry`]; when the surviving request's reply passes back through the
//! switch, the entry is consulted to manufacture the absorbed request's
//! reply. The rules implemented here are the paper's, generalized from
//! fetch-and-add to any associative fetch-and-phi:
//!
//! | queued (serialized first unless noted) | incoming | forwarded | absorbed gets |
//! |---|---|---|---|
//! | `Load` | `Load` | the load | `Y` (pass through) |
//! | `Store(f)` | `Load` | the store | `f` |
//! | `Load` | `Store(f)` | the store (store serialized first) | `f` |
//! | `Store(e)` | `Store(f)` | `Store(f)` | ack |
//! | `FΦ(op,e)` | `FΦ(op,f)` | `FΦ(op, φ(e,f))` | `φ(Y, e)` |
//! | `FΦ(op,e)` | `Load` | unchanged | `φ(Y, e)` |
//! | `Load` | `FΦ(op,e)` | `FΦ(op,e)` (load serialized first) | `Y` |
//! | `Store(f)` | `FΦ(op,e)` | `Store(φ(f,e))` | `f` |
//! | `FΦ(op,e)` | `Store(f)` | `Store(φ(f,e))` (store serialized first) | `f` |
//!
//! `Y` is the value the memory returns for the surviving request. The
//! `FΦ+Load` rules generalize the paper's "Treat Load(X) as FetchAdd(X,0)"
//! (§3.1.3 item 2); because the switch can evaluate `φ(Y, e)` directly, no
//! identity element is needed and the rules apply even to the
//! non-commutative swap operator. Where the forwarded request must be the
//! *other* one (e.g. Load+Store), the queued slot takes over the incoming
//! request's identity — and, in the switch, its routing register (the
//! slab link's amalgam); the reply kind seen by each PE is always the kind
//! its own request demands.

use crate::message::{Message, MsgId, MsgKind, PhiOp, Reply, ReplyKind};
use ultra_sim::{Cycle, MemAddr, PeId, Value};

/// How to manufacture the absorbed request's reply from the survivor's
/// reply value `Y`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyRule {
    /// The absorbed request receives `Y` unchanged.
    PassThrough,
    /// The absorbed request receives `φ(Y, delta)` (fetch-and-phi pairs).
    Phi(PhiOp, Value),
    /// The absorbed request receives a value fixed at combine time
    /// (load/fetch satisfied by a store's datum).
    Const(Value),
    /// The absorbed request receives a dataless acknowledgement.
    Ack,
}

/// A wait-buffer record: everything needed to answer the absorbed request
/// when the survivor's reply returns through this switch (§3.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitEntry {
    /// Id of the surviving (forwarded) request; the wait buffer is keyed by
    /// this.
    pub survivor: MsgId,
    /// Id of the absorbed request.
    pub absorbed_id: MsgId,
    /// PE awaiting the absorbed request's reply.
    pub absorbed_pe: PeId,
    /// The shared memory word (part of the §3.3 match key).
    pub addr: MemAddr,
    /// Injection cycle of the absorbed request (latency accounting).
    pub absorbed_issued_at: Cycle,
    /// Reply kind owed to the absorbed request.
    pub absorbed_reply_kind: ReplyKind,
    /// Value-manufacturing rule.
    pub rule: ReplyRule,
}

impl WaitEntry {
    /// Manufactures the absorbed request's reply given the survivor's reply
    /// value `y`. Its reverse-trip amalgam is the switch's to derive (it
    /// depends on the stage at which the entry lives).
    #[must_use]
    pub fn make_reply(&self, y: Value) -> Reply {
        let value = match self.rule {
            ReplyRule::PassThrough => y,
            ReplyRule::Phi(op, delta) => op.apply(y, delta),
            ReplyRule::Const(v) => v,
            ReplyRule::Ack => 0,
        };
        Reply {
            id: self.absorbed_id,
            dst: self.absorbed_pe,
            addr: self.addr,
            value,
            kind: self.absorbed_reply_kind,
            request_issued_at: self.absorbed_issued_at,
            mm_injected_at: 0,
            // Only attempt-0 requests ever combine, so the absorbed
            // request's owed reply is always for its original issue.
            attempt: 0,
            // Both requests met in this copy; the switch stamps it.
            copy: 0,
        }
    }
}

/// Whether two kinds can combine at all (used for cheap pre-screening).
#[must_use]
pub fn kinds_combinable(a: MsgKind, b: MsgKind) -> bool {
    use MsgKind::{FetchPhi, Load, Store};
    match (a, b) {
        (Load, Load) | (Store, Store) | (Load, Store) | (Store, Load) => true,
        (FetchPhi(x), FetchPhi(y)) => x == y,
        (FetchPhi(_), Load) | (Load, FetchPhi(_)) => true,
        (FetchPhi(_), Store) | (Store, FetchPhi(_)) => true,
    }
}

/// Whether the retry protocol keeps two requests apart. Retried requests
/// never combine: the original issue may still be alive somewhere in the
/// machine, and the exactly-once guarantee requires that a duplicate of an
/// already-applied logical request is only ever recognized at the MM's
/// dedup cache — folding it into a fresh request would smuggle its effect
/// past that cache. The same rule keeps apart the (pathological) meeting
/// of two messages that already share a folded constituent; without lists
/// that is one id compare.
#[must_use]
pub fn retry_forbids(queued: &Message, incoming: &Message) -> bool {
    queued.attempt > 0
        || incoming.attempt > 0
        || (queued.constituents().iter()).any(|id| incoming.constituents().contains(id))
}

/// Attempts to combine `incoming` into the queued request `queued`.
///
/// On success the queued slot is mutated into the request that continues
/// toward memory (its id, kind and value may all change) and a [`WaitEntry`]
/// describing the absorbed request is returned. On failure (`None`) neither
/// argument is modified.
///
/// The caller is responsible for the §3.3 *pair-only* restriction (a slot
/// that has already combined in this switch must not be offered again) and
/// for wait-buffer capacity.
#[must_use]
pub fn try_combine(queued: &mut Message, incoming: &Message) -> Option<WaitEntry> {
    // Declined before anything moves: on `None` neither argument changes.
    if queued.addr != incoming.addr
        || retry_forbids(queued, incoming)
        || !kinds_combinable(queued.kind, incoming.kind)
    {
        return None;
    }
    // On a machine running the retry protocol every message carries its
    // folded-id list, and the forwarded request now answers for every
    // constituent of both: the queued list is extended in place and put
    // back once the arms below have settled the slot's identity.
    let folded = queued.folded.take().map(|mut list| {
        list.extend_from_slice(incoming.constituents());
        list
    });
    use MsgKind::{FetchPhi, Load, Store};

    // Each arm decides: (a) what the forwarded request looks like (mutation
    // of `queued`), and (b) the absorbed request's reply rule.
    let entry = match (queued.kind, incoming.kind) {
        // Load + Load: forward one, both get Y.
        (Load, Load) => wait_for(queued.id, incoming, ReplyRule::PassThrough),

        // Store(f) queued, Load incoming: forward the store; the load is
        // satisfied by the store's datum (paper rule 2, §3.1.2).
        (Store, Load) => wait_for(queued.id, incoming, ReplyRule::Const(queued.value)),

        // Load queued, Store incoming: the store must be the one forwarded,
        // so the slot takes over the store's identity; the load is absorbed
        // (serialization: store first, then load).
        (Load, Store) => {
            let absorbed = wait_for(incoming.id, queued, ReplyRule::Const(incoming.value));
            *queued = incoming.clone();
            absorbed
        }

        // Store + Store: forward either and ignore the other (paper rule 3);
        // serializing queued-then-incoming means the incoming datum is the
        // one memory keeps.
        (Store, Store) => {
            queued.value = incoming.value;
            wait_for(queued.id, incoming, ReplyRule::Ack)
        }

        // FetchPhi + FetchPhi with the same operator (§3.1.3, Figure 3):
        // forward FΦ(φ(e,f)); the absorbed request gets φ(Y, e).
        (FetchPhi(op), FetchPhi(_)) => {
            let delta = queued.value;
            queued.value = op.apply(queued.value, incoming.value);
            wait_for(queued.id, incoming, ReplyRule::Phi(op, delta))
        }

        // FetchPhi(e) queued, Load incoming: the load is serialized after
        // the fetch and observes φ(Y, e) — the generalization of the
        // paper's "Treat Load(X) as FetchAdd(X,0)".
        (FetchPhi(op), Load) => wait_for(queued.id, incoming, ReplyRule::Phi(op, queued.value)),

        // Load queued, FetchPhi incoming: serialize the load first — it
        // observes Y; the fetch must be the one reaching memory, so the
        // slot takes over the fetch's identity and the load is absorbed.
        (Load, FetchPhi(_)) => {
            let absorbed = wait_for(incoming.id, queued, ReplyRule::PassThrough);
            *queued = incoming.clone();
            absorbed
        }

        // Store(f) queued, FetchPhi(e) incoming: forward Store(φ(f,e));
        // the fetch observes f (paper rule 3, §3.1.3, serialization
        // store-then-fetch).
        (Store, FetchPhi(op)) => {
            let f = queued.value;
            queued.value = op.apply(f, incoming.value);
            wait_for(queued.id, incoming, ReplyRule::Const(f))
        }

        // FetchPhi(e) queued, Store(f) incoming: same serialization
        // (store first): forward Store(φ(f,e)) under the store's identity;
        // the fetch is absorbed and observes f.
        (FetchPhi(op), Store) => {
            let e = queued.value;
            let f = incoming.value;
            let absorbed = wait_for(incoming.id, queued, ReplyRule::Const(f));
            *queued = incoming.clone();
            queued.value = op.apply(f, e);
            absorbed
        }
    };
    queued.folded = folded;
    Some(entry)
}

/// Builds the wait entry recording that `absorbed`'s reply is owed when
/// `survivor`'s reply returns.
fn wait_for(survivor: MsgId, absorbed: &Message, rule: ReplyRule) -> WaitEntry {
    WaitEntry {
        survivor,
        absorbed_id: absorbed.id,
        absorbed_pe: absorbed.src,
        addr: absorbed.addr,
        absorbed_issued_at: absorbed.issued_at,
        absorbed_reply_kind: if absorbed.kind.reply_carries_data() {
            ReplyKind::Value
        } else {
            ReplyKind::Ack
        },
        rule,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultra_sim::MmId;

    fn req(id: u64, kind: MsgKind, value: Value, pe: usize) -> Message {
        Message::request(
            MsgId(id),
            kind,
            MemAddr::new(MmId(2), 7),
            value,
            PeId(pe),
            0,
        )
    }

    #[test]
    fn different_addresses_never_combine() {
        let mut a = req(1, MsgKind::Load, 0, 0);
        let mut b = req(2, MsgKind::Load, 0, 1);
        b.addr = MemAddr::new(MmId(2), 8);
        assert!(try_combine(&mut a, &b).is_none());
    }

    #[test]
    fn load_load_passes_through() {
        let mut q = req(1, MsgKind::Load, 0, 0);
        let i = req(2, MsgKind::Load, 0, 1);
        let e = try_combine(&mut q, &i).unwrap();
        assert_eq!(q.kind, MsgKind::Load);
        assert_eq!(e.survivor, MsgId(1));
        assert_eq!(e.absorbed_id, MsgId(2));
        let r = e.make_reply(42);
        assert_eq!(r.value, 42);
        assert_eq!(r.kind, ReplyKind::Value);
        assert_eq!(r.dst, PeId(1));
    }

    #[test]
    fn faa_faa_matches_paper_figure3() {
        // F&A(X,e) queued, F&A(X,f) incoming: forward F&A(X, e+f); when Y
        // returns, the queued one gets Y and the incoming one gets Y+e.
        let mut q = req(1, MsgKind::fetch_add(), 5, 0); // e = 5
        let i = req(2, MsgKind::fetch_add(), 9, 1); // f = 9
        let e = try_combine(&mut q, &i).unwrap();
        assert_eq!(q.kind, MsgKind::fetch_add());
        assert_eq!(q.value, 14);
        assert_eq!(q.id, MsgId(1));
        let r = e.make_reply(100); // memory held X = 100
        assert_eq!(r.value, 105, "absorbed F&A observes X + e");
        assert_eq!(r.id, MsgId(2));
    }

    #[test]
    fn store_store_keeps_newer_datum() {
        let mut q = req(1, MsgKind::Store, 5, 0);
        let i = req(2, MsgKind::Store, 9, 1);
        let e = try_combine(&mut q, &i).unwrap();
        assert_eq!(q.value, 9, "paper: datum of R-old replaced by R-new's");
        let r = e.make_reply(0);
        assert_eq!(r.kind, ReplyKind::Ack);
    }

    #[test]
    fn store_then_load_answers_load_with_datum() {
        let mut q = req(1, MsgKind::Store, 77, 0);
        let i = req(2, MsgKind::Load, 0, 1);
        let e = try_combine(&mut q, &i).unwrap();
        assert_eq!(q.kind, MsgKind::Store);
        let r = e.make_reply(0);
        assert_eq!(r.value, 77);
        assert_eq!(r.kind, ReplyKind::Value);
    }

    #[test]
    fn load_then_store_forwards_store_and_answers_load() {
        let mut q = req(1, MsgKind::Load, 0, 0);
        let i = req(2, MsgKind::Store, 55, 1);
        let e = try_combine(&mut q, &i).unwrap();
        assert_eq!(q.kind, MsgKind::Store, "store must be the one forwarded");
        assert_eq!(q.id, MsgId(2), "slot takes the store's identity");
        assert_eq!(e.survivor, MsgId(2));
        assert_eq!(e.absorbed_id, MsgId(1));
        let r = e.make_reply(0);
        assert_eq!(r.value, 55);
        assert_eq!(r.kind, ReplyKind::Value);
        assert_eq!(r.dst, PeId(0));
    }

    #[test]
    fn faa_then_load_treats_load_as_faa_zero() {
        let mut q = req(1, MsgKind::fetch_add(), 4, 0);
        let i = req(2, MsgKind::Load, 0, 1);
        let e = try_combine(&mut q, &i).unwrap();
        assert_eq!(q.value, 4, "forwarded operand unchanged (identity)");
        let r = e.make_reply(10);
        assert_eq!(r.value, 14, "load observes X + e");
    }

    #[test]
    fn load_then_faa_load_observes_old_value() {
        let mut q = req(1, MsgKind::Load, 0, 0);
        let i = req(2, MsgKind::fetch_add(), 4, 1);
        let e = try_combine(&mut q, &i).unwrap();
        assert_eq!(q.kind, MsgKind::fetch_add(), "fetch must reach memory");
        assert_eq!(q.id, MsgId(2));
        assert_eq!(e.absorbed_id, MsgId(1));
        let r = e.make_reply(10);
        assert_eq!(r.value, 10, "load serialized before the fetch sees X");
    }

    #[test]
    fn store_then_faa_matches_paper_rule() {
        // Paper: FetchAdd(X,e)-Store(X,f) -> transmit Store(e+f), satisfy
        // the fetch-and-add by returning f.
        let mut q = req(1, MsgKind::Store, 7, 0); // f = 7
        let i = req(2, MsgKind::fetch_add(), 5, 1); // e = 5
        let e = try_combine(&mut q, &i).unwrap();
        assert_eq!(q.kind, MsgKind::Store);
        assert_eq!(q.value, 12);
        let r = e.make_reply(0);
        assert_eq!(r.value, 7, "fetch-and-add observes f");
        assert_eq!(r.kind, ReplyKind::Value);
    }

    #[test]
    fn faa_then_store_swaps_roles() {
        let mut q = req(1, MsgKind::fetch_add(), 5, 0); // e = 5
        let i = req(2, MsgKind::Store, 7, 1); // f = 7
        let e = try_combine(&mut q, &i).unwrap();
        assert_eq!(q.kind, MsgKind::Store, "store continues to memory");
        assert_eq!(q.id, MsgId(2));
        assert_eq!(q.value, 12, "memory must end at f + e");
        assert_eq!(e.absorbed_id, MsgId(1));
        let r = e.make_reply(0);
        assert_eq!(r.value, 7, "fetch-and-add observes f");
    }

    #[test]
    fn swap_swap_combines_associatively() {
        // Two swaps: queued inserts e, incoming inserts f. Serialization
        // queued-then-incoming: queued observes X, incoming observes e,
        // memory ends at f.
        let mut q = req(1, MsgKind::FetchPhi(PhiOp::Second), 5, 0);
        let i = req(2, MsgKind::FetchPhi(PhiOp::Second), 9, 1);
        let e = try_combine(&mut q, &i).unwrap();
        assert_eq!(q.value, 9, "forwarded operand is φ(e,f) = f");
        let r = e.make_reply(100);
        assert_eq!(r.value, 5, "second swap observes the first's datum");
    }

    #[test]
    fn swap_then_load_observes_swapped_in_value() {
        // Swap(e) queued, Load incoming: the load serialized after the swap
        // observes φ(Y, e) = e. Works despite Second having no identity.
        let mut q = req(1, MsgKind::FetchPhi(PhiOp::Second), 5, 0);
        let i = req(2, MsgKind::Load, 0, 1);
        let e = try_combine(&mut q, &i).unwrap();
        assert!(kinds_combinable(
            MsgKind::FetchPhi(PhiOp::Second),
            MsgKind::Load
        ));
        let r = e.make_reply(100);
        assert_eq!(r.value, 5);
    }

    #[test]
    fn mismatched_phi_ops_decline() {
        let mut q = req(1, MsgKind::FetchPhi(PhiOp::Add), 5, 0);
        let i = req(2, MsgKind::FetchPhi(PhiOp::Max), 9, 1);
        assert!(try_combine(&mut q, &i).is_none());
    }

    #[test]
    fn combining_merges_folded_id_lists() {
        let mut q = req(1, MsgKind::fetch_add(), 5, 0).tracked();
        let i = req(2, MsgKind::fetch_add(), 9, 1).tracked();
        try_combine(&mut q, &i).unwrap();
        assert_eq!(q.constituents(), [MsgId(1), MsgId(2)]);
        // A second combine keeps accumulating constituents.
        let j = req(3, MsgKind::fetch_add(), 1, 2).tracked();
        try_combine(&mut q, &j).unwrap();
        assert_eq!(q.constituents(), [MsgId(1), MsgId(2), MsgId(3)]);
    }

    #[test]
    fn identity_swap_arms_keep_merged_folded_list() {
        // Load + Store swaps identity to the store; the folded list must
        // still cover both constituents.
        let mut q = req(1, MsgKind::Load, 0, 0).tracked();
        let i = req(2, MsgKind::Store, 55, 1).tracked();
        try_combine(&mut q, &i).unwrap();
        assert_eq!(q.id, MsgId(2));
        assert_eq!(q.constituents(), [MsgId(1), MsgId(2)]);
    }

    #[test]
    fn messages_without_lists_combine_without_lists() {
        let mut q = req(1, MsgKind::fetch_add(), 5, 0);
        let i = req(2, MsgKind::fetch_add(), 9, 1);
        try_combine(&mut q, &i).unwrap();
        assert_eq!(q.folded, None, "nothing to merge on a fault-free machine");
        // Without lists, two messages with one id still never meet.
        let mut twin = req(1, MsgKind::fetch_add(), 1, 2);
        assert!(try_combine(&mut twin, &q).is_none());
    }

    #[test]
    fn retried_requests_never_combine() {
        let mut q = req(1, MsgKind::fetch_add(), 5, 0).as_retry(1, 10);
        let i = req(2, MsgKind::fetch_add(), 9, 1);
        assert!(try_combine(&mut q, &i).is_none(), "retried queued declines");
        let mut q2 = req(3, MsgKind::fetch_add(), 5, 0);
        let i2 = req(4, MsgKind::fetch_add(), 9, 1).as_retry(2, 10);
        assert!(
            try_combine(&mut q2, &i2).is_none(),
            "retried incoming declines"
        );
        assert_eq!(q2.value, 5, "declined combine leaves queued untouched");
    }

    #[test]
    fn shared_constituents_never_combine() {
        let mut q = req(1, MsgKind::fetch_add(), 5, 0).tracked();
        let mut i = req(2, MsgKind::fetch_add(), 9, 1);
        i.folded = Some(Box::new(vec![MsgId(2), MsgId(1)]));
        assert!(try_combine(&mut q, &i).is_none());
    }

    #[test]
    fn max_max_combines() {
        let mut q = req(1, MsgKind::FetchPhi(PhiOp::Max), 5, 0);
        let i = req(2, MsgKind::FetchPhi(PhiOp::Max), 9, 1);
        let e = try_combine(&mut q, &i).unwrap();
        assert_eq!(q.value, 9);
        let r = e.make_reply(3);
        assert_eq!(r.value, 5, "second max observes max(X, e) = max(3,5)");
    }
}
