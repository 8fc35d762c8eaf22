//! Network messages: memory requests, replies, and the fetch-and-phi
//! operation set.
//!
//! The paper's sole synchronization primitive is fetch-and-add (§2.2), a
//! special case of the more general *fetch-and-phi* (§2.4): atomically fetch
//! the old value of `V` and replace it with `phi(V, e)`. Any **associative**
//! `phi` can be combined in the network switches exactly like addition
//! (§3.1.3 "a straightforward generalization of the above design yields a
//! network implementing the fetch-and-phi primitive for any associative
//! operator phi"); this module implements that generalization.
//!
//! Packet lengths follow the §4.2 NETSIM model: a message that carries no
//! data (a load request, a store acknowledgement) is **one** packet; a
//! message with a data word is **three** packets.

use ultra_sim::wire::{Wire, WireError, WireReader, WireWriter};
use ultra_sim::{Cycle, MemAddr, PeId, Value};

/// Unique identifier of an outstanding memory request.
///
/// Combining keeps the *surviving* request's id on the wire; wait-buffer
/// entries are keyed by the survivor id, and each absorbed request's own id
/// is regenerated on the reply spawned during decombining.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId(pub u64);

/// The associative operators accepted by fetch-and-phi (§2.4).
///
/// All of these are associative, which is the property the combining proof
/// requires; the subset that is also commutative yields final memory values
/// independent of serialization order (§2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhiOp {
    /// Integer addition — the paper's fetch-and-add (wrapping).
    Add,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Maximum.
    Max,
    /// Minimum.
    Min,
    /// The projection π₂(a, b) = b, which makes fetch-and-phi a `swap`
    /// (§2.4). Associative but not commutative.
    Second,
}

impl PhiOp {
    /// Applies the operator: `phi(a, b)`.
    #[must_use]
    pub fn apply(self, a: Value, b: Value) -> Value {
        match self {
            PhiOp::Add => a.wrapping_add(b),
            PhiOp::And => a & b,
            PhiOp::Or => a | b,
            PhiOp::Xor => a ^ b,
            PhiOp::Max => a.max(b),
            PhiOp::Min => a.min(b),
            PhiOp::Second => b,
        }
    }

    /// The right identity of the operator, if one exists: `phi(a, id) = a`.
    ///
    /// Used to combine a load with a fetch-and-phi by treating the load as
    /// `FetchPhi(op, identity)` — the generalization of the paper's
    /// "Treat Load(X) as FetchAdd(X, 0)" rule (§3.1.3 item 2).
    #[must_use]
    pub fn identity(self) -> Option<Value> {
        match self {
            PhiOp::Add | PhiOp::Xor | PhiOp::Or => Some(0),
            PhiOp::And => Some(-1),
            PhiOp::Max => Some(Value::MIN),
            PhiOp::Min => Some(Value::MAX),
            PhiOp::Second => None,
        }
    }
}

impl Wire for PhiOp {
    fn encode(&self, w: &mut WireWriter) {
        w.u8(match self {
            Self::Add => 0,
            Self::And => 1,
            Self::Or => 2,
            Self::Xor => 3,
            Self::Max => 4,
            Self::Min => 5,
            Self::Second => 6,
        });
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => Self::Add,
            1 => Self::And,
            2 => Self::Or,
            3 => Self::Xor,
            4 => Self::Max,
            5 => Self::Min,
            6 => Self::Second,
            _ => return Err(WireError::Invalid("phi-op tag")),
        })
    }
}

/// The function indicator of a memory request (§3.3: "load, store, or
/// fetch-and-add", generalized to fetch-and-phi).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgKind {
    /// Read a word; carries no data on the forward trip.
    Load,
    /// Write a word; acknowledged with a dataless reply.
    Store,
    /// Atomically fetch the old value and store `phi(old, e)`.
    FetchPhi(PhiOp),
}

impl MsgKind {
    /// The paper's fetch-and-add.
    #[must_use]
    pub fn fetch_add() -> Self {
        MsgKind::FetchPhi(PhiOp::Add)
    }

    /// Whether the forward message carries a data word.
    #[must_use]
    pub fn carries_data(self) -> bool {
        !matches!(self, MsgKind::Load)
    }

    /// Whether the reply carries a data word (loads and fetch-and-phis do;
    /// store acknowledgements do not).
    #[must_use]
    pub fn reply_carries_data(self) -> bool {
        !matches!(self, MsgKind::Store)
    }
}

/// A memory request travelling from a PE toward an MM.
///
/// The §3.1.1 routing register — the origin/destination *amalgam* — is
/// not part of the message: it is fabric state, a word of the slot's link
/// record in the request slab ([`crate::queue::Link::amalgam`]). The
/// fabric derives it from `addr` when the request enters and steps it at
/// every switch, so a hop routes without reading the message at all.
///
/// A fault-free message is a flat 64-byte value: the folded-id list that
/// the retry protocol's dedup cache needs is off the message (`folded` is
/// `None`) unless the issuing PNI runs that protocol ([`Message::tracked`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Unique request id (survives combining).
    pub id: MsgId,
    /// Function indicator.
    pub kind: MsgKind,
    /// Destination memory word.
    pub addr: MemAddr,
    /// Store datum or fetch-and-phi operand (ignored for loads).
    pub value: Value,
    /// Originating PE.
    pub src: PeId,
    /// Cycle at which the PNI injected the request.
    pub issued_at: Cycle,
    /// Retry attempt: 0 for the original issue, incremented by the PNI on
    /// each timeout re-issue (the id doubles as the sequence number).
    /// Retried messages are never combined — the original may still be
    /// alive, and two live copies of one id must not meet in a wait buffer.
    pub attempt: u32,
    /// The network copy carrying the request (§4.1), stamped by the fabric
    /// that injects it; its reply returns through the same copy.
    pub copy: u8,
    /// Every logical request folded into this message by combining (its
    /// own id plus each absorbed message's list), carried only by a
    /// machine that runs the retry protocol: the MM's dedup cache records
    /// all of them, so a retry of any constituent of an already-applied
    /// combined request is recognized as a duplicate. `None` — every
    /// fault-free message — stands for "just my own id"
    /// ([`Message::constituents`]).
    pub folded: Option<Box<Vec<MsgId>>>,
}

impl Message {
    /// Builds a request about to enter the network, without a folded-id
    /// list.
    #[must_use]
    pub fn request(
        id: MsgId,
        kind: MsgKind,
        addr: MemAddr,
        value: Value,
        src: PeId,
        issued_at: Cycle,
    ) -> Self {
        Self {
            id,
            kind,
            addr,
            value,
            src,
            issued_at,
            attempt: 0,
            copy: 0,
            folded: None,
        }
    }

    /// Gives this request its folded-id list, holding its own id: how a
    /// PNI running the retry protocol issues every request.
    #[must_use]
    pub fn tracked(mut self) -> Self {
        self.folded = Some(Box::new(vec![self.id]));
        self
    }

    /// Marks this message as retry attempt `attempt` of the same logical
    /// request (same id/sequence number), re-entering the network at
    /// `now`. A retry always carries its list, reset to its own id.
    #[must_use]
    pub fn as_retry(mut self, attempt: u32, now: Cycle) -> Self {
        self.attempt = attempt;
        self.issued_at = now;
        self.tracked()
    }

    /// The logical requests this message answers for: its folded-id list,
    /// or its own id when it carries none.
    #[must_use]
    pub fn constituents(&self) -> &[MsgId] {
        match &self.folded {
            Some(list) => list,
            None => std::slice::from_ref(&self.id),
        }
    }

    /// Length of the forward message in packets under the §4.2 model.
    #[must_use]
    pub fn packets(&self, data_packets: u8, ctl_packets: u8) -> u8 {
        if self.kind.carries_data() {
            data_packets
        } else {
            ctl_packets
        }
    }
}

/// What a reply delivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplyKind {
    /// A data word (load result or the fetched old value).
    Value,
    /// A dataless store acknowledgement.
    Ack,
}

/// A reply travelling from an MM back to a PE. Like a request's, its
/// reverse-trip amalgam is a word of its link record in the reply slab,
/// derived from `dst` when it enters the fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Id of the request being answered.
    pub id: MsgId,
    /// The PE this reply must reach.
    pub dst: PeId,
    /// The memory word that was accessed (wait-buffer key component).
    pub addr: MemAddr,
    /// Loaded/fetched value; meaningless for acknowledgements.
    pub value: Value,
    /// Whether a data word is carried.
    pub kind: ReplyKind,
    /// Cycle at which the original request was injected (latency tracking).
    pub request_issued_at: Cycle,
    /// Cycle at which the MNI injected this reply into the reverse network
    /// (set by the network on injection; used for reverse-transit stats).
    pub mm_injected_at: Cycle,
    /// Which attempt of the request this reply answers (copied from the
    /// request; lets the PNI/machine pair replies with retried issues).
    pub attempt: u32,
    /// The network copy that carried the request, which carries this
    /// reply back (copied from the request).
    pub copy: u8,
}

impl Reply {
    /// Builds the MM-side reply to `req` carrying `value`.
    #[must_use]
    pub fn to_request(req: &Message, value: Value) -> Self {
        Self {
            id: req.id,
            dst: req.src,
            addr: req.addr,
            value,
            kind: if req.kind.reply_carries_data() {
                ReplyKind::Value
            } else {
                ReplyKind::Ack
            },
            request_issued_at: req.issued_at,
            mm_injected_at: 0,
            attempt: req.attempt,
            copy: req.copy,
        }
    }

    /// Length of the reply in packets under the §4.2 model.
    #[must_use]
    pub fn packets(&self, data_packets: u8, ctl_packets: u8) -> u8 {
        match self.kind {
            ReplyKind::Value => data_packets,
            ReplyKind::Ack => ctl_packets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultra_sim::MmId;

    fn msg(kind: MsgKind) -> Message {
        Message::request(MsgId(1), kind, MemAddr::new(MmId(3), 4), 9, PeId(2), 5)
    }

    #[test]
    fn phi_apply_matches_definitions() {
        assert_eq!(PhiOp::Add.apply(3, 4), 7);
        assert_eq!(PhiOp::And.apply(0b1100, 0b1010), 0b1000);
        assert_eq!(PhiOp::Or.apply(0b1100, 0b1010), 0b1110);
        assert_eq!(PhiOp::Xor.apply(0b1100, 0b1010), 0b0110);
        assert_eq!(PhiOp::Max.apply(-3, 4), 4);
        assert_eq!(PhiOp::Min.apply(-3, 4), -3);
        assert_eq!(PhiOp::Second.apply(1, 2), 2);
    }

    #[test]
    fn phi_identities_are_right_identities() {
        for op in [
            PhiOp::Add,
            PhiOp::And,
            PhiOp::Or,
            PhiOp::Xor,
            PhiOp::Max,
            PhiOp::Min,
        ] {
            let id = op.identity().unwrap();
            for a in [-17, 0, 3, Value::MAX, Value::MIN] {
                assert_eq!(op.apply(a, id), a, "{op:?}");
            }
        }
        assert_eq!(PhiOp::Second.identity(), None);
    }

    #[test]
    fn phi_associativity_spot_checks() {
        let ops = [
            PhiOp::Add,
            PhiOp::And,
            PhiOp::Or,
            PhiOp::Xor,
            PhiOp::Max,
            PhiOp::Min,
            PhiOp::Second,
        ];
        for op in ops {
            for a in [-5, 0, 7] {
                for b in [-2, 1, 9] {
                    for c in [-8, 0, 3] {
                        assert_eq!(
                            op.apply(op.apply(a, b), c),
                            op.apply(a, op.apply(b, c)),
                            "{op:?} not associative"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn add_wraps_instead_of_panicking() {
        assert_eq!(PhiOp::Add.apply(Value::MAX, 1), Value::MIN);
    }

    #[test]
    fn packet_lengths_follow_netsim_model() {
        assert_eq!(msg(MsgKind::Load).packets(3, 1), 1);
        assert_eq!(msg(MsgKind::Store).packets(3, 1), 3);
        assert_eq!(msg(MsgKind::fetch_add()).packets(3, 1), 3);

        let load_reply = Reply::to_request(&msg(MsgKind::Load), 42);
        assert_eq!(load_reply.kind, ReplyKind::Value);
        assert_eq!(load_reply.packets(3, 1), 3);

        let store_reply = Reply::to_request(&msg(MsgKind::Store), 0);
        assert_eq!(store_reply.kind, ReplyKind::Ack);
        assert_eq!(store_reply.packets(3, 1), 1);
    }

    #[test]
    fn messages_stay_small() {
        assert_eq!(std::mem::size_of::<Message>(), 64);
        assert_eq!(std::mem::size_of::<Reply>(), 64);
    }

    #[test]
    fn folded_lists_name_every_constituent() {
        let plain = msg(MsgKind::Load);
        assert_eq!(plain.constituents(), [MsgId(1)]);
        let mut tracked = msg(MsgKind::Load).tracked();
        tracked.folded.as_mut().unwrap().push(MsgId(4));
        assert_eq!(tracked.constituents(), [MsgId(1), MsgId(4)]);
        let retry = plain.as_retry(2, 9);
        assert_eq!(retry.constituents(), [MsgId(1)]);
        assert!(retry.folded.is_some(), "a retry carries its list");
    }

    #[test]
    fn reply_inherits_request_identity() {
        let m = msg(MsgKind::fetch_add());
        let r = Reply::to_request(&m, 100);
        assert_eq!(r.id, m.id);
        assert_eq!(r.dst, m.src);
        assert_eq!(r.addr, m.addr);
        assert_eq!(r.value, 100);
        assert_eq!(r.request_issued_at, 5);
    }
}
