//! Edge-case tests of the switch's combining machinery that the unit
//! tests don't reach: kind mutation changing packet counts, heterogeneous
//! combines resolved across a full network round trip, and wait-buffer
//! exhaustion under sustained hot traffic.

use ultra_net::config::NetConfig;
use ultra_net::message::{Message, MsgId, MsgKind, PhiOp, Reply, ReplyKind};
use ultra_net::omega::OmegaNetwork;
use ultra_sim::{MemAddr, MmId, PeId, Value};

/// Cycles `net` once through a fresh event buffer and returns it.
fn cyc(net: &mut ultra_net::omega::OmegaNetwork, now: u64) -> ultra_net::omega::NetworkEvents {
    let mut events = ultra_net::omega::NetworkEvents::default();
    net.cycle_into(now, &mut events);
    events
}

fn request(id: u64, pe: usize, kind: MsgKind, value: Value, addr: MemAddr) -> Message {
    Message::request(MsgId(id), kind, addr, value, PeId(pe), 0)
}

/// Drives the network until `want` replies return; panics after a budget.
fn collect_replies(net: &mut OmegaNetwork, mm_value: Value, want: usize) -> Vec<Reply> {
    let mut got = Vec::new();
    let mut served = false;
    let mut mem = mm_value;
    for now in 0..500 {
        let events = cyc(net, now);
        for req in events.requests_at_mm {
            assert!(!served || got.is_empty(), "single-request harness");
            let old = mem;
            let value = match req.kind {
                MsgKind::Load => old,
                MsgKind::Store => {
                    mem = req.value;
                    0
                }
                MsgKind::FetchPhi(op) => {
                    mem = op.apply(old, req.value);
                    old
                }
            };
            served = true;
            net.try_inject_reply(Reply::to_request(&req, value), now + 1)
                .expect("reverse path free");
        }
        got.extend(events.replies_at_pe);
        if got.len() == want {
            return got;
        }
    }
    panic!("only {} of {want} replies returned", got.len());
}

/// Load + Store combining changes the surviving slot from a 1-packet to a
/// 3-packet message; the queue's packet accounting must follow, and both
/// PEs must be answered with the right kinds.
#[test]
fn load_store_combine_resizes_and_answers_both() {
    let mut net = OmegaNetwork::new(NetConfig::small(8));
    let addr = MemAddr::new(MmId(3), 5);
    // PEs 0 and 4 share the stage-0 switch; inject in the same cycle so
    // the two requests meet there.
    net.try_inject_request(request(1, 0, MsgKind::Load, 0, addr), 0)
        .unwrap();
    net.try_inject_request(request(2, 4, MsgKind::Store, 77, addr), 0)
        .unwrap();
    let replies = collect_replies(&mut net, 0, 2);
    assert_eq!(net.stats().combines.get(), 1, "they must meet and combine");
    let load_reply = replies.iter().find(|r| r.id == MsgId(1)).expect("load");
    let store_reply = replies.iter().find(|r| r.id == MsgId(2)).expect("store");
    assert_eq!(load_reply.kind, ReplyKind::Value);
    assert_eq!(
        load_reply.value, 77,
        "combined load must observe the store's datum"
    );
    assert_eq!(store_reply.kind, ReplyKind::Ack);
}

/// Store + FetchAdd heterogeneous combining across the full round trip:
/// memory must end at f+e and the fetch must observe f.
#[test]
fn store_faa_combine_round_trip() {
    let mut net = OmegaNetwork::new(NetConfig::small(8));
    let addr = MemAddr::new(MmId(6), 2);
    net.try_inject_request(request(1, 1, MsgKind::Store, 50, addr), 0)
        .unwrap();
    net.try_inject_request(request(2, 5, MsgKind::FetchPhi(PhiOp::Add), 4, addr), 0)
        .unwrap();
    let mut mem_final = None;
    let mut got = Vec::new();
    let mut mem = 0i64;
    for now in 0..500 {
        let events = cyc(&mut net, now);
        for req in events.requests_at_mm {
            let old = mem;
            let v = match req.kind {
                MsgKind::Load => old,
                MsgKind::Store => {
                    mem = req.value;
                    0
                }
                MsgKind::FetchPhi(op) => {
                    mem = op.apply(old, req.value);
                    old
                }
            };
            mem_final = Some(mem);
            net.try_inject_reply(Reply::to_request(&req, v), now + 1)
                .unwrap();
        }
        got.extend(events.replies_at_pe);
        if got.len() == 2 {
            break;
        }
    }
    assert_eq!(got.len(), 2);
    assert_eq!(net.stats().combines.get(), 1);
    assert_eq!(mem_final, Some(54), "memory ends at f + e");
    let faa = got.iter().find(|r| r.id == MsgId(2)).expect("faa reply");
    assert_eq!(faa.value, 50, "fetch-and-add observes the store's datum");
    let store = got.iter().find(|r| r.id == MsgId(1)).expect("store ack");
    assert_eq!(store.kind, ReplyKind::Ack);
}

/// Swap + Swap (the non-commutative fetch-and-phi) across the round trip:
/// one swap observes the old memory, the other observes the first swap's
/// datum, memory keeps one of the two inserted values.
#[test]
fn swap_swap_combine_round_trip() {
    let mut net = OmegaNetwork::new(NetConfig::small(8));
    let addr = MemAddr::new(MmId(2), 9);
    net.try_inject_request(
        request(1, 2, MsgKind::FetchPhi(PhiOp::Second), 111, addr),
        0,
    )
    .unwrap();
    net.try_inject_request(
        request(2, 6, MsgKind::FetchPhi(PhiOp::Second), 222, addr),
        0,
    )
    .unwrap();
    let replies = collect_replies(&mut net, 999, 2);
    assert_eq!(net.stats().combines.get(), 1);
    let mut values: Vec<Value> = replies.iter().map(|r| r.value).collect();
    values.sort_unstable();
    // One observer sees the original 999; the other sees whichever datum
    // was serialized first (111, by queue order).
    assert_eq!(values, vec![111, 999]);
}

/// Finite *reverse* queues: decombining doubles reply traffic inside the
/// fabric, and `can_accept_reply` must reserve room for both the incoming
/// reply and its spawn. A hot-spot storm with tight ToPE queues must
/// still drain completely with correct prefix-sum replies.
#[test]
fn finite_reply_queues_survive_decombining_storm() {
    let mut cfg = NetConfig::small(16);
    cfg.reply_queue_packets = 6; // exactly two data replies per port
    let mut net = OmegaNetwork::new(cfg);
    let addr = MemAddr::new(MmId(5), 1);
    for pe in 0..16 {
        net.try_inject_request(
            request(200 + pe as u64, pe, MsgKind::FetchPhi(PhiOp::Add), 1, addr),
            0,
        )
        .unwrap();
    }
    let mut mem = 0i64;
    let mut replies = Vec::new();
    let mut outbox: Option<Reply> = None;
    for now in 0..5_000 {
        if let Some(r) = outbox.take() {
            if let Err(back) = net.try_inject_reply(r, now) {
                outbox = Some(back);
            }
        }
        let events = cyc(&mut net, now);
        for req in events.requests_at_mm {
            let old = mem;
            mem += req.value;
            let r = Reply::to_request(&req, old);
            if let Err(back) = net.try_inject_reply(r, now + 1) {
                assert!(outbox.is_none(), "one-outstanding MM harness");
                outbox = Some(back);
            }
        }
        replies.extend(events.replies_at_pe);
        if replies.len() == 16 {
            break;
        }
    }
    assert_eq!(replies.len(), 16, "tight reverse queues must not wedge");
    let mut vals: Vec<Value> = replies.iter().map(|r| r.value).collect();
    vals.sort_unstable();
    assert_eq!(vals, (0..16).collect::<Vec<Value>>());
    assert!(net.stats().combines.get() > 0);
}

/// With a zero-entry wait buffer, hot traffic still completes — just
/// without combining (every request serializes at the MM).
#[test]
fn wait_buffer_exhaustion_degrades_gracefully() {
    let mut cfg = NetConfig::small(16);
    cfg.wait_entries = 0;
    let mut net = OmegaNetwork::new(cfg);
    let addr = MemAddr::new(MmId(0), 0);
    for pe in 0..16 {
        net.try_inject_request(
            request(100 + pe as u64, pe, MsgKind::FetchPhi(PhiOp::Add), 1, addr),
            0,
        )
        .unwrap();
    }
    // Serve the MM one request at a time.
    let mut mem = 0i64;
    let mut got = 0;
    let mut observed = Vec::new();
    for now in 0..2_000 {
        let events = cyc(&mut net, now);
        for req in events.requests_at_mm {
            let old = mem;
            mem += req.value;
            net.try_inject_reply(Reply::to_request(&req, old), now + 1)
                .unwrap();
        }
        for r in events.replies_at_pe {
            observed.push(r.value);
            got += 1;
        }
        if got == 16 {
            break;
        }
    }
    assert_eq!(got, 16, "all requests served without combining");
    assert_eq!(net.stats().combines.get(), 0);
    assert!(net.stats().wait_buffer_declines.get() > 0);
    observed.sort_unstable();
    assert_eq!(observed, (0..16).collect::<Vec<i64>>());
    assert_eq!(mem, 16);
}
