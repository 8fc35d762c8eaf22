//! Property test of the sparse sweep's occupancy bookkeeping: after *any*
//! sequence of injections, cycles, backpressure stalls and fault events,
//! each stage's active set must contain exactly the switches whose queues
//! hold traffic in that direction — no stale members (wasted visits are
//! harmless but the set is specified as exact) and, critically, no missing
//! ones (a missing member is a switch the sparse sweep would never visit,
//! i.e. stuck traffic).
//!
//! Fault events exercised mid-sequence: dead switch ports (blocks routes
//! at injection time), lossy PE links (message consumes the wire but never
//! enters the fabric), poisoned wait-buffer entries (permanently shrinks a
//! switch's combining capacity without ever counting as traffic), and a
//! mid-run copy kill.

use ultra_faults::FaultMask;
use ultra_net::config::{NetConfig, SwitchPolicy};
use ultra_net::message::{Message, MsgId, MsgKind, PhiOp, Reply};
use ultra_net::omega::{NetworkEvents, OmegaNetwork};
use ultra_sim::rng::{Rng, SplitMix64};
use ultra_sim::{MemAddr, MmId, PeId};

/// Asserts the invariant.
fn check_exact(net: &OmegaNetwork, what: &str) {
    if let Err(e) = net.active_sets_exact() {
        panic!("active-set invariant broken {what}: {e}");
    }
}

fn random_request(rng: &mut SplitMix64, n: usize, next_id: &mut u64) -> Message {
    let pe = rng.below(n);
    let mm = rng.below(n);
    let kind = match rng.below(4) {
        0 => MsgKind::Load,
        1 => MsgKind::Store,
        _ => MsgKind::FetchPhi(PhiOp::Add),
    };
    let id = *next_id;
    *next_id += 1;
    Message::request(
        MsgId(id),
        kind,
        MemAddr {
            mm: MmId(mm),
            offset: rng.below(4),
        },
        rng.below(100) as i64,
        PeId(pe),
        0,
    )
}

#[test]
fn active_sets_stay_exact_under_arbitrary_sequences() {
    for case in 0..40u64 {
        let mut rng = SplitMix64::new(0xAC71_5E70 ^ case.wrapping_mul(0x9e37_79b9));
        let n = 1usize << (2 + rng.below(3)); // 4..16 PEs
        let mut cfg = NetConfig::small(n);
        // Small queues + tiny wait buffers force backpressure, combining
        // declines, and (for the drop policy below) real drops.
        cfg.request_queue_packets = 3 + rng.below(6);
        cfg.reply_queue_packets = 6 + rng.below(8);
        cfg.wait_entries = 1 + rng.below(3);
        cfg.policy = match rng.below(3) {
            0 => SwitchPolicy::QueuedCombining,
            1 => SwitchPolicy::QueuedNoCombine,
            _ => SwitchPolicy::DropOnConflict,
        };
        let mut net = OmegaNetwork::new(cfg);

        // Static fault flavour for some cases: a dead port and a lossy
        // PE link, both exercised at injection time.
        if rng.below(2) == 0 {
            let topo = net.topology();
            let mut mask = FaultMask::healthy();
            mask.kill_port(
                rng.below(topo.stages()),
                rng.below(topo.switches_per_stage()),
                rng.below(2),
            );
            if rng.below(2) == 0 {
                mask.set_link_loss(0.15, rng.next_u64());
            }
            net.set_fault_mask(mask);
        }

        let mut next_id = 1u64;
        let mut events = NetworkEvents::default();
        let mut mm_queue: Vec<Vec<Message>> = vec![Vec::new(); n];
        let steps = 60 + rng.below(120) as u64;
        for now in 0..steps {
            // A burst of injection attempts (backpressure rejections are
            // part of the sequence being tested).
            for _ in 0..rng.below(4) {
                let msg = random_request(&mut rng, n, &mut next_id);
                let _ = net.try_inject_request(msg, now);
                check_exact(&net, "after try_inject_request");
            }
            // MMs answer some queued arrivals (LIFO here on purpose — the
            // invariant must not depend on service order).
            for queue in mm_queue.iter_mut() {
                if !queue.is_empty() && rng.below(3) == 0 {
                    let req = queue.pop().expect("non-empty");
                    let reply = Reply::to_request(&req, 7);
                    let _ = net.try_inject_reply(reply, now);
                    check_exact(&net, "after try_inject_reply");
                }
            }
            // Mid-sequence fault events.
            if rng.below(24) == 0 {
                let topo = net.topology();
                let stage = rng.below(topo.stages());
                let sw = rng.below(topo.switches_per_stage());
                let _ = net.poison_wait_entry(stage, sw);
                check_exact(&net, "after poison_wait_entry");
            }
            if case % 7 == 0 && now == steps / 2 {
                net.kill();
                check_exact(&net, "after kill");
            }
            net.cycle_into(now, &mut events);
            check_exact(&net, "after cycle_into");
            for msg in events.requests_at_mm.drain(..) {
                mm_queue[msg.addr.mm.0].push(msg);
            }
            events.replies_at_pe.clear();
            events.dropped.clear();
        }
        // Drain: stop injecting, keep answering, and run until quiet; the
        // invariant must hold through the emptying transitions too, and
        // `is_drained` (which *trusts* the active sets) must agree with
        // the ground truth the checker scans.
        for now in steps..steps + 10 * steps + 500 {
            for queue in mm_queue.iter_mut() {
                if let Some(req) = queue.pop() {
                    let reply = Reply::to_request(&req, 7);
                    if net.try_inject_reply(reply, now).is_err() {
                        queue.push(req); // retry next cycle
                    }
                }
            }
            net.cycle_into(now, &mut events);
            check_exact(&net, "while draining");
            for msg in events.requests_at_mm.drain(..) {
                mm_queue[msg.addr.mm.0].push(msg);
            }
            events.replies_at_pe.clear();
            events.dropped.clear();
            if net.is_drained() && mm_queue.iter().all(Vec::is_empty) {
                break;
            }
        }
        assert!(
            net.is_drained() && mm_queue.iter().all(Vec::is_empty),
            "case {case}: traffic failed to drain (stuck switch would mean \
             a missing active-set member)"
        );
        check_exact(&net, "after drain");
    }
}
