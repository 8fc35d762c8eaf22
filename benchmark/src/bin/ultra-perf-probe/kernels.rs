//! Isolated kernels: one layer's public API at a time, driven directly
//! with the workload's kind of traffic. Each reports the minimum over
//! its repetitions (the same one-sided-noise argument as floor time).

use std::hint::black_box;
use std::time::{Duration, Instant};

use ultra_mem::{AddressHasher, MemBank, TranslationMode};
use ultra_net::config::NetConfig;
use ultra_net::message::{Message, MsgId, MsgKind, PhiOp, Reply};
use ultra_net::omega::{NetworkEvents, OmegaNetwork};
use ultra_pe::pni::Pni;
use ultra_perf::gen::{self, Rng};
use ultra_perf::stats::SliceFloors;
use ultra_serve::json::parse_object;
use ultra_serve::queue::JobQueue;
use ultra_serve::spec::{JobSpec, Workload};
use ultra_sim::{MemAddr, MmId, PeId};
use ultracomputer::interp::{Fetched, PeInterp};
use ultracomputer::program::Program;

use crate::ProbeDoc;

/// Fabric size of the network kernels.
const NET_PES: usize = 1024;

/// Simulated cycles per network-kernel repetition.
const NET_CYCLES: u64 = 1500;

/// A well-mixed function of `x`: the kernels' address scatter.
fn mix(x: u64) -> u64 {
    Rng::new(x, 0).next_u64()
}

/// Runs `body` (which returns nanoseconds per unit) until `budget` is
/// spent, at least twice, and returns the minimum.
fn floor_of(budget: Duration, mut body: impl FnMut() -> f64) -> f64 {
    let started = Instant::now();
    let mut best = f64::INFINITY;
    let mut reps = 0;
    while reps < 2 || started.elapsed() < budget {
        best = best.min(body());
        reps += 1;
    }
    best
}

/// Host ns per simulated cycle spent inside the network's own calls
/// (`try_inject_request`, `try_inject_reply`, `cycle_into`) on a
/// 1024-PE fabric where every PE keeps one request in flight: all to
/// one word (`hot`, everything combines) or to hashed modules. Bank
/// service between the calls is not timed.
fn net_cycle_ns(hot: bool) -> f64 {
    let mut net = OmegaNetwork::new(NetConfig::small(NET_PES));
    let mut banks: Vec<MemBank> = (0..NET_PES).map(|i| MemBank::new(MmId(i), 2)).collect();
    let mut events = NetworkEvents::default();
    let mut in_flight = vec![false; NET_PES];
    let mut issued = vec![0u64; NET_PES];
    let mut in_net = Duration::ZERO;
    for now in 0..NET_CYCLES {
        let t = Instant::now();
        for pe in 0..NET_PES {
            if in_flight[pe] {
                continue;
            }
            let (kind, addr) = if hot {
                (MsgKind::FetchPhi(PhiOp::Add), MemAddr::new(MmId(0), 0))
            } else {
                let h = mix((pe as u64) << 32 | issued[pe]);
                (
                    MsgKind::Load,
                    MemAddr::new(MmId(h as usize % NET_PES), (h >> 32) as usize % 16),
                )
            };
            let msg = Message::request(net.next_msg_id(), kind, addr, 1, PeId(pe), now);
            if net.try_inject_request(msg, now).is_ok() {
                in_flight[pe] = true;
                issued[pe] += 1;
            }
        }
        in_net += t.elapsed();
        for bank in &mut banks {
            if bank.is_idle() {
                continue;
            }
            bank.cycle(now);
            while let Some(reply) = bank.peek_reply() {
                let reply = reply.clone();
                let t = Instant::now();
                let accepted = net.try_inject_reply(reply, now).is_ok();
                in_net += t.elapsed();
                if !accepted {
                    break;
                }
                let _ = bank.pop_reply();
            }
        }
        let t = Instant::now();
        net.cycle_into(now, &mut events);
        in_net += t.elapsed();
        for msg in events.requests_at_mm.drain(..) {
            banks[msg.addr.mm.0].push_request(msg);
        }
        for reply in events.replies_at_pe.drain(..) {
            in_flight[reply.dst.0] = false;
        }
    }
    black_box(net.stats().combines.get());
    in_net.as_nanos() as f64 / NET_CYCLES as f64
}

/// What a workload's memory traffic looks like to one bank.
#[derive(Clone, Copy, PartialEq)]
enum Traffic {
    /// Fetch-and-adds on one word.
    HotWord,
    /// Loads and stores alternating over many offsets.
    Scattered,
}

fn traffic_of(workload: &str) -> Traffic {
    if workload == "engine_scatter" {
        Traffic::Scattered
    } else {
        Traffic::HotWord
    }
}

fn request_kind(traffic: Traffic, i: u64) -> (MsgKind, usize) {
    match traffic {
        Traffic::HotWord => (MsgKind::FetchPhi(PhiOp::Add), 0),
        Traffic::Scattered => (
            if i % 2 == 0 {
                MsgKind::Load
            } else {
                MsgKind::Store
            },
            mix(i) as usize % 4096,
        ),
    }
}

/// Host ns per request through one `MemBank`: `push_request`, `cycle`
/// until served, `pop_reply`.
fn bank_ns_per_req(traffic: Traffic) -> f64 {
    const REQUESTS: u64 = 20_000;
    let mut bank = MemBank::new(MmId(0), 2);
    let mut now = 0;
    let started = Instant::now();
    for i in 0..REQUESTS {
        let (kind, offset) = request_kind(traffic, i);
        let msg = Message::request(
            MsgId(i + 1),
            kind,
            MemAddr::new(MmId(0), offset),
            1,
            PeId(0),
            now,
        );
        bank.push_request(msg);
        loop {
            bank.cycle(now);
            now += 1;
            if let Some(reply) = bank.pop_reply() {
                black_box(reply.value);
                break;
            }
        }
    }
    started.elapsed().as_nanos() as f64 / REQUESTS as f64
}

/// Host ns per request through one `Pni`: `issue` (translate, pipeline
/// policy, id) then `complete` with the matching reply.
fn pni_ns_per_req(traffic: Traffic) -> f64 {
    const REQUESTS: u64 = 20_000;
    let mut pni = Pni::new(PeId(3), AddressHasher::new(1024, TranslationMode::Hashed));
    let started = Instant::now();
    for i in 0..REQUESTS {
        let (kind, offset) = request_kind(traffic, i);
        let msg = pni
            .issue(kind, offset, 1, i)
            .expect("nothing else is outstanding");
        let reply = Reply::to_request(&msg, 0);
        black_box(pni.complete(&reply));
    }
    started.elapsed().as_nanos() as f64 / REQUESTS as f64
}

/// Host ns per `PeInterp::next_op` over `program`, replies delivered at
/// once so the interpreter never blocks: fetch, expression evaluation
/// and loop control, nothing else.
fn interp_ns_per_op(program: &Program, n_pes: usize) -> f64 {
    let mut ops = 0u64;
    let started = Instant::now();
    for pe in 0..64.min(n_pes) {
        let mut interp = PeInterp::new(PeId(pe), n_pes, program);
        let mut now = 0;
        loop {
            ops += 1;
            match interp.next_op(now) {
                Fetched::Work { instructions, .. } => now += u64::from(instructions),
                Fetched::Issue(spec) => {
                    if let Some(dst) = spec.dst {
                        interp.lock(dst);
                        interp.write_and_unlock(dst, ops as i64);
                    }
                    now += 1;
                }
                Fetched::Barrier | Fetched::Fence => now += 1,
                Fetched::BlockedOnReg(reg) => interp.write_and_unlock(reg, 0),
                Fetched::SleepUntil(cycle) => now = now.max(cycle),
                Fetched::Halted => break,
            }
        }
    }
    started.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// Host ns per `JobQueue` operation: a push and the pop that takes it
/// back out, uncontended, on a queue held half full.
fn queue_ns_per_op() -> f64 {
    const PAIRS: u64 = 50_000;
    let queue = JobQueue::new(64);
    for i in 0..32 {
        queue.push(0, i);
    }
    let started = Instant::now();
    for i in 0..PAIRS {
        queue.push((i % 3) as i64, i);
        black_box(queue.pop());
    }
    started.elapsed().as_nanos() as f64 / (2 * PAIRS) as f64
}

/// The program a workload's PEs interpret: the engine workload's own,
/// or for a serve workload the registry's `ticket`.
fn program_of(workload: &str, seed: u64) -> (Program, usize) {
    match gen::engine_workload(workload, seed) {
        Some(w) => (w.programs[0].0.clone(), w.pes),
        None => (Workload::Ticket.program(24), 64),
    }
}

/// Sliced floor time of the 4096-PE ticket run (the `engine_hot`
/// program as the job registry spells it) at `threads` engine threads.
/// Built through `JobSpec::from_json`, so if the thread knob is ever
/// removed this reports "rejected" instead of failing to compile.
fn ticket_floor_ns(threads: usize, floors: &mut SliceFloors) -> Result<(), String> {
    let line = format!(
        "{{\"pes\": 4096, \"workload\": \"ticket\", \"rounds\": 8, \"threads\": {threads}}}"
    );
    let obj = parse_object(&line).map_err(|e| e.to_string())?;
    let spec = JobSpec::from_json(&obj, "par2")?;
    let mut m = spec.machine();
    let mut slice = 0;
    loop {
        let t = Instant::now();
        let outcome = m.run_for(4);
        floors.record(slice, t.elapsed().as_nanos() as u64);
        slice += 1;
        if outcome.completed {
            return Ok(());
        }
    }
}

/// Floor time at one thread / floor time at two, repetitions
/// interleaved so both sides see the same host weather.
fn par2_speedup(budget: Duration) -> Result<f64, String> {
    let mut one = SliceFloors::new();
    let mut two = SliceFloors::new();
    let started = Instant::now();
    let mut reps = 0;
    while reps < 2 || started.elapsed() < budget {
        ticket_floor_ns(1, &mut one)?;
        ticket_floor_ns(2, &mut two)?;
        reps += 1;
    }
    Ok(one.total_ns() as f64 / two.total_ns().max(1) as f64)
}

/// The kernels every workload reports, within about `seconds`.
pub fn common(workload: &str, seed: u64, seconds: f64, doc: &mut ProbeDoc) {
    let share = Duration::from_secs_f64(seconds / 6.0);
    let traffic = traffic_of(workload);
    let (program, n_pes) = program_of(workload, seed);
    doc.set("net.cycle_ns_hot", floor_of(share, || net_cycle_ns(true)));
    doc.set(
        "net.cycle_ns_uniform",
        floor_of(share, || net_cycle_ns(false)),
    );
    doc.set(
        "mem.bank_ns_per_req",
        floor_of(share, || bank_ns_per_req(traffic)),
    );
    doc.set(
        "pe.pni_ns_per_req",
        floor_of(share, || pni_ns_per_req(traffic)),
    );
    doc.set(
        "core.interp_ns_per_op",
        floor_of(share, || interp_ns_per_op(&program, n_pes)),
    );
    doc.set("serve.queue_ns_per_op", floor_of(share, queue_ns_per_op));
}

pub fn run(workload: &str, seed: u64, seconds: f64) -> Result<ProbeDoc, String> {
    if gen::engine_workload(workload, seed).is_none() {
        return Err(format!("`{workload}` is not an engine workload"));
    }
    let mut doc = ProbeDoc::default();
    // `engine_hot` splits its time between the kernels and the
    // two-thread comparison; the others have no such comparison.
    let hot = workload == "engine_hot";
    common(
        workload,
        seed,
        if hot { seconds * 0.3 } else { seconds },
        &mut doc,
    );
    if hot {
        match par2_speedup(Duration::from_secs_f64(seconds * 0.7)) {
            Ok(ratio) => doc.set("core.par2_speedup", ratio),
            Err(e) => doc.info.push(format!(
                "core.par2_speedup absent: two engine threads rejected ({e})"
            )),
        }
    }
    Ok(doc)
}
