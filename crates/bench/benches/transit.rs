//! Micro-bench: network transit under uniform load (Figure 7's
//! engine) — measures simulator throughput, pins the analytic model's
//! evaluation cost, and reads the fabric's host cost per switch hop as the
//! machine grows (`hop_scaling`).

use std::hint::black_box;
use std::time::Instant;
use ultra_analysis::queueing::NetworkModel;
use ultra_bench::microbench::Group;
use ultra_bench::{run_open_loop, OpenLoopConfig};
use ultra_net::config::NetConfig;
use ultra_net::message::{Message, MsgKind, Reply};
use ultra_net::omega::{NetworkEvents, OmegaNetwork};
use ultra_pe::traffic::UniformTraffic;
use ultra_sim::rng::{Rng, SplitMix64};
use ultra_sim::{Cycle, MemAddr, MmId, PeId};

fn bench_open_loop() {
    let mut group = Group::new("open_loop_uniform");
    group.sample_size(10);
    for &n in &[64usize, 256] {
        group.bench(&format!("simulate/{n}"), || {
            let cfg = OpenLoopConfig {
                net: NetConfig::small(n),
                copies: 1,
                mm_service: 2,
                warmup: 100,
                measure: 500,
            };
            let mut traffic = UniformTraffic::new(n, 0.10, 0.5, 7);
            black_box(run_open_loop(cfg, &mut traffic));
        });
    }
}

/// A closed loop over the public fabric API: every PE keeps exactly one
/// load in flight to a uniformly random MM, the MM side answers each
/// arrival the next cycle, and a returning reply triggers the PE's next
/// load. The instruction path is the same at every size; only the
/// fabric's footprint grows.
struct HopLoop {
    net: OmegaNetwork,
    events: NetworkEvents,
    rng: SplitMix64,
    now: Cycle,
    /// Requests not yet accepted by the entry switch (retried each cycle).
    requests: Vec<Message>,
    /// Replies not yet accepted by the last-stage switch.
    replies: Vec<Reply>,
}

impl HopLoop {
    fn new(n: usize) -> Self {
        let mut this = Self {
            net: OmegaNetwork::new(NetConfig::small(n)),
            events: NetworkEvents::default(),
            rng: SplitMix64::new(0x40b5 ^ n as u64),
            now: 0,
            requests: Vec::new(),
            replies: Vec::new(),
        };
        for pe in 0..n {
            let msg = this.load_from(PeId(pe));
            this.requests.push(msg);
        }
        this
    }

    fn load_from(&mut self, pe: PeId) -> Message {
        let n = self.net.cfg().pes;
        let addr = MemAddr::new(MmId(self.rng.below(n)), self.rng.below(1 << 16));
        Message::request(self.net.next_msg_id(), MsgKind::Load, addr, 0, pe, self.now)
    }

    fn cycle(&mut self) {
        let now = self.now;
        for msg in std::mem::take(&mut self.requests) {
            if let Err(back) = self.net.try_inject_request(msg, now) {
                self.requests.push(back);
            }
        }
        for reply in std::mem::take(&mut self.replies) {
            if let Err(back) = self.net.try_inject_reply(reply, now) {
                self.replies.push(back);
            }
        }
        self.net.cycle_into(now, &mut self.events);
        self.now += 1;
        let mut events = std::mem::take(&mut self.events);
        for req in events.requests_at_mm.drain(..) {
            self.replies.push(Reply::to_request(&req, 1));
        }
        for reply in events.replies_at_pe.drain(..) {
            let msg = self.load_from(reply.dst);
            self.requests.push(msg);
        }
        self.events = events;
    }

    /// Switch-queue transits completed so far: every delivered message
    /// crossed one queue per stage.
    fn hops(&self) -> u64 {
        let s = self.net.stats();
        (s.delivered_requests.get() + s.delivered_replies.get())
            * self.net.topology().stages() as u64
    }
}

/// ns per switch hop at N = 64 / 1024 / 4096 / 16384. The per-hop work is
/// identical at every size, so growth with N is the fabric's storage
/// layout missing cache — the ratio `4096 / 64` is the number to watch.
fn bench_hop_scaling() {
    let mut group = Group::new("hop_scaling");
    group.sample_size(5);
    let mut floors = Vec::new();
    for &n in &[64usize, 1024, 4096, 16384] {
        let mut fabric = HopLoop::new(n);
        let cycles = ((1usize << 21) / n).max(96);
        for _ in 0..cycles.min(512) {
            fabric.cycle(); // reach the steady state before timing
        }
        let mut per_hop: Vec<f64> = Vec::new();
        group.bench(&format!("window/{n}"), || {
            let hops = fabric.hops();
            let t0 = Instant::now();
            for _ in 0..cycles {
                fabric.cycle();
            }
            let ns = t0.elapsed().as_nanos() as f64;
            per_hop.push(ns / (fabric.hops() - hops) as f64);
        });
        black_box(fabric.net.stats().delivered_replies.get());
        per_hop.remove(0); // the harness's warm-up call
        per_hop.sort_by(f64::total_cmp);
        println!(
            "hop_scaling/ns_per_hop/{n}: min {:.1} | median {:.1}",
            per_hop[0],
            per_hop[per_hop.len() / 2]
        );
        floors.push(per_hop[0]);
    }
    println!(
        "hop_scaling/ratio_4096_over_64: {:.2}",
        floors[2] / floors[0]
    );
}

fn bench_analytic() {
    let model = NetworkModel::with_unit_bandwidth(4096, 4, 2);
    let mut group = Group::new("analytic");
    group.bench("figure7_curve", || {
        black_box(model.figure7_curve(0.9, 100));
    });
}

fn main() {
    bench_open_loop();
    bench_hop_scaling();
    bench_analytic();
}
