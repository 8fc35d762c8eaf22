//! The in-process engine workloads: the library entry point,
//! `MachineBuilder` -> `Machine::run_for`, measured by floor time.
//!
//! Compiles against `MachineBuilder`, `Machine`, `MachineReport` and the
//! program DSL only (see README.md, "What the benchmark compiles
//! against").

use std::time::{Duration, Instant};

use ultra_perf::alloc::AllocSnapshot;
use ultra_perf::gen::{self, EngineWorkload};
use ultra_perf::ledger::{self, PHASES};
use ultra_perf::spans::{self, Recorder};
use ultra_perf::stats::{self, min as min_of, ms, SliceFloors};
use ultra_perf::{expected, fnv1a, host};
use ultracomputer::machine::{Machine, MachineBuilder};
use ultracomputer::MachineReport;

use crate::tools::Tools;
use crate::RunReport;

/// The parity digest `ultra-serve` would print for `m`.
fn digest_of(m: &Machine) -> u64 {
    fnv1a(MachineReport::from_machine(m).parity_string().as_bytes())
}

/// Builds the workload's machine, timing program construction and
/// `build` together: a user pays for both before the first cycle.
fn build(name: &str, seed: u64) -> (EngineWorkload, Machine, u64) {
    let started = Instant::now();
    let w = gen::engine_workload(name, seed).expect("caller checked the workload name");
    let machine = MachineBuilder::new(w.pes)
        .threads(1)
        .build(w.per_pe_programs());
    let setup_ns = started.elapsed().as_nanos() as u64;
    (w, machine, setup_ns)
}

/// One repetition's timings; the machine is kept for the output gate.
struct Rep {
    setup_ns: u64,
    /// Sum of the `run_for` calls' wall time.
    run_ns: u64,
    slices: usize,
    completed: bool,
    machine: Machine,
}

/// One repetition cut into `slice_cycles`-cycle `run_for` calls;
/// `on_slice(index, ns)` sees every slice's wall time.
fn sliced_rep(name: &str, seed: u64, mut on_slice: impl FnMut(usize, u64)) -> Rep {
    let (w, mut machine, setup_ns) = build(name, seed);
    let mut run_ns = 0;
    let mut slices = 0;
    let completed = loop {
        let t = Instant::now();
        let outcome = machine.run_for(w.slice_cycles);
        let ns = t.elapsed().as_nanos() as u64;
        on_slice(slices, ns);
        run_ns += ns;
        slices += 1;
        if outcome.completed {
            break true;
        }
        if machine.now() >= machine.cfg().max_cycles {
            break false;
        }
    };
    Rep {
        setup_ns,
        run_ns,
        slices,
        completed,
        machine,
    }
}

/// The output gate: every repetition must complete, equal the first
/// one and, on the default seed, equal `expected.json`.
struct Gate {
    name: String,
    reference: Option<(u64, u64)>,
    expected: Option<(u64, u64)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Gate {
    fn new(name: &str, seed: u64) -> Self {
        Self {
            name: name.to_owned(),
            reference: None,
            expected: (seed == gen::DEFAULT_SEED)
                .then(|| expected::engine(name))
                .flatten(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    fn check(&mut self, machine: &Machine, completed: bool) {
        self.attempted += 1;
        let got = (machine.now(), digest_of(machine));
        let first = *self.reference.get_or_insert(got);
        let mut bad = Vec::new();
        if !completed {
            bad.push("did not complete".to_owned());
        }
        for (want, what) in [
            (Some(first), "the first repetition"),
            (self.expected, "expected.json"),
        ] {
            if let Some(want) = want.filter(|&w| w != got) {
                bad.push(format!(
                    "cycles/digest {}/{:016x} differ from {what}'s {}/{:016x}",
                    got.0, got.1, want.0, want.1
                ));
            }
        }
        if !bad.is_empty() {
            self.failed += 1;
            if self.problems.len() >= 5 {
                return;
            }
            self.problems.push(format!(
                "{} repetition {}: {}",
                self.name,
                self.attempted,
                bad.join("; ")
            ));
        }
    }

    fn finish(self, report: &mut RunReport) {
        report.attempted += self.attempted;
        report.failed += self.failed;
        report.problems.extend(self.problems);
    }
}

/// Repeats `body` until `budget` is spent (never starting a repetition
/// that would overrun it) and at least `min_reps` times.
fn repeat_for(budget: Duration, min_reps: usize, mut body: impl FnMut()) {
    let started = Instant::now();
    let mut longest = Duration::ZERO;
    let mut reps = 0;
    while reps < min_reps || started.elapsed() + longest <= budget {
        let t = Instant::now();
        body();
        longest = longest.max(t.elapsed());
        reps += 1;
    }
}

/// The end-to-end run (tracing off): floor time over sliced
/// repetitions for `seconds`.
pub fn run(name: &str, seed: u64, seconds: f64, min_reps: usize) -> RunReport {
    let mut report = RunReport::default();
    let mut gate = Gate::new(name, seed);
    let mut floors = SliceFloors::new();
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut shape = (0, 0, 0);
    repeat_for(Duration::from_secs_f64(seconds), min_reps, || {
        let rep = sliced_rep(name, seed, |i, ns| floors.record(i, ns));
        setups.push(rep.setup_ns as f64);
        walls.push(rep.run_ns as f64);
        shape = (rep.machine.pes(), rep.machine.now(), rep.slices);
        gate.check(&rep.machine, rep.completed);
    });
    let (pes, cycles, slices) = shape;
    let floor_s = floors.total_ns() as f64 / 1e9;
    let per_slice: Vec<f64> = floors.per_slice_ns().iter().map(|&ns| ns as f64).collect();
    let per_slice = stats::sorted(&per_slice);
    report.set("pe_cycles_per_s", pes as f64 * cycles as f64 / floor_s);
    report.set("jobs_per_s", slices as f64 / floor_s);
    report.set("job_p50_ms", ms(stats::quantile(&per_slice, 0.50)));
    report.set("job_p95_ms", ms(stats::quantile(&per_slice, 0.95)));
    report.set("setup_s", min_of(&setups) / 1e9);
    report.set("peak_rss_mb", host::peak_rss_mb(None).unwrap_or(0.0));

    let q = stats::quartiles(&walls).unwrap_or([walls[0]; 3]);
    report.info(format!(
        "{name}: {} repetitions of {pes} PEs x {cycles} cycles in {slices} slices",
        walls.len()
    ));
    report.info(format!(
        "run wall per repetition: floor {:.2} ms | q1 {:.2} median {:.2} q3 {:.2} ms",
        floor_s * 1e3,
        ms(q[0]),
        ms(q[1]),
        ms(q[2])
    ));
    report.info(format!(
        "set-up per repetition: floor {:.3} ms, median {:.3} ms",
        ms(min_of(&setups)),
        ms(stats::median(&setups))
    ));
    report.info(format!(
        "a job here is one run_for slice: {slices} samples, {} beyond p95 (best-founded tail: p{})",
        stats::samples_beyond(slices, 95.0),
        stats::tail_percentile(slices)
    ));
    gate.finish(&mut report);
    report
}

/// A traced repetition: the machine, its `run_for` wall time, and the
/// benchmark's spans around `build` and every `run_for`.
struct Traced {
    run_ns: u64,
    recorder: Recorder,
    machine: Machine,
}

/// One repetition with the machine's phase spans on and the benchmark's
/// own spans around `build` and every `run_for`; the machine's spans
/// are re-based onto the recorder as children of the `run_for` span of
/// the slice their cycle falls in.
fn traced_rep(name: &str, seed: u64, cycles: u64, trace_id: u64) -> Traced {
    let mut rec = Recorder::new();
    let root = rec.open("repetition", None, trace_id);
    let build_span = rec.open("build", Some(root), trace_id);
    let (w, mut machine, _) = build(name, seed);
    rec.close(build_span);
    let base_ns = rec.now_ns();
    machine.enable_phase_spans(ledger::span_capacity(cycles));
    let mut run_spans = Vec::new();
    let mut run_ns = 0;
    loop {
        let span = rec.open("run_for", Some(root), trace_id);
        let outcome = machine.run_for(w.slice_cycles);
        rec.close(span);
        run_ns += rec.spans()[span].dur_ns();
        run_spans.push(span);
        if outcome.completed || machine.now() >= machine.cfg().max_cycles {
            break;
        }
    }
    rec.close(root);
    for span in machine.phase_spans().spans() {
        if let Some(k) = ledger::phase_index(span.phase.name()) {
            let slice = (span.cycle / w.slice_cycles) as usize;
            let start = base_ns + span.start_ns;
            rec.push(
                PHASES[k].0,
                run_spans.get(slice).copied(),
                trace_id,
                start,
                start + span.dur_ns,
            );
        }
    }
    Traced {
        run_ns,
        recorder: rec,
        machine,
    }
}

/// The traced run: a shorter floor measurement, unsliced repetitions,
/// traced repetitions, then the probe binary's isolated kernels.
pub fn run_traced(
    name: &str,
    seed: u64,
    seconds: f64,
    min_reps: usize,
    tools: &Tools,
) -> RunReport {
    let mut report = RunReport::default();
    let mut gate = Gate::new(name, seed);
    let share = |part: f64| Duration::from_secs_f64(seconds * part);
    let slice_cycles = gen::engine_workload(name, seed)
        .expect("caller checked the workload name")
        .slice_cycles;

    // 1. Untraced floor, with the allocator counters read around the
    //    steady-state slices (every slice but the first).
    let mut floors = SliceFloors::new();
    let mut sliced_walls = Vec::new();
    let mut setups = Vec::new();
    let mut steady_alloc = None;
    let mut cycles = 0;
    repeat_for(share(0.30), min_reps, || {
        let mut after_first_slice = None;
        let rep = sliced_rep(name, seed, |i, ns| {
            floors.record(i, ns);
            if i == 0 {
                after_first_slice = Some(AllocSnapshot::now());
            }
        });
        let after = AllocSnapshot::now();
        steady_alloc = after_first_slice.map(|s| after.since(&s));
        cycles = rep.machine.now();
        sliced_walls.push(rep.run_ns as f64);
        setups.push(rep.setup_ns as f64);
        gate.check(&rep.machine, rep.completed);
    });
    let floor_ns = floors.total_ns() as f64;
    let slices = floors.per_slice_ns().len();

    // 2. Unsliced: one `run_for` to completion, to price the slicing.
    let mut unsliced_walls = Vec::new();
    repeat_for(share(0.12), 2, || {
        let (_, mut machine, _) = build(name, seed);
        let t = Instant::now();
        let outcome = machine.run_for(u64::MAX);
        unsliced_walls.push(t.elapsed().as_nanos() as f64);
        gate.check(&machine, outcome.completed);
    });
    report.set(
        "core.run_for_overhead_us",
        (min_of(&sliced_walls) - min_of(&unsliced_walls)) / slices.max(1) as f64 / 1e3,
    );

    // 3. Traced repetitions; the least disturbed one is the ledger.
    let mut best: Option<Traced> = None;
    let mut trace_id = 0;
    repeat_for(share(0.18), 1, || {
        trace_id += 1;
        let traced = traced_rep(name, seed, cycles, trace_id);
        if best.as_ref().map_or(true, |b| traced.run_ns < b.run_ns) {
            best = Some(traced);
        }
    });
    let traced = best.expect("at least one traced repetition ran");
    let m = &traced.machine;
    let per_cycle = |ns: u64| ns as f64 / cycles.max(1) as f64;
    let phase_ns = ledger::phase_sums(m);
    for ((_, metric), ns) in PHASES.iter().zip(phase_ns) {
        report.set(metric, per_cycle(ns));
    }
    let in_phases: u64 = phase_ns.iter().sum();
    let other_ns = traced.run_ns.saturating_sub(in_phases);
    report.set("core.other_ns_per_cycle", per_cycle(other_ns));
    report.set(
        "bench.trace_overhead_ratio",
        traced.run_ns as f64 / floor_ns,
    );
    report.set("core.build_ms", ms(min_of(&setups)));
    report.set("core.sim_cycles", cycles as f64);
    report.set("core.ff_cycles", m.fast_forwarded_cycles() as f64);
    let r = MachineReport::from_machine(m);
    let injected = r.net.injected_requests.get() as f64;
    let combines = r.net.combines.get() as f64;
    report.set("core.host_ns_per_msg", floor_ns / injected.max(1.0));
    report.set("net.injected", injected);
    report.set("net.combines", combines);
    report.set("net.combine_ratio", combines / injected.max(1.0));
    report.set("net.inject_stalls", r.net.inject_stalls.get() as f64);
    report.set(
        "net.queue_high_water",
        m.heatmap()
            .and_then(|h| h.queue_high_water().iter().copied().max())
            .unwrap_or(0) as f64,
    );
    report.set("mem.queue_depth_max", m.max_mm_queue_depth() as f64);
    report.set("pe.idle_pct", r.idle_pct());
    if let Some(alloc) = steady_alloc {
        let steady_cycles = cycles.saturating_sub(slice_cycles).max(1) as f64;
        report.set("alloc.count_per_cycle", alloc.count as f64 / steady_cycles);
        report.set("alloc.bytes_per_cycle", alloc.bytes as f64 / steady_cycles);
    }
    report.info(format!(
        "{name} traced: run_for wall {:.2} ms over {cycles} cycles = phases {:.2} ms + other {:.2} ms; \
         untraced floor {:.2} ms; unsliced {:.2} ms",
        ms(traced.run_ns as f64),
        ms(in_phases as f64),
        ms(other_ns as f64),
        ms(floor_ns),
        ms(min_of(&unsliced_walls)),
    ));
    report.write_trace(name, &spans::chrome_trace(traced.recorder.spans()));
    drop(traced);

    // 4. Isolated kernels, in the probe binary.
    let kernel_seconds = ("--seconds", (seconds * 0.35).to_string());
    match tools.probe("kernels", name, seed, &[kernel_seconds]) {
        Ok(doc) => report.absorb(&doc),
        Err(e) => report.fail(format!("layer probes: {e}")),
    }
    gate.finish(&mut report);
    report
}

/// Runs the workload once and renders what `expected.json` records.
pub fn record(name: &str, seed: u64) -> String {
    let rep = sliced_rep(name, seed, |_, _| {});
    assert!(rep.completed, "{name} must complete");
    format!(
        "{{\"cycles\": {}, \"parity\": \"{:016x}\"}}",
        rep.machine.now(),
        digest_of(&rep.machine)
    )
}
