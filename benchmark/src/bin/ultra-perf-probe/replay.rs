//! The serve workloads' job list replayed in process, single-threaded:
//! what `Server::run_job` does, one public call at a time, with a span
//! around each — then the same list again for the engine-phase ledger,
//! and once more through `Server::run_job` itself.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use ultra_perf::alloc::AllocSnapshot;
use ultra_perf::gen::{self, Job, ServeWorkload};
use ultra_perf::ledger::{self, PHASES};
use ultra_perf::spans::{self, Recorder};
use ultra_perf::stats;
use ultra_serve::cache::SnapshotCache;
use ultra_serve::json::parse_object;
use ultra_serve::spec::JobSpec;
use ultra_serve::Server;
use ultra_sim::wire::fnv1a;
use ultracomputer::machine::Machine;
use ultracomputer::{EngineTuning, MachineReport};

use crate::kernels;
use crate::oracle::{self, Reference};
use crate::ProbeDoc;

/// The spans of one job, in the order a job meets them, each with the
/// per-layer metric its per-job time feeds.
const JOB_SPANS: [(&str, &str); 8] = [
    ("parse", "serve.parse_us"),
    ("cache_lookup", "serve.cache_lookup_us"),
    ("build", "serve.build_us"),
    ("restore", "serve.restore_us"),
    ("simulate", "serve.simulate_us"),
    ("snapshot", "serve.snapshot_us"),
    ("cache_insert", "serve.cache_insert_us"),
    ("report", "serve.report_us"),
];

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// Machine for `spec`: restored from the best cached checkpoint, or
/// built. Mirrors `Server::run_job` (no telemetry jobs in these lists).
fn acquire(
    spec: &JobSpec,
    key: &str,
    cache: &SnapshotCache,
    mut timed: impl FnMut(&'static str, &mut dyn FnMut()),
    restored_bytes: &mut u64,
) -> Machine {
    let mut found = None;
    timed("cache_lookup", &mut || {
        found = cache.best_at_or_below(key, spec.cycles);
    });
    let mut machine = None;
    if let Some((_, snap)) = found {
        let tuning = EngineTuning {
            threads: Some(spec.threads),
            ..EngineTuning::default()
        };
        timed("restore", &mut || {
            machine = Machine::restore_tuned(&snap, tuning).ok();
        });
        if machine.is_some() {
            *restored_bytes += snap.len() as u64;
        }
    }
    machine.unwrap_or_else(|| {
        let mut built = None;
        timed("build", &mut || built = Some(spec.machine()));
        built.expect("the closure ran")
    })
}

/// Totals of the span pass over the measured jobs.
#[derive(Default)]
struct SpanPass {
    /// Per job: duration of its `job` span.
    job_ns: Vec<f64>,
    /// Per job and span name: summed self time.
    per_job: Vec<[f64; JOB_SPANS.len()]>,
    /// Per job: self time of the `job` span itself (glue between calls).
    glue_ns: Vec<f64>,
    snapshot_sizes: Vec<f64>,
    snapshot_bytes: u64,
    snapshot_ns: u64,
    restored_bytes: u64,
    restore_ns: u64,
    suffix_cycles: u64,
    checkpoints: u64,
    simulate_ns: u64,
    mismatches: u64,
}

/// Pass A: every public call of a job's life in its own span.
fn span_pass(
    w: &ServeWorkload,
    reference: &BTreeMap<String, Reference>,
    rec: &mut Recorder,
) -> Result<SpanPass, String> {
    let cache = SnapshotCache::new();
    let mut pass = SpanPass::default();
    // Root span index of each measured job -> its row in `pass`.
    let mut roots = HashMap::new();
    for (trace_id, (job, measured)) in w
        .warm
        .iter()
        .map(|j| (j, false))
        .chain(w.jobs.iter().map(|j| (j, true)))
        .enumerate()
    {
        let trace_id = trace_id as u64;
        let root = rec.open("job", None, trace_id);
        let mut spec = None;
        rec.time("parse", Some(root), trace_id, || {
            spec = parse_object(&job.line)
                .ok()
                .and_then(|obj| JobSpec::from_json(&obj, &job.id).ok());
        });
        let spec = spec.ok_or_else(|| format!("job {} does not parse", job.id))?;
        let key = spec.prefix_key();
        let mut restored_bytes = 0;
        let mut m = acquire(
            &spec,
            &key,
            &cache,
            |name, f| rec.time(name, Some(root), trace_id, f),
            &mut restored_bytes,
        );
        let mut cycles = 0;
        let mut checkpoints = 0;
        let mut snapshot_bytes = 0;
        loop {
            let remaining = spec.cycles.saturating_sub(m.now());
            if remaining == 0 {
                break;
            }
            let before = m.now();
            let outcome = rec.time("simulate", Some(root), trace_id, || {
                m.run_for(remaining.min(spec.checkpoint_every))
            });
            cycles += m.now() - before;
            let snap = rec.time("snapshot", Some(root), trace_id, || m.snapshot());
            snapshot_bytes += snap.len() as u64;
            if measured {
                pass.snapshot_sizes.push(snap.len() as f64);
            }
            checkpoints += 1;
            let at = m.now();
            rec.time("cache_insert", Some(root), trace_id, || {
                cache.insert(&key, at, snap);
            });
            if outcome.completed {
                break;
            }
        }
        let parity = rec.time("report", Some(root), trace_id, || {
            let report = MachineReport::from_machine(&m);
            format!("{:016x}", fnv1a(report.parity_string().as_bytes()))
        });
        let end_cycle = m.now();
        // `Server::run_job` frees the machine before it returns; a
        // 1024-PE machine takes most of a millisecond to free, so the
        // job span must cover it too (it shows up as glue).
        drop(m);
        rec.close(root);
        if !measured {
            continue;
        }
        let want = reference.get(&job.id);
        if want.map(|r| (r.cycles, r.parity.as_str())) != Some((end_cycle, parity.as_str())) {
            pass.mismatches += 1;
        }
        roots.insert(root, pass.job_ns.len());
        pass.job_ns.push(rec.spans()[root].dur_ns() as f64);
        pass.glue_ns.push(0.0);
        pass.per_job.push([0.0; JOB_SPANS.len()]);
        pass.snapshot_bytes += snapshot_bytes;
        pass.restored_bytes += restored_bytes;
        pass.suffix_cycles += cycles;
        pass.checkpoints += checkpoints;
    }
    // Every call span is a direct child of its job span.
    let own = spans::self_times(rec.spans());
    for (index, (span, own_ns)) in rec.spans().iter().zip(&own).enumerate() {
        if let Some(&row) = roots.get(&index) {
            pass.glue_ns[row] = *own_ns as f64;
        } else if let Some(&row) = span.parent.and_then(|parent| roots.get(&parent)) {
            if let Some(k) = JOB_SPANS.iter().position(|(name, _)| *name == span.name) {
                pass.per_job[row][k] += *own_ns as f64;
            }
            match span.name {
                "snapshot" => pass.snapshot_ns += span.dur_ns(),
                "restore" => pass.restore_ns += span.dur_ns(),
                "simulate" => pass.simulate_ns += span.dur_ns(),
                _ => {}
            }
        }
    }
    Ok(pass)
}

/// Totals of the ledger pass over the measured jobs.
#[derive(Default)]
struct LedgerPass {
    phase_ns: [u64; 4],
    run_for_ns: u64,
    cycles: u64,
    ff_cycles: u64,
    injected: u64,
    combines: u64,
    inject_stalls: u64,
    queue_high_water: u64,
    mm_queue_depth_max: usize,
    idle_pct_sum: f64,
    jobs: u64,
    alloc_count: u64,
    alloc_bytes: u64,
}

/// Pass B: the same jobs with the machines' own phase spans on, for the
/// per-cycle cost of the mix by engine phase. Counters are differences
/// over each job's own `run_for` calls (a restored machine carries its
/// prefix's totals).
fn ledger_pass(
    w: &ServeWorkload,
    reference: &BTreeMap<String, Reference>,
) -> Result<LedgerPass, String> {
    let cache = SnapshotCache::new();
    let mut pass = LedgerPass::default();
    for (job, measured) in w
        .warm
        .iter()
        .map(|j| (j, false))
        .chain(w.jobs.iter().map(|j| (j, true)))
    {
        let spec = oracle::spec_of(job)?;
        let key = spec.prefix_key();
        let mut m = acquire(&spec, &key, &cache, |_, f| f(), &mut 0);
        let end = reference.get(&job.id).map_or(spec.cycles, |r| r.cycles);
        m.enable_phase_spans(ledger::span_capacity(end.saturating_sub(m.now())));
        let before = (m.now(), m.fast_forwarded_cycles(), m.net_stats());
        let mut run_for_ns = 0;
        let mut alloc = AllocSnapshot { count: 0, bytes: 0 };
        loop {
            let remaining = spec.cycles.saturating_sub(m.now());
            if remaining == 0 {
                break;
            }
            let a = AllocSnapshot::now();
            let t = Instant::now();
            let outcome = m.run_for(remaining.min(spec.checkpoint_every));
            run_for_ns += t.elapsed().as_nanos() as u64;
            let d = AllocSnapshot::now().since(&a);
            alloc.count += d.count;
            alloc.bytes += d.bytes;
            cache.insert(&key, m.now(), m.snapshot());
            if outcome.completed {
                break;
            }
        }
        if !measured {
            continue;
        }
        let sums = ledger::phase_sums(&m);
        for (total, ns) in pass.phase_ns.iter_mut().zip(sums) {
            *total += ns;
        }
        let net = m.net_stats();
        pass.run_for_ns += run_for_ns;
        pass.cycles += m.now() - before.0;
        pass.ff_cycles += m.fast_forwarded_cycles() - before.1;
        pass.injected += net.injected_requests.get() - before.2.injected_requests.get();
        pass.combines += net.combines.get() - before.2.combines.get();
        pass.inject_stalls += net.inject_stalls.get() - before.2.inject_stalls.get();
        pass.queue_high_water = pass.queue_high_water.max(
            m.heatmap()
                .and_then(|h| h.queue_high_water().iter().copied().max())
                .unwrap_or(0),
        );
        pass.mm_queue_depth_max = pass.mm_queue_depth_max.max(m.max_mm_queue_depth());
        pass.idle_pct_sum += MachineReport::from_machine(&m).idle_pct();
        pass.jobs += 1;
        pass.alloc_count += alloc.count;
        pass.alloc_bytes += alloc.bytes;
    }
    Ok(pass)
}

/// Pass C: `Server::run_job` itself, timed from outside, per job.
fn run_job_pass(
    w: &ServeWorkload,
    reference: &BTreeMap<String, Reference>,
) -> Result<(Vec<f64>, u64), String> {
    let server = Server::new();
    let mut wall_ns = Vec::new();
    let mut mismatches = 0;
    let specs = |jobs: &[Job]| {
        jobs.iter()
            .map(oracle::spec_of)
            .collect::<Result<Vec<_>, _>>()
    };
    for spec in specs(&w.warm)? {
        let _ = server.run_job(&spec);
    }
    for spec in specs(&w.jobs)? {
        let t = Instant::now();
        let outcome = server.run_job(&spec);
        wall_ns.push(t.elapsed().as_nanos() as f64);
        let parity = reference.get(&spec.id).map_or("", |r| r.parity.as_str());
        if !outcome.line.contains(&format!("\"parity\": \"{parity}\"")) {
            mismatches += 1;
        }
    }
    Ok((wall_ns, mismatches))
}

pub fn run(
    name: &str,
    seed: u64,
    seconds: f64,
    trace_out: Option<&str>,
) -> Result<ProbeDoc, String> {
    let w = gen::serve_workload(name, seed)
        .ok_or_else(|| format!("`{name}` is not a serve workload"))?;
    let reference = oracle::references(name, seed)?;
    let mut doc = ProbeDoc::default();

    let mut rec = Recorder::new();
    let a = span_pass(&w, &reference, &mut rec)?;
    let jobs = a.job_ns.len().max(1) as f64;
    let job_total: f64 = a.job_ns.iter().sum();
    for (k, (name, metric)) in JOB_SPANS.iter().enumerate() {
        let column: Vec<f64> = a.per_job.iter().map(|row| row[k]).collect();
        doc.set(metric, us(stats::median(&column)));
        doc.info.push(format!(
            "span {name:<12} median {:>9.1} us/job, {:>5.1} % of job time",
            us(stats::median(&column)),
            100.0 * column.iter().sum::<f64>() / job_total
        ));
    }
    doc.info.push(format!(
        "span {:<12} median {:>9.1} us/job, {:>5.1} % of job time (self time of the job span)",
        "glue",
        us(stats::median(&a.glue_ns)),
        100.0 * a.glue_ns.iter().sum::<f64>() / job_total
    ));
    let mb_per_s = |bytes: u64, ns: u64| {
        if ns == 0 {
            0.0
        } else {
            bytes as f64 / 1e6 / (ns as f64 / 1e9)
        }
    };
    doc.set(
        "core.snapshot_encode_mb_s",
        mb_per_s(a.snapshot_bytes, a.snapshot_ns),
    );
    doc.set(
        "core.snapshot_decode_mb_s",
        mb_per_s(a.restored_bytes, a.restore_ns),
    );
    doc.set("core.snapshot_bytes", stats::median(&a.snapshot_sizes));
    doc.set("serve.suffix_cycles_per_job", a.suffix_cycles as f64 / jobs);
    doc.set("serve.checkpoints_per_job", a.checkpoints as f64 / jobs);
    doc.checked += a.job_ns.len() as u64;
    doc.mismatches += a.mismatches;
    let in_process_p50_us = us(stats::median(&a.job_ns));
    doc.extra.push((
        "in_process_job_p50_us".into(),
        in_process_p50_us.to_string(),
    ));
    if let Some(path) = trace_out {
        let written = std::path::Path::new(path)
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, spans::chrome_trace(rec.spans())));
        match written {
            Ok(()) => doc.info.push(format!("trace written to {path}")),
            Err(e) => doc.info.push(format!("could not write {path}: {e}")),
        }
    }
    drop(rec);

    let b = ledger_pass(&w, &reference)?;
    let per_cycle = |ns: u64| ns as f64 / b.cycles.max(1) as f64;
    for ((_, metric), ns) in PHASES.iter().zip(b.phase_ns) {
        doc.set(metric, per_cycle(ns));
    }
    let in_phases: u64 = b.phase_ns.iter().sum();
    doc.set(
        "core.other_ns_per_cycle",
        per_cycle(b.run_for_ns.saturating_sub(in_phases)),
    );
    doc.set(
        "bench.trace_overhead_ratio",
        b.run_for_ns as f64 / a.simulate_ns.max(1) as f64,
    );
    doc.set("core.sim_cycles", b.cycles as f64);
    doc.set("core.ff_cycles", b.ff_cycles as f64);
    doc.set(
        "core.host_ns_per_msg",
        a.simulate_ns as f64 / b.injected.max(1) as f64,
    );
    doc.set("net.injected", b.injected as f64);
    doc.set("net.combines", b.combines as f64);
    doc.set(
        "net.combine_ratio",
        b.combines as f64 / b.injected.max(1) as f64,
    );
    doc.set("net.inject_stalls", b.inject_stalls as f64);
    doc.set("net.queue_high_water", b.queue_high_water as f64);
    doc.set("mem.queue_depth_max", b.mm_queue_depth_max as f64);
    doc.set("pe.idle_pct", b.idle_pct_sum / b.jobs.max(1) as f64);
    doc.set(
        "alloc.count_per_cycle",
        b.alloc_count as f64 / b.cycles.max(1) as f64,
    );
    doc.set(
        "alloc.bytes_per_cycle",
        b.alloc_bytes as f64 / b.cycles.max(1) as f64,
    );

    let (run_job_ns, run_job_mismatches) = run_job_pass(&w, &reference)?;
    doc.checked += run_job_ns.len() as u64;
    doc.mismatches += run_job_mismatches;
    doc.set("serve.run_job_us", us(stats::median(&run_job_ns)));
    let run_job_total: f64 = run_job_ns.iter().sum();
    doc.info.push(format!(
        "span self-times sum to {:.1} ms over {} jobs; Server::run_job takes {:.1} ms for the same jobs ({:+.1} %)",
        job_total / 1e6,
        a.job_ns.len(),
        run_job_total / 1e6,
        100.0 * (job_total - run_job_total) / run_job_total
    ));

    kernels::common(name, seed, (seconds * 0.2).min(3.0), &mut doc);
    Ok(doc)
}
