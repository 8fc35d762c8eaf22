//! The generators' contract: pure functions of the seed, inputs the
//! program accepts, and the properties each workload claims to have.

use std::collections::{BTreeMap, BTreeSet};

use ultra_perf::gen::{
    self, engine_workload, poisson_schedule, serve_workload, DEFAULT_SEED, SERVE_JOBS, WORKLOADS,
};
use ultra_serve::json::parse_object;
use ultra_serve::spec::JobSpec;

fn spec_of(job: &gen::Job) -> JobSpec {
    let obj = parse_object(&job.line).unwrap_or_else(|e| panic!("{}: {e}", job.line));
    JobSpec::from_json(&obj, "fallback").unwrap_or_else(|e| panic!("{}: {e}", job.line))
}

#[test]
fn every_workload_name_has_exactly_one_generator() {
    for name in WORKLOADS {
        let engine = engine_workload(name, DEFAULT_SEED).is_some();
        let serve = serve_workload(name, DEFAULT_SEED).is_some();
        assert!(
            engine != serve,
            "{name} must be an engine or a serve workload"
        );
    }
    assert!(engine_workload("nope", 1).is_none() && serve_workload("nope", 1).is_none());
}

#[test]
fn generators_are_pure_functions_of_the_seed() {
    for name in WORKLOADS {
        for seed in [1, 2, 0xdead_beef] {
            assert_eq!(engine_workload(name, seed), engine_workload(name, seed));
            assert_eq!(serve_workload(name, seed), serve_workload(name, seed));
        }
    }
    assert_eq!(
        poisson_schedule(7, 300, 100.0),
        poisson_schedule(7, 300, 100.0)
    );
    // And the seed does reach the inputs.
    assert_ne!(
        engine_workload("engine_scatter", 1),
        engine_workload("engine_scatter", 2)
    );
    assert_ne!(
        serve_workload("serve_cold", 1),
        serve_workload("serve_cold", 2)
    );
    assert_ne!(
        serve_workload("serve_resume", 1),
        serve_workload("serve_resume", 2)
    );
    assert_ne!(
        poisson_schedule(1, 300, 100.0),
        poisson_schedule(2, 300, 100.0)
    );
}

#[test]
fn the_seed_never_changes_how_much_work_there_is() {
    for seed in [1, 2, 3, 99] {
        for name in ["engine_hot", "engine_scatter", "engine_sparse"] {
            let (a, b) = (
                engine_workload(name, 1).unwrap(),
                engine_workload(name, seed).unwrap(),
            );
            assert_eq!((a.pes, a.slice_cycles), (b.pes, b.slice_cycles));
            assert_eq!(b.per_pe_programs().len(), b.pes);
        }
        let mix = |w: &gen::ServeWorkload| {
            let mut classes = BTreeMap::new();
            for job in &w.jobs {
                let spec = spec_of(job);
                *classes
                    .entry((spec.pes, spec.workload.name(), spec.rounds))
                    .or_insert(0) += 1;
            }
            classes
        };
        for name in ["serve_cold", "serve_resume"] {
            let (a, b) = (
                serve_workload(name, 1).unwrap(),
                serve_workload(name, seed).unwrap(),
            );
            assert_eq!(mix(&a), mix(&b), "{name}: same class mix under every seed");
            assert_eq!(b.jobs.len(), SERVE_JOBS);
        }
    }
}

#[test]
fn serve_cold_lines_parse_and_share_no_prefix() {
    let w = serve_workload("serve_cold", DEFAULT_SEED).unwrap();
    assert!(w.warm.is_empty());
    let keys: BTreeSet<String> = w.jobs.iter().map(|j| spec_of(j).prefix_key()).collect();
    assert_eq!(
        keys.len(),
        SERVE_JOBS,
        "300 distinct prefix keys: nothing can resume"
    );
    let ids: BTreeSet<&str> = w.jobs.iter().map(|j| j.id.as_str()).collect();
    assert_eq!(ids.len(), SERVE_JOBS);
    let by_pes = |pes| w.jobs.iter().filter(|j| j.pes == pes).count();
    assert_eq!((by_pes(16), by_pes(64), by_pes(256)), (150, 120, 30));
    for job in &w.jobs {
        let spec = spec_of(job);
        assert_eq!(
            (spec.id.as_str(), spec.pes as u64),
            (job.id.as_str(), job.pes)
        );
        assert_eq!(spec.checkpoint_every, 256);
    }
}

#[test]
fn serve_resume_sweeps_four_warm_prefixes_upwards() {
    let w = serve_workload("serve_resume", DEFAULT_SEED).unwrap();
    let warm: BTreeMap<String, u64> = w
        .warm
        .iter()
        .map(|j| {
            let spec = spec_of(j);
            (spec.prefix_key(), spec.cycles)
        })
        .collect();
    assert_eq!(warm.len(), 4, "four distinct warm prefixes");
    let mut last = warm.clone();
    for job in &w.jobs {
        let spec = spec_of(job);
        let key = spec.prefix_key();
        let before = last
            .get(&key)
            .copied()
            .expect("every sweep job has a warm prefix");
        // Ascending by exactly one grid step: the cache always holds a
        // checkpoint at or below the budget, and the suffix is short.
        assert_eq!(spec.cycles, before + gen::RESUME_GRID, "job {}", job.id);
        last.insert(key, spec.cycles);
    }
    for (key, cycles) in &last {
        assert_eq!(
            *cycles,
            warm[key] + gen::RESUME_GRID * (SERVE_JOBS as u64 / 4)
        );
    }
}

#[test]
fn poisson_schedule_has_the_nominal_mean_rate() {
    for (seed, n, rate) in [
        (1, 300, 100.0),
        (2, 300, 54.0),
        (3, 40, 1000.0),
        (4, 5000, 7.5),
    ] {
        let due = poisson_schedule(seed, n, rate);
        assert_eq!(due.len(), n);
        assert!(due.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        let span_s = *due.last().unwrap() as f64 / 1e9;
        let measured = n as f64 / span_s;
        assert!(
            (measured - rate).abs() / rate < 0.02,
            "seed {seed}: {measured} jobs/s is not within 2 % of {rate}"
        );
        // Still Poisson-shaped: gaps vary (coefficient of variation near 1).
        let gaps: Vec<f64> = due.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((0.6..1.5).contains(&cv), "seed {seed}: gap CV {cv}");
    }
}
