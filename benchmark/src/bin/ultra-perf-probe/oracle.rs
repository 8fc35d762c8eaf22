//! Reference digests: what each job's result line must say, from an
//! in-process run that shares nothing with the service's slice loop,
//! cache or wire.

use std::collections::BTreeMap;

use ultra_perf::gen::{self, Job};
use ultra_perf::json::quote;
use ultra_serve::json::parse_object;
use ultra_serve::spec::JobSpec;
use ultra_sim::wire::fnv1a;
use ultracomputer::machine::Machine;
use ultracomputer::MachineReport;

use crate::ProbeDoc;

/// What a job's result line must carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    pub cycles: u64,
    pub parity: String,
}

/// The digest the service prints for `m`.
pub fn parity_of(m: &Machine) -> String {
    let report = MachineReport::from_machine(m);
    format!("{:016x}", fnv1a(report.parity_string().as_bytes()))
}

/// Parses a generated job line the way the service does.
pub fn spec_of(job: &Job) -> Result<JobSpec, String> {
    let obj = parse_object(&job.line).map_err(|e| format!("job {}: {e}", job.id))?;
    JobSpec::from_json(&obj, &job.id).map_err(|e| format!("job {}: {e}", job.id))
}

/// Every job (warm and measured) of serve workload `name`, by id.
///
/// Jobs that share a simulation prefix (equal `prefix_key`) are served
/// by one machine stepped through their budgets in ascending order:
/// `run_for(a)` then `run_for(b - a)` is `run_for(b)` by the core
/// contract the repo's own tests hold, and it spares re-simulating a
/// 1024-PE prefix three hundred times. A job with a prefix of its own
/// is exactly `spec.machine()` + one `run_for(spec.cycles)`.
pub fn references(name: &str, seed: u64) -> Result<BTreeMap<String, Reference>, String> {
    let w = gen::serve_workload(name, seed)
        .ok_or_else(|| format!("`{name}` is not a serve workload"))?;
    let mut by_prefix: BTreeMap<String, Vec<JobSpec>> = BTreeMap::new();
    for job in w.warm.iter().chain(&w.jobs) {
        let spec = spec_of(job)?;
        by_prefix.entry(spec.prefix_key()).or_default().push(spec);
    }
    let mut out = BTreeMap::new();
    for specs in by_prefix.values_mut() {
        specs.sort_by_key(|s| s.cycles);
        let mut m = specs[0].machine();
        let mut completed = false;
        for spec in specs.iter() {
            let remaining = spec.cycles.saturating_sub(m.now());
            if remaining > 0 && !completed {
                completed = m.run_for(remaining).completed;
            }
            out.insert(
                spec.id.clone(),
                Reference {
                    cycles: m.now(),
                    parity: parity_of(&m),
                },
            );
        }
    }
    Ok(out)
}

pub fn run(name: &str, seed: u64) -> Result<ProbeDoc, String> {
    let entries: Vec<String> = references(name, seed)?
        .iter()
        .map(|(id, r)| {
            format!(
                "{}: {{\"cycles\": {}, \"parity\": {}}}",
                quote(id),
                r.cycles,
                quote(&r.parity)
            )
        })
        .collect();
    let mut doc = ProbeDoc::default();
    doc.extra
        .push(("jobs".into(), format!("{{{}}}", entries.join(", "))));
    Ok(doc)
}
