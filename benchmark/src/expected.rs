//! The output gate's reference values: simulated cycles and parity
//! digest of every engine run and every serve job, recorded for
//! [`crate::gen::DEFAULT_SEED`]. A "speed-up" that changes what the
//! modelled machine computes fails against these.
//!
//! `expected.json` is compiled in, so editing it rebuilds the binaries
//! and a run never reads a reference file that drifted from its code.
//! Regenerate it with `ultra-perf --record-expected` — only in a change
//! that means to alter the modelled machine.

use std::collections::BTreeMap;

use crate::json::{self, Json};

const EXPECTED_JSON: &str = include_str!("../expected.json");

fn document() -> Option<Json> {
    json::parse(EXPECTED_JSON).ok()
}

fn cycles_and_parity(entry: &Json) -> Option<(u64, String)> {
    Some((
        entry.get("cycles")?.as_u64()?,
        entry.get("parity")?.as_str()?.to_owned(),
    ))
}

/// `(cycles, digest)` of engine workload `name` on the default seed;
/// `None` when the file has no (well-formed) entry.
#[must_use]
pub fn engine(name: &str) -> Option<(u64, u64)> {
    let (cycles, parity) = cycles_and_parity(document()?.get(name)?)?;
    Some((cycles, u64::from_str_radix(&parity, 16).ok()?))
}

/// Job id -> `(cycles, parity)` of serve workload `name` on the default
/// seed; `None` when the file has no (well-formed) entry.
#[must_use]
pub fn serve(name: &str) -> Option<BTreeMap<String, (u64, String)>> {
    document()?
        .get(name)?
        .as_object()?
        .iter()
        .map(|(id, entry)| Some((id.clone(), cycles_and_parity(entry)?)))
        .collect()
}
