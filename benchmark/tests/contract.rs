//! `BENCHMARK.json` at the repo root and the metric catalog say the same
//! thing, and the file keeps to the builder's contract.

use ultra_perf::catalog::{END_TO_END, PER_LAYER};
use ultra_perf::gen::WORKLOADS;
use ultra_perf::json::{self, Json};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024);
    json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

#[test]
fn has_exactly_the_contract_keys() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc
        .as_object()
        .unwrap()
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let seconds = doc.get("run_seconds").unwrap().as_u64().unwrap();
    assert!((1..=60).contains(&seconds));
    let paths = doc.get("paths").unwrap().as_array().unwrap();
    assert_eq!(paths, [Json::Str("benchmark".into())]);
}

#[test]
fn workloads_match_the_generators() {
    let doc = benchmark_json();
    let listed: Vec<&str> = doc
        .get("workloads")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|w| {
            assert_eq!(w.as_object().unwrap().len(), 2, "exactly name and why");
            let why = w.get("why").unwrap().as_str().unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'));
            w.get("name").unwrap().as_str().unwrap()
        })
        .collect();
    assert_eq!(listed, WORKLOADS);
}

#[test]
fn metrics_match_the_catalog() {
    let doc = benchmark_json();
    for (key, catalog, bounded) in [
        ("end_to_end", &END_TO_END[..], true),
        ("per_layer", &PER_LAYER[..], false),
    ] {
        let listed = doc.get(key).unwrap().as_array().unwrap();
        assert_eq!(listed.len(), catalog.len(), "{key}");
        for (entry, m) in listed.iter().zip(catalog) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(m.unit.len() <= 16);
            assert_eq!(entry.get("name").unwrap().as_str(), Some(m.name));
            assert_eq!(
                entry.get("unit").unwrap().as_str(),
                Some(m.unit),
                "{}",
                m.name
            );
            assert_eq!(
                entry.get("better").unwrap().as_str(),
                Some(m.better.as_str()),
                "{}",
                m.name
            );
            let members = entry.as_object().unwrap().len();
            if bounded {
                assert_eq!(members, 4);
                assert_eq!(
                    entry.get("bound").unwrap().as_f64(),
                    Some(m.bound),
                    "{}",
                    m.name
                );
                assert!(m.bound > 0.0 && m.bound <= 0.25);
            } else {
                assert_eq!(members, 3, "{}: per-layer metrics carry no bound", m.name);
            }
        }
    }
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|m| m.name)
        .collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names.len(),
        END_TO_END.len() + PER_LAYER.len(),
        "names are unique"
    );
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
}
