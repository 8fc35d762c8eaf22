//! What the benchmark reads from the host: the header every output
//! carries, and process memory and CPU time from `/proc`.

use std::process::Command;

use crate::json::quote;

fn first_line_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().next()?.trim();
    (!line.is_empty()).then(|| line.to_owned())
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|line| line.strip_prefix(key)?.trim_start().strip_prefix(':'))
        .map(|v| v.trim().to_owned())
}

/// `HEAD` of the repo this package sits in. Asked of git only when the
/// repo root has a `.git` of its own: in an exported copy (the
/// acceptance driver's checkout is one) git would go looking through
/// the parent directories, which are none of the benchmark's business.
fn commit() -> Option<String> {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    std::path::Path::new(root)
        .join(".git")
        .exists()
        .then_some(())?;
    first_line_of("git", &["-C", root, "rev-parse", "HEAD"])
}

/// Logical cores the host advertises.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The honest header: where, on what and with which settings a set of
/// numbers was measured. `settings` are (key, already-rendered JSON
/// value) pairs appended after the host facts.
#[must_use]
pub fn header_json(settings: &[(&str, String)]) -> String {
    let unknown = || "unknown".to_owned();
    let mut fields = vec![
        ("nproc".to_owned(), nproc().to_string()),
        (
            "cpu_model".to_owned(),
            quote(&proc_field("/proc/cpuinfo", "model name").unwrap_or_else(unknown)),
        ),
        (
            "kernel".to_owned(),
            quote(&first_line_of("uname", &["-sr"]).unwrap_or_else(unknown)),
        ),
        (
            "rustc".to_owned(),
            quote(&first_line_of("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        (
            "commit".to_owned(),
            quote(&commit().unwrap_or_else(unknown)),
        ),
    ];
    fields.extend(settings.iter().map(|(k, v)| ((*k).to_owned(), v.clone())));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", quote(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB, or of this
/// process for `None`. `None` when `/proc` has no such entry.
#[must_use]
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let field = proc_field(&path, "VmHWM")?;
    let kib: f64 = field.split_whitespace().next()?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User + system CPU seconds process `pid` has consumed so far.
#[must_use]
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may hold spaces; fields are counted after its
    // closing parenthesis. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    // USER_HZ is 100 on every Linux this runs on.
    Some((utime + stime) / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, number};

    #[test]
    fn header_is_json_and_names_the_host() {
        let doc = header_json(&[("seed", "7".into()), ("rate", number(110.0))]);
        let v = json::parse(&doc).unwrap();
        assert!(v.get("nproc").unwrap().as_u64().unwrap() >= 1);
        assert!(v.get("cpu_model").unwrap().as_str().is_some());
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("rate").unwrap().as_f64(), Some(110.0));
    }

    #[test]
    fn reads_own_memory_and_cpu_time() {
        assert!(peak_rss_mb(None).unwrap() > 0.5);
        assert!(cpu_seconds(std::process::id()).unwrap() >= 0.0);
        assert_eq!(peak_rss_mb(Some(u32::MAX)), None);
    }
}
