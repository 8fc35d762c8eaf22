//! The other executables a run needs: `ultra-serve` (the program under
//! test, built from the root workspace) and `ultra-perf-probe` (the
//! benchmark's second binary: reference digests and per-layer probes).
//! Both are rebuilt through cargo before use, so a stale binary is
//! never measured; an up-to-date one costs a fraction of a second.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use ultra_perf::json::{self, Json};

/// This package's directory, fixed when the binary was compiled (the
/// binary is always run from the checkout it was built in).
const MANIFEST_DIR: &str = env!("CARGO_MANIFEST_DIR");

/// Where cargo puts (and this run finds) the executables.
pub struct Tools {
    target_dir: PathBuf,
}

impl Tools {
    /// Locates the target directory from this executable's own path,
    /// `<target>/release/ultra-perf`, so every child build lands next
    /// to it whether or not `CARGO_TARGET_DIR` is set.
    pub fn locate() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let target_dir = exe
            .parent()
            .and_then(Path::parent)
            .ok_or("this executable is not inside a cargo target directory")?;
        Ok(Self {
            target_dir: target_dir.to_owned(),
        })
    }

    fn cargo_build(&self, manifest: &Path, selector: &[&str]) -> Result<(), String> {
        let status = Command::new("cargo")
            .args(["build", "--release", "--offline", "--quiet"])
            .arg("--manifest-path")
            .arg(manifest)
            .arg("--target-dir")
            .arg(&self.target_dir)
            .args(selector)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("running cargo: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!(
                "cargo build {selector:?} of {} failed",
                manifest.display()
            ))
        }
    }

    /// Builds `ultra-serve` (release profile) and returns its path.
    pub fn build_server(&self) -> Result<PathBuf, String> {
        let root = Path::new(MANIFEST_DIR).join("..").join("Cargo.toml");
        self.cargo_build(&root, &["-p", "ultra-serve", "--bin", "ultra-serve"])?;
        Ok(self.target_dir.join("release").join("ultra-serve"))
    }

    /// Builds the probe binary, runs `command` for `workload` and `seed`
    /// (plus `extra` flag/value pairs), and parses the last line of its
    /// standard output as JSON.
    pub fn probe(
        &self,
        command: &str,
        workload: &str,
        seed: u64,
        extra: &[(&str, String)],
    ) -> Result<Json, String> {
        let mut args = vec![
            command.to_owned(),
            "--workload".to_owned(),
            workload.to_owned(),
            "--seed".to_owned(),
            seed.to_string(),
        ];
        for (flag, value) in extra {
            args.extend([(*flag).to_owned(), value.clone()]);
        }
        let manifest = Path::new(MANIFEST_DIR).join("Cargo.toml");
        self.cargo_build(&manifest, &["--bin", "ultra-perf-probe"])?;
        let exe = self.target_dir.join("release").join("ultra-perf-probe");
        let out = Command::new(&exe)
            .args(&args)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("running {}: {e}", exe.display()))?;
        if !out.status.success() {
            return Err(format!("probe {args:?} exited with {}", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let last = text
            .lines()
            .last()
            .ok_or_else(|| format!("probe {args:?} printed nothing"))?;
        json::parse(last).map_err(|e| format!("probe {args:?} output: {e}"))
    }
}
