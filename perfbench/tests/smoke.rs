//! Smoke mode end to end: every workload, traced and untraced, on tiny
//! inputs with the same correctness gates as the benchmark, plus a
//! `casa-seed` whose SAM output is corrupted, which must fail the run.
//!
//! Builds `casa-seed` and `casa-serve` from the repository first (into
//! `$CARGO_TARGET_DIR`, else the repository's `target/`).

use std::os::unix::fs::PermissionsExt;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
        .to_path_buf()
}

/// Builds the two binaries once and returns their directory.
fn bin_dir() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let root = repo_root();
        let status = Command::new(env!("CARGO"))
            .current_dir(&root)
            .args(["build", "--release", "--offline", "-p", "casa"])
            .args(["--bin", "casa-seed", "--bin", "casa-serve"])
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building casa-seed and casa-serve failed");
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| root.join("target"));
        let target = if target.is_absolute() {
            target
        } else {
            root.join(target)
        };
        target.join("release")
    })
}

/// Metric names BENCHMARK.json declares for `key`.
fn declared(key: &str) -> Vec<String> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let section = &text[text.find(&format!("\"{key}\"")).expect("section present")..];
    let section = &section[..section.find(']').expect("section ends")];
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name ends")].to_string())
        .collect()
}

/// Runs the harness in smoke mode and returns its last stdout line and
/// its stderr report.
fn smoke(workload: &str, trace: u8, bins: &Path) -> (String, String) {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let work = std::env::temp_dir().join(format!(
        "perfbench-smoke-{}-{}",
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed)
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .arg("--bin-dir")
        .arg(bins)
        .arg("--work-dir")
        .arg(&work)
        .output()
        .expect("harness runs");
    let _ = std::fs::remove_dir_all(&work);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "{workload} trace {trace} exited {:?}: {stderr}",
        out.status
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().expect("a result line").to_string();
    (line, stderr)
}

fn assert_clean((line, report): (String, String), metrics: &[String]) {
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}\n{report}"
    );
    assert!(line.contains("\"failed\": 0, "), "{line}");
    for m in metrics {
        assert!(
            line.contains(&format!("\"{m}\": {{\"value\": ")),
            "{m} missing: {line}"
        );
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let metrics = declared("end_to_end");
    assert_eq!(metrics.len(), 6);
    for workload in ["batch-human", "batch-unmapped", "serve-small"] {
        assert_clean(smoke(workload, 0, bin_dir()), &metrics);
    }
}

#[test]
fn traced_run_reports_every_per_layer_metric() {
    let metrics = declared("per_layer");
    assert!(metrics.len() > 30);
    for workload in ["batch-unmapped", "serve-small"] {
        assert_clean(smoke(workload, 1, bin_dir()), &metrics);
    }
}

#[test]
fn corrupted_sam_output_fails_the_run() {
    let fake = std::env::temp_dir().join(format!("perfbench-fake-bins-{}", std::process::id()));
    std::fs::create_dir_all(&fake).expect("temp dir");
    let real = bin_dir();
    // A casa-seed that runs the real one, then appends a bogus record.
    let script = format!(
        "#!/bin/sh\n\"{}\" \"$@\" || exit $?\nwhile [ $# -gt 0 ]; do\n  \
         if [ \"$1\" = --sam ]; then printf 'bogus\\t4\\t*\\t0\\t0\\t*\\t*\\t0\\t0\\tA\\t*\\n' >> \"$2\"; fi\n  \
         shift\ndone\n",
        real.join("casa-seed").display()
    );
    std::fs::write(fake.join("casa-seed"), script).expect("write wrapper");
    std::fs::set_permissions(
        fake.join("casa-seed"),
        std::fs::Permissions::from_mode(0o755),
    )
    .expect("make wrapper executable");
    std::fs::copy(real.join("casa-serve"), fake.join("casa-serve")).expect("copy casa-serve");
    let (line, _) = smoke("batch-human", 0, &fake);
    let _ = std::fs::remove_dir_all(&fake);
    assert!(line.starts_with("{\"correct\": false"), "{line}");
    assert!(!line.contains("\"failed\": 0,"), "{line}");
}
