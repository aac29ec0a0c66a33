//! The batch workloads: repeated `casa-seed` jobs over one input set,
//! each a fresh process that builds the index in-process, seeds both
//! strands, aligns, and writes SAM. After each, a short image-load job
//! maps the prebuilt index image instead; its load time is the batch
//! `reload_ms`.

use std::fs::File;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::inputs::{path_arg, sam_body_digest, BatchGolden, Golden, Inputs};
use crate::proc::Guarded;
use crate::stats::{percentile, Metric, Outcome};

/// Jobs timed per run even when `--seconds` has already passed: the
/// medians need several samples.
const MIN_JOBS: usize = 5;
/// A job running longer than this is a failure.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// One successful `casa-seed` process.
struct Run {
    wall_s: f64,
    /// Its `CASA_LOG=info` stderr.
    log: String,
    sam_digest: u64,
    max_rss_kb: u64,
}

/// Runs `casa-seed` over `reads` with `flags` added; a non-zero exit is
/// an error.
fn casa_seed(
    bin: &Path,
    inputs: &Inputs,
    reads: &Path,
    flags: &[String],
    dir: &Path,
) -> Result<Run, String> {
    let sam = dir.join("job.sam");
    let log = dir.join("job.log");
    let mut cmd = Command::new(bin);
    cmd.arg("--reference")
        .arg(path_arg(&inputs.ref_path))
        .arg("--reads")
        .arg(path_arg(reads))
        .arg("--sam")
        .arg(path_arg(&sam))
        .args(flags);
    crate::clean_env(&mut cmd)
        .env("CASA_LOG", "info")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(File::create(&log).map_err(|e| format!("job log: {e}"))?);
    let start = Instant::now();
    let child = Guarded::new(cmd.spawn().map_err(|e| format!("spawn casa-seed: {e}"))?);
    let exit = child
        .wait(JOB_TIMEOUT)
        .map_err(|e| format!("casa-seed: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    let log = std::fs::read_to_string(&log).unwrap_or_default();
    if !exit.success() {
        return Err(format!("casa-seed exited {:?}: {}", exit.code, log.trim()));
    }
    let sam_digest = sam_body_digest(&sam, usize::MAX).map_err(|e| format!("read SAM: {e}"))?;
    Ok(Run {
        wall_s,
        log,
        sam_digest,
        max_rss_kb: exit.max_rss_kb,
    })
}

/// One finished index-building job.
struct Job {
    wall_s: f64,
    setup_s: f64,
    max_rss_kb: u64,
}

/// Runs one index-building job over the workload's reads and checks its
/// outputs against `golden`.
fn run_job(bin: &Path, inputs: &Inputs, dir: &Path, golden: &BatchGolden) -> Result<Job, String> {
    let flags = match inputs.scale.partition {
        Some(p) => vec!["--partition".to_string(), p.to_string()],
        None => Vec::new(),
    };
    let run = casa_seed(bin, inputs, &inputs.reads_path, &flags, dir)?;
    let setup_ms = parse_after(&run.log, "index built in ", " ms")
        .ok_or_else(|| format!("no index-built line in casa-seed log: {}", run.log.trim()))?;
    let counts = parse_summary(&run.log).ok_or("no summary line in casa-seed log")?;
    let seen = BatchGolden {
        reads: counts.0,
        aligned: counts.1,
        smems: counts.2,
        sam_digest: run.sam_digest,
    };
    if seen != *golden {
        return Err(format!("output mismatch: got {seen:?}, golden {golden:?}"));
    }
    Ok(Job {
        wall_s: run.wall_s,
        setup_s: setup_ms / 1e3,
        max_rss_kb: run.max_rss_kb,
    })
}

/// Runs one image-load job (`--index-image` over the workload's first
/// reads), checks its SAM against the golden's first records, and
/// returns the load time it logs in ms (`index mapped in … ms`: the image
/// opened with full verification, then the session wired).
fn run_reload(
    bin: &Path,
    inputs: &Inputs,
    dir: &Path,
    image: &Path,
    golden: &Golden,
) -> Result<f64, String> {
    let flags = ["--index-image".to_string(), path_arg(image)];
    let run = casa_seed(bin, inputs, &inputs.reload_path, &flags, dir)?;
    let load_ms = parse_after(&run.log, "index mapped in ", " ms")
        .ok_or_else(|| format!("no index-mapped line in casa-seed log: {}", run.log.trim()))?;
    let reads = parse_summary(&run.log)
        .ok_or("no summary line in casa-seed log")?
        .0;
    if reads != golden.reload_reads || run.sam_digest != golden.reload_sam_digest {
        return Err(format!(
            "image-load job output mismatch: {reads} reads, SAM digest {}",
            run.sam_digest
        ));
    }
    Ok(load_ms)
}

/// The number between `before` and the next `after` on the first line
/// that has both.
fn parse_after(text: &str, before: &str, after: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        let rest = &line[line.find(before)? + before.len()..];
        rest[..rest.find(after)?].trim().parse().ok()
    })
}

/// `(reads, aligned, smems)` from the `N reads, A aligned, S SMEMs` line.
fn parse_summary(text: &str) -> Option<(u64, u64, u64)> {
    text.lines().find_map(|line| {
        let words: Vec<&str> = line.split_whitespace().collect();
        let at = words.windows(2).position(|w| w[1] == "reads,")?;
        let num = |i: usize| words.get(i)?.trim_end_matches(',').parse().ok();
        if words.get(at + 3) != Some(&"aligned,") || words.get(at + 5) != Some(&"SMEMs") {
            return None;
        }
        Some((num(at)?, num(at + 2)?, num(at + 4)?))
    })
}

/// Runs index-building jobs, each followed by an image-load job, for
/// `seconds` (at least [`MIN_JOBS`] pairs) and reduces them to the
/// end-to-end metrics. No warm-up job: the inputs were just written and
/// the binary just built or run, so both are in the page cache.
pub fn run(
    bin: &Path,
    inputs: &Inputs,
    dir: &Path,
    image: &Path,
    golden: &Golden,
    seconds: f64,
    out: &mut Outcome,
) {
    let mut jobs = Vec::new();
    let mut reload_ms = Vec::new();
    let start = Instant::now();
    while jobs.len() < MIN_JOBS || start.elapsed().as_secs_f64() < seconds {
        match run_job(bin, inputs, dir, &golden.job) {
            Ok(job) => {
                eprintln!(
                    "   job {}: wall {:.3} s, setup {:.3} s, {:.0} reads/s",
                    jobs.len(),
                    job.wall_s,
                    job.setup_s,
                    golden.job.reads as f64 / (job.wall_s - job.setup_s)
                );
                out.check(Ok(()));
                jobs.push(job);
            }
            Err(why) => {
                out.check(Err(why));
            }
        }
        match run_reload(bin, inputs, dir, image, golden) {
            Ok(ms) => {
                out.check(Ok(()));
                reload_ms.push(ms);
            }
            Err(why) => {
                out.check(Err(why));
            }
        }
        if out.failed > 0 && jobs.len() + (out.failed as usize) >= MIN_JOBS {
            break;
        }
    }
    eprintln!(
        "batch: {} timed jobs of {} reads and {} image-load jobs in {:.1} s",
        jobs.len(),
        golden.job.reads,
        reload_ms.len(),
        start.elapsed().as_secs_f64()
    );
    if jobs.is_empty() || reload_ms.is_empty() {
        return;
    }
    // Throughput over the whole run (every job's reads over every job's
    // non-setup wall): the host's speed drifts in phases of several
    // seconds, and the run-wide ratio averages them where a median of
    // ~12 short jobs flips between phases.
    let seeding_s: f64 = jobs.iter().map(|j| j.wall_s - j.setup_s).sum();
    let rate = (golden.job.reads * jobs.len() as u64) as f64 / seeding_s;
    let setup: Vec<f64> = jobs.iter().map(|j| j.setup_s).collect();
    let wall_ms: Vec<f64> = jobs.iter().map(|j| j.wall_s * 1e3).collect();
    let rss: Vec<f64> = jobs.iter().map(|j| j.max_rss_kb as f64 / 1024.0).collect();
    out.metrics
        .push(Metric::single("reads_per_s", "reads/s", rate, jobs.len()));
    out.metrics.push(Metric::median_of("setup_s", "s", &setup));
    // casa-seed reports no per-read latency: the job wall stands in, and
    // at ~10 jobs a run its p99 is the slowest job.
    out.metrics
        .push(Metric::median_of("latency_p50_ms", "ms", &wall_ms));
    out.metrics.push(Metric::single(
        "latency_p99_ms",
        "ms",
        percentile(&wall_ms, 99.0),
        wall_ms.len(),
    ));
    out.metrics
        .push(Metric::median_of("reload_ms", "ms", &reload_ms));
    out.metrics
        .push(Metric::median_of("peak_rss_mb", "MB", &rss));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_casa_seed_info_lines() {
        let log = "casa[info] +0.001s index built in 812.3 ms (8 partitions)\n\
                   casa[info] +0.9s casa_seed: 8000 reads, 7950 aligned, 15001 SMEMs (avx2 kernel)\n";
        assert_eq!(parse_after(log, "index built in ", " ms"), Some(812.3));
        assert_eq!(parse_summary(log), Some((8000, 7950, 15001)));
        assert_eq!(parse_summary("nothing here"), None);
    }
}
