//! The repository benchmark: end-to-end numbers from the shipped
//! `casa-seed` and `casa-serve` binaries run as child processes, and a
//! separate traced in-process run that times each layer's public calls.
//! See `perfbench/README.md` for the workloads and metrics.
//!
//! ```text
//! perfbench --workload <batch-human|batch-unmapped|serve-small> --seed <n>
//!           --seconds <s> --trace <0|1> --bin-dir <dir> [--work-dir <dir>] [--smoke]
//! ```
//!
//! The last stdout line is the result object (`correct`, `attempted`,
//! `failed`, `metrics`); the line before it carries the host and input
//! provenance. A human-readable report goes to stderr.

mod batch;
mod inputs;
mod layers;
mod proc;
mod provenance;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use inputs::{Inputs, ReadOrigin, Scale, FULL, SMOKE};
use stats::Outcome;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BatchHuman,
    BatchUnmapped,
    ServeSmall,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "batch-human" => Some(Workload::BatchHuman),
            "batch-unmapped" => Some(Workload::BatchUnmapped),
            "serve-small" => Some(Workload::ServeSmall),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchHuman => "batch-human",
            Workload::BatchUnmapped => "batch-unmapped",
            Workload::ServeSmall => "serve-small",
        }
    }

    /// Where this workload's reads come from (the serve pool is drawn
    /// from the `batch-human` reads).
    fn origin(self) -> ReadOrigin {
        match self {
            Workload::BatchUnmapped => ReadOrigin::Foreign,
            Workload::BatchHuman | Workload::ServeSmall => ReadOrigin::Reference,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
    work_dir: PathBuf,
    scale: Scale,
}

const USAGE: &str = "usage: perfbench --workload <batch-human|batch-unmapped|serve-small> \
--seed <n> --seconds <s> --trace <0|1> --bin-dir <dir> [--work-dir <dir>] [--smoke]";

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut bin_dir) =
        (None, None, None, None, None);
    let mut work_dir = PathBuf::from(".bench_work");
    let mut scale = FULL;
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            scale = SMOKE;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| "--seconds must be a number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        bin_dir: bin_dir.ok_or("--bin-dir is required")?,
        work_dir,
        scale,
    })
}

/// A command with the variables that change what the programs compute
/// or print removed, so only the benchmark's flags steer them.
pub fn clean_env(cmd: &mut Command) -> &mut Command {
    for var in ["CASA_LOG", "CASA_KERNEL", "CASA_BACKEND", "CASA_FAULT_SEED"] {
        cmd.env_remove(var);
    }
    cmd
}

/// The run's scratch directory; removed (with the index image and every
/// output file) however the run ends.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for bin in ["casa-seed", "casa-serve"] {
        if !args.bin_dir.join(bin).is_file() {
            eprintln!("perfbench: {} not found", args.bin_dir.join(bin).display());
            return ExitCode::FAILURE;
        }
    }
    let dir = RunDir(args.work_dir.join(format!("run-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&dir.0) {
        eprintln!("perfbench: cannot create {}: {e}", dir.0.display());
        return ExitCode::FAILURE;
    }
    match run(&args, &dir.0) {
        Ok((outcome, provenance)) => {
            report(&args, &outcome);
            println!("{provenance}");
            println!("{}", outcome.result_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Generates inputs, runs the workload (or its traced replay), and
/// returns the outcome plus the provenance line.
fn run(args: &Args, dir: &Path) -> Result<(Outcome, String), String> {
    let inputs = Inputs::generate(dir, args.scale, args.seed, args.workload.origin())
        .map_err(|e| format!("input generation: {e}"))?;
    eprintln!(
        "inputs: {} bases, {} reads ({} scale, seed {}) in {:.1} s",
        inputs.reference.len(),
        inputs.reads.len(),
        args.scale.name,
        args.seed,
        inputs.gen_seconds
    );
    let t = std::time::Instant::now();
    let (image, image_bytes) = inputs.build_image(dir)?;
    eprintln!(
        "image: {image_bytes} bytes in {:.1} s",
        t.elapsed().as_secs_f64()
    );
    let mut outcome = Outcome::default();
    let seed_bin = args.bin_dir.join("casa-seed");
    let serve_bin = args.bin_dir.join("casa-serve");
    match (args.trace, args.workload) {
        (false, Workload::BatchHuman | Workload::BatchUnmapped) => {
            let t = std::time::Instant::now();
            let golden = inputs::batch_golden(&inputs, dir)?;
            eprintln!(
                "golden (fm backend): {:?} in {:.1} s",
                golden.job,
                t.elapsed().as_secs_f64()
            );
            batch::run(
                &seed_bin,
                &inputs,
                dir,
                &image,
                &golden,
                args.seconds,
                &mut outcome,
            );
        }
        (false, Workload::ServeSmall) => {
            serve::run(&serve_bin, &inputs, &image, args.seconds, &mut outcome)?;
        }
        (true, workload) => {
            layers::run(workload, &inputs, &image, &args.work_dir, &mut outcome)?;
        }
    }
    let provenance = provenance::line(args.workload.name(), args.trace, &inputs, image_bytes);
    Ok((outcome, provenance))
}

/// The stderr report: every metric with its spread, and the failures.
fn report(args: &Args, outcome: &Outcome) {
    eprintln!(
        "== {} (trace {}) seed {}: attempted {}, succeeded {}, failed {}",
        args.workload.name(),
        u8::from(args.trace),
        args.seed,
        outcome.attempted,
        outcome.attempted - outcome.failed,
        outcome.failed
    );
    for why in &outcome.failures {
        eprintln!("   FAILED: {why}");
    }
    eprintln!(
        "   failed_frac = {} ratio",
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for m in &outcome.metrics {
        eprintln!(
            "   {:<36} {:>14.4} {:<8} [q1 {:.4}, q3 {:.4}; n={}]",
            m.name, m.value, m.unit, m.q1, m.q3, m.samples
        );
    }
}
