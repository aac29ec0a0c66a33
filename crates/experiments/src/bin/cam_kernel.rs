//! CAM kernel harness: scalar reference vs the fused word-kernel
//! backends, per query and per shared-mask batch. Usage: `cam_kernel [small|medium|large]`.
use casa_experiments::{cam_kernel, scale_from_args};

fn main() {
    let scale = scale_from_args();
    let report = cam_kernel::run(scale);
    let table = cam_kernel::table(&report);
    print!("{}", table.render());
    let best = report.best_batched();
    println!(
        "headline: {}/{} {:.1}x over per-query {} at {} entries; \
         oracle->u64 {:.1}x; session best {:.2}x",
        best.workload,
        best.kernel,
        report.headline_speedup(),
        cam_kernel::BASELINE,
        report.entries,
        report.micro_speedup(),
        report.session_speedup(),
    );
    if let Ok(path) = table.save_csv("cam_kernel") {
        println!("(csv written to {})", path.display());
    }
    let bench_path = "BENCH_kernels.json";
    match std::fs::write(bench_path, cam_kernel::bench_json(&report, scale)) {
        Ok(()) => println!("(bench record written to {bench_path})"),
        Err(e) => eprintln!("cam_kernel: could not write {bench_path}: {e}"),
    }
}
