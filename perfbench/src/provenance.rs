//! Host and input provenance printed with every result.

use std::fs;
use std::path::Path;
use std::process::Command;

use crate::inputs::Inputs;
use crate::stats::json_string;

/// CPU flags that decide which CAM word kernel can run.
const KERNEL_FLAGS: &[&str] = &[
    "popcnt", "bmi2", "avx", "avx2", "avx512f", "avx512bw", "avx512vl",
];

fn cpuinfo_field(cpuinfo: &str, key: &str) -> Option<String> {
    cpuinfo.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        (k.trim() == key).then(|| v.trim().to_string())
    })
}

/// HEAD of the checkout's own git repository (never of an enclosing one).
fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "none".to_string();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".to_string())
}

/// The provenance object, one JSON line.
pub fn line(workload: &str, trace: bool, inputs: &Inputs, image_bytes: u64) -> String {
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags = cpuinfo_field(&cpuinfo, "flags").unwrap_or_default();
    let have: Vec<&str> = flags.split_whitespace().collect();
    let kernel_flags: Vec<&str> = KERNEL_FLAGS
        .iter()
        .copied()
        .filter(|f| have.contains(f))
        .collect();
    let l3 = fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let config = inputs.scale.config();
    format!(
        "{{\"provenance\": {{\"workload\": {}, \"trace\": {}, \"seed\": {}, \"scale\": {}, \
         \"nproc\": {nproc}, \"cpu_model\": {}, \"cpu_kernel_flags\": {}, \"l3\": {}, \
         \"cam_kernel\": {}, \"commit\": {}, \
         \"reference_bases\": {}, \"partition_bases\": {}, \"partitions\": {}, \
         \"reads\": {}, \"read_len\": {}, \"image_bytes\": {image_bytes}}}}}",
        json_string(workload),
        u8::from(trace),
        inputs.seed,
        json_string(inputs.scale.name),
        json_string(&cpuinfo_field(&cpuinfo, "model name").unwrap_or_else(|| "unknown".into())),
        json_string(&kernel_flags.join(" ")),
        json_string(&l3),
        json_string(casa::cam::kernel::default_backend().as_str()),
        json_string(&git_commit()),
        inputs.reference.len(),
        config.partitioning.part_len,
        config.partitioning.part_count(inputs.reference.len()),
        inputs.reads.len(),
        crate::inputs::READ_LEN,
    )
}
