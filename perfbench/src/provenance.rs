//! Provenance printed on every run: cores, source revision, seed,
//! workload parameters, and the CPU time the hypervisor stole while the
//! run was going, so a noisy run shows in its own output.

use std::path::Path;

use crate::workload::Workload;

/// Steal time from the aggregate `cpu` line of `/proc/stat`, in clock
/// ticks (0 where unavailable).
#[must_use]
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let line = stat.lines().find(|l| l.starts_with("cpu "))?;
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Available cores.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The git revision of the checkout (`none` outside a git repository)
/// and a digest of the sources under `crates/`, which also tells apart
/// trees with uncommitted changes.
#[must_use]
pub fn revision() -> String {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or("none".to_string(), |out| {
            String::from_utf8_lossy(&out.stdout).trim().to_string()
        });
    let mut files = Vec::new();
    collect_sources(Path::new("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    format!(
        "git {git}; sources {:016x} ({} files under crates/)",
        crate::check::digest(&bytes),
        files.len()
    )
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

/// Print the provenance header of a run.
pub fn print(w: &Workload, seconds: f64, trace: bool) {
    println!(
        "perfbench workload={} seed={} seconds={seconds} trace={}",
        w.name(),
        w.seed,
        u8::from(trace)
    );
    println!("nproc {}", nproc());
    println!("revision {}", revision());
    println!("parameters {}", w.parameters());
}

/// Print the steal time accrued since `start_ticks`.
pub fn print_steal(start_ticks: u64, wall_s: f64) {
    // USER_HZ is 100 on Linux.
    let stolen = steal_ticks().saturating_sub(start_ticks) as f64 / 100.0;
    println!(
        "steal {stolen:.2} s of CPU time over {wall_s:.1} s wall ({:.1}% of {} cores)",
        100.0 * stolen / (wall_s * nproc() as f64).max(1e-9),
        nproc()
    );
}
