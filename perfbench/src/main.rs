//! The end-to-end run: set up, drive the workload through `sprint serve`
//! for the measured seconds, check the reports, print the metrics.
//!
//! `perfbench --workload NAME --seed N --seconds S --trace 0 --sprint PATH --work DIR`
//! (normally started by `run.py`, which builds both programs first).

use std::process::ExitCode;
use std::time::Instant;

use perfbench::output::{self, Metric};
use perfbench::workload::{Workload, SETUPS};
use perfbench::{args, drive, provenance, setup, stats};

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Print the daemon's own counters: jobs, equilibrium cache, ring drops.
fn print_daemon_counters(addr: &str) -> bool {
    let Ok(r) = perfbench::http::get(addr, "/v1/metrics") else {
        return false;
    };
    for line in r.body.lines().filter(|l| {
        l.starts_with("serve_jobs_")
            || l.starts_with("cache_equilibrium_")
            || l.starts_with("serve_ring_dropped")
    }) {
        println!("daemon {line}");
    }
    r.ok()
}

fn run() -> perfbench::Result<bool> {
    let args = args::parse()?;
    if args.trace {
        return Err("the traced run is the perfbench-trace binary".to_string());
    }
    let w = Workload::new(&args.workload, args.seed)?;
    let wall = Instant::now();
    let steal = provenance::steal_ticks();
    provenance::print(&w, args.seconds, false);

    let ready = setup::run(&w, &args.sprint, &w.daemon_args(), SETUPS)?;
    let mut tally = ready.tally;
    let measured = drive::measure(&w, &ready.daemon.addr, args.seconds);
    let peak_kib = ready.daemon.peak_rss_kib()?;
    tally.record(print_daemon_counters(&ready.daemon.addr));
    ready.daemon.stop()?;
    tally.add(measured.tally);

    // Checks run after the daemon has exited, in this process.
    let mut observed = ready.observed;
    observed.merge(measured.observed);
    let checked = observed.verify(w.name())?;
    tally.add(checked);

    let n = measured.latencies.len();
    let metrics = [
        Metric::new(
            "setup_s",
            stats::median(&ready.times),
            "s",
            ready.times.len(),
        ),
        Metric::new("job_p50_s", stats::median(&measured.latencies), "s", n),
        Metric::new("peak_rss_mb", peak_kib as f64 / 1024.0, "MiB", 1),
    ];
    println!(
        "set-up times {:?} s; job times {:?} s",
        ready.times, measured.latencies
    );
    provenance::print_steal(steal, wall.elapsed().as_secs_f64());
    let ok = checked.failed == 0 && n > 0;
    output::finish(ok, tally, &metrics);
    Ok(ok)
}
