//! `sprint serve` as a child process, started the way operators run it.
//! Unlike `sprint_serve::harness::ServeChild`, which exists to kill a
//! daemon, this handle exposes the pid (for `VmHWM`) and stops the
//! daemon gracefully, checking that it exits cleanly.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The line the daemon prints on stdout once it is bound and recovered.
const ADDR_PREFIX: &str = "SERVE_ADDR=";

/// How long a drained daemon may take to exit before it is killed.
const EXIT_GRACE: Duration = Duration::from_secs(60);

/// A running daemon. Dropping it kills and reaps the process.
pub struct Daemon {
    child: Child,
    /// `host:port` the daemon announced.
    pub addr: String,
    stdout: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Start `sprint serve --addr 127.0.0.1:0 <args>` and wait until it
    /// announces its address and answers `GET /v1/version`.
    ///
    /// # Errors
    ///
    /// The process cannot start, exits before announcing, or never answers.
    pub fn start(sprint: &Path, args: &[String]) -> crate::Result<Daemon> {
        let mut child = Command::new(sprint)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", sprint.display()))?;
        let mut reader = BufReader::new(child.stdout.take().ok_or("daemon stdout not piped")?);
        let mut line = String::new();
        let announced = reader.read_line(&mut line).map(|_| line.trim().to_string());
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            stdout: None,
        };
        match announced {
            Ok(line) if line.starts_with(ADDR_PREFIX) => {
                daemon.addr = line[ADDR_PREFIX.len()..].to_string();
            }
            Ok(line) => {
                return Err(format!(
                    "daemon did not announce its address (got `{line}`)"
                ))
            }
            Err(e) => return Err(format!("reading daemon stdout: {e}")),
        }
        // Keep the pipe drained so the daemon never blocks on stdout.
        daemon.stdout = Some(std::thread::spawn(move || {
            let _ = std::io::copy(&mut reader, &mut std::io::sink());
        }));
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match crate::http::get(&daemon.addr, "/v1/version") {
                Ok(r) if r.status == 200 => return Ok(daemon),
                _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(2)),
                _ => return Err("daemon never answered /v1/version".to_string()),
            }
        }
    }

    /// The daemon's process id.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident memory so far (`VmHWM`), in KiB.
    ///
    /// # Errors
    ///
    /// `/proc` is unreadable or lacks the field.
    pub fn peak_rss_kib(&self) -> crate::Result<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(crate::ctx("reading daemon /proc status"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| "no VmHWM in daemon /proc status".to_string())
    }

    /// Drain the daemon (`POST /v1/drain`) and wait for it to exit.
    ///
    /// # Errors
    ///
    /// The drain request fails or the daemon exits unsuccessfully.
    pub fn stop(mut self) -> crate::Result<()> {
        let drained = crate::http::request(&self.addr, "POST", "/v1/drain", "");
        let deadline = Instant::now() + EXIT_GRACE;
        let status = loop {
            match self
                .child
                .try_wait()
                .map_err(crate::ctx("waiting for daemon"))?
            {
                Some(status) => break Some(status),
                None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
                None => break None,
            }
        };
        self.reap();
        match (drained, status) {
            (Ok(r), Some(s)) if r.ok() && s.success() => Ok(()),
            (Ok(r), _) if !r.ok() => Err(format!("drain answered {}: {}", r.status, r.body)),
            (Err(e), _) => Err(format!("drain request: {e}")),
            (_, None) => Err("daemon did not exit after drain".to_string()),
            (_, Some(s)) => Err(format!("daemon exited with {s}")),
        }
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(handle) = self.stdout.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.reap();
    }
}
