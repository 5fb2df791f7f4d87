//! Child processes: `paris` verbs and the serving daemon.

use std::fs::File;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::http::{Conn, Request};

/// The `paris` CLI under test.
pub struct Paris {
    pub bin: PathBuf,
    /// Where child stderr goes (kept for failure messages).
    pub log_dir: PathBuf,
}

/// How one `paris` invocation went.
pub struct Run {
    pub wall: Duration,
    /// Peak resident set (`VmHWM`) in KiB, when polled.
    pub peak_kib: u64,
}

impl Paris {
    fn command(&self, args: &[&str]) -> Result<(Command, PathBuf), String> {
        let log = self
            .log_dir
            .join(format!("{}.stderr", args.first().unwrap_or(&"paris")));
        let stderr = File::create(&log).map_err(|e| format!("creating {}: {e}", log.display()))?;
        let mut cmd = Command::new(&self.bin);
        cmd.args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr);
        Ok((cmd, log))
    }

    /// Runs one verb to completion; fails on a non-zero exit.
    pub fn run(&self, args: &[&str]) -> Result<Run, String> {
        self.run_inner(args, false)
    }

    /// Like [`run`](Self::run), polling the child's `VmHWM` from
    /// `/proc/<pid>/status` while it runs.
    pub fn run_polled(&self, args: &[&str]) -> Result<Run, String> {
        self.run_inner(args, true)
    }

    fn run_inner(&self, args: &[&str], poll: bool) -> Result<Run, String> {
        let (mut cmd, log) = self.command(args)?;
        let t = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", self.bin.display()))?;
        let done = AtomicBool::new(false);
        let pid = child.id();
        let (status, peak_kib) = std::thread::scope(|s| {
            let poller = poll.then(|| s.spawn(|| poll_peak_kib(pid, &done)));
            let status = child.wait();
            done.store(true, Ordering::Relaxed);
            let peak = poller.map_or(0, |p| p.join().expect("the VmHWM poller does not panic"));
            (status, peak)
        });
        let wall = t.elapsed();
        let status = status.map_err(|e| format!("waiting for paris {}: {e}", args[0]))?;
        if !status.success() {
            let stderr = std::fs::read_to_string(&log).unwrap_or_default();
            return Err(format!(
                "paris {} failed ({status}): {}",
                args.join(" "),
                stderr.trim()
            ));
        }
        Ok(Run { wall, peak_kib })
    }

    /// Starts `paris serve <snapshot>` with the CLI defaults on a free
    /// loopback port and waits until `/v1/healthz` answers.
    pub fn serve(&self, snapshot: &Path) -> Result<Server, String> {
        let snapshot = snapshot.to_str().ok_or("non-UTF-8 snapshot path")?;
        let mut last_error = String::new();
        for _ in 0..5 {
            let addr = free_port()?;
            let addr_arg = addr.to_string();
            // The daemon logs one line per request to stderr; the
            // workloads discard the request log.
            let child = Command::new(&self.bin)
                .args(["serve", snapshot, "--addr", &addr_arg])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("spawning {}: {e}", self.bin.display()))?;
            let mut server = Server { child, addr };
            match server.wait_ready() {
                Ok(()) => return Ok(server),
                Err(e) => last_error = e,
            }
        }
        Err(format!("paris serve did not come up: {last_error}"))
    }
}

/// A running `paris serve`; killed and reaped on drop.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
}

impl Server {
    /// The daemon's peak resident set so far (`VmHWM`), in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        std::fs::read_to_string(&path)
            .ok()
            .and_then(|status| vm_hwm_kib(&status))
            .map(|kib| kib as f64 / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    fn wait_ready(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(60);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("exited early ({status})"));
            }
            let healthy = Conn::connect(self.addr)
                .and_then(|mut c| c.send(&Request::get("/v1/healthz")))
                .is_ok_and(|r| r.status == 200);
            if healthy {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("no /v1/healthz answer within 60 s".to_owned())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn free_port() -> Result<SocketAddr, String> {
    TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .map_err(|e| format!("finding a free port: {e}"))
}

/// Polls `VmHWM` (KiB) until `done`; returns the last value read.
fn poll_peak_kib(pid: u32, done: &AtomicBool) -> u64 {
    let path = format!("/proc/{pid}/status");
    let mut peak = 0;
    while !done.load(Ordering::Relaxed) {
        if let Some(kib) = std::fs::read_to_string(&path)
            .ok()
            .and_then(|status| vm_hwm_kib(&status))
        {
            peak = peak.max(kib);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    peak
}

fn vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_vm_hwm_from_proc_status() {
        let status = "Name:\tparis\nVmPeak:\t  300 kB\nVmHWM:\t  181248 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(vm_hwm_kib(status), Some(181_248));
        assert_eq!(vm_hwm_kib("Name:\tzombie\n"), None);
    }
}
