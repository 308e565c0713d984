//! Launching and stopping the `qgx` program steps, and reading their
//! memory and on-disk footprint.

use crate::http;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn sysconf(name: i32) -> i64;
}
const SC_CLK_TCK: i32 = 2;
const SIGTERM: i32 = 15;
const SIGKILL: i32 = 9;

/// A loopback port that was free a moment ago.
pub fn free_port() -> std::io::Result<u16> {
    Ok(std::net::TcpListener::bind("127.0.0.1:0")?
        .local_addr()?
        .port())
}

fn command(qgx: &Path, args: &[String], log: &Path) -> Result<Command, String> {
    let out = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
    let err = out
        .try_clone()
        .map_err(|e| format!("{}: {e}", log.display()))?;
    let mut command = Command::new(qgx);
    command
        .args(args)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err);
    Ok(command)
}

fn log_tail(log: &Path) -> String {
    let text = std::fs::read_to_string(log).unwrap_or_default();
    let lines: Vec<&str> = text.lines().collect();
    lines[lines.len().saturating_sub(5)..].join("\n")
}

/// Run one program step to completion; its output goes to `log`.
pub fn run_step(qgx: &Path, args: &[String], log: &Path) -> Result<(), String> {
    let status = command(qgx, args, log)?
        .status()
        .map_err(|e| format!("cannot run qgx {args:?}: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!(
            "qgx {args:?} failed ({status}):\n{}",
            log_tail(log)
        ))
    }
}

/// A running `qgx serve`.
pub struct Server {
    child: Child,
    pub addr: String,
    log: PathBuf,
}

impl Server {
    /// Launch `qgx serve <args> --listen 127.0.0.1:<port>`.
    pub fn spawn(qgx: &Path, args: &[String], log: &Path) -> Result<Server, String> {
        let port = free_port().map_err(|e| format!("no free port: {e}"))?;
        let addr = format!("127.0.0.1:{port}");
        let mut all = vec!["serve".to_string()];
        all.extend_from_slice(args);
        all.extend(["--listen".to_string(), addr.clone()]);
        let child = command(qgx, &all, log)?
            .spawn()
            .map_err(|e| format!("cannot launch qgx serve: {e}"))?;
        Ok(Server {
            child,
            addr,
            log: log.to_path_buf(),
        })
    }

    /// Poll `GET /healthz` until it answers 200.
    pub fn wait_healthy(&mut self, limit: Duration) -> Result<(), String> {
        let start = Instant::now();
        loop {
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!(
                    "qgx serve exited during boot ({status}):\n{}",
                    log_tail(&self.log)
                ));
            }
            if let Ok(reply) = http::get(&self.addr, "/healthz") {
                if reply.status == 200 {
                    return Ok(());
                }
            }
            if start.elapsed() > limit {
                return Err(format!(
                    "qgx serve not healthy after {limit:?}:\n{}",
                    log_tail(&self.log)
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Peak resident memory (`VmHWM`) of the server and every process
    /// below it, MiB.
    pub fn tree_peak_rss_mb(&self) -> f64 {
        let kib: u64 = process_tree(self.child.id())
            .into_iter()
            .filter_map(vm_hwm_kib)
            .sum();
        kib as f64 / 1024.0
    }

    /// The server and every process below it, server first.
    pub fn tree(&self) -> Vec<u32> {
        process_tree(self.child.id())
    }

    /// SIGTERM (the server drains and its shard children exit on stdin
    /// EOF), then wait for the whole tree; SIGKILL whatever outlives
    /// the grace period.
    pub fn stop(mut self) {
        let tree = process_tree(self.child.id());
        // SAFETY: kill(2) on a pid this process spawned and has not yet
        // reaped, so the pid cannot have been recycled.
        unsafe {
            kill(self.child.id() as i32, SIGTERM);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        for pid in tree.into_iter().skip(1) {
            let deadline = Instant::now() + Duration::from_secs(5);
            while alive(pid) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
            if alive(pid) {
                // SAFETY: the pid is a descendant recorded while it was
                // alive; SIGKILL only ends it.
                unsafe {
                    kill(pid as i32, SIGKILL);
                }
                while alive(pid) {
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
    }
}

/// The fields of `/proc/<pid>/stat` after the command name, starting
/// with the state (field 3).
fn stat_rest(pid: u32) -> Option<Vec<String>> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name is parenthesised and may hold spaces.
    let rest = &stat[stat.rfind(')')? + 2..];
    Some(rest.split(' ').map(String::from).collect())
}

fn stat_fields(pid: u32) -> Option<(char, u32)> {
    let fields = stat_rest(pid)?;
    let state = fields.first()?.chars().next()?;
    let ppid = fields.get(1)?.parse().ok()?;
    Some((state, ppid))
}

/// CPU seconds (user + system, all threads) the processes `pids` have
/// used so far. The kernel charges time the hypervisor gave to other
/// guests as steal, not to the process.
pub fn cpu_s(pids: &[u32]) -> f64 {
    let ticks: u64 = pids
        .iter()
        .filter_map(|&pid| {
            let fields = stat_rest(pid)?;
            // utime and stime are fields 14 and 15.
            let utime: u64 = fields.get(11)?.parse().ok()?;
            let stime: u64 = fields.get(12)?.parse().ok()?;
            Some(utime + stime)
        })
        .sum();
    // SAFETY: sysconf only reads a system constant.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1);
    ticks as f64 / hz as f64
}

fn alive(pid: u32) -> bool {
    matches!(stat_fields(pid), Some((state, _)) if state != 'Z' && state != 'X')
}

/// `root` and all its live descendants, root first.
fn process_tree(root: u32) -> Vec<u32> {
    let mut parents: Vec<(u32, u32)> = Vec::new();
    if let Ok(entries) = std::fs::read_dir("/proc") {
        for entry in entries.flatten() {
            if let Some(pid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) {
                if let Some((_, ppid)) = stat_fields(pid) {
                    parents.push((pid, ppid));
                }
            }
        }
    }
    let mut tree = vec![root];
    let mut i = 0;
    while i < tree.len() {
        let parent = tree[i];
        tree.extend(
            parents
                .iter()
                .filter(|&&(_, ppid)| ppid == parent)
                .map(|&(pid, _)| pid),
        );
        i += 1;
    }
    tree
}

fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Total bytes of the regular files under `dir`, MiB.
pub fn dir_mb(dir: &Path) -> f64 {
    fn walk(dir: &Path) -> u64 {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return 0;
        };
        entries
            .flatten()
            .map(|entry| match entry.metadata() {
                Ok(meta) if meta.is_dir() => walk(&entry.path()),
                Ok(meta) => meta.len(),
                Err(_) => 0,
            })
            .sum()
    }
    walk(dir) as f64 / (1024.0 * 1024.0)
}

/// `(steal, total)` CPU ticks of the whole machine so far, from the
/// first line of `/proc/stat`; `None` where it cannot be read.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}
