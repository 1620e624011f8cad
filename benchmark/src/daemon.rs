//! The `ledgerd` child process: spawn it with the default deployment,
//! learn its address from the "listening on" line, read its CPU time and
//! peak memory from `/proc`, `kill -9` it, and restart it on the same
//! directory and port.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

/// Linux reports `/proc/<pid>/stat` times in USER_HZ ticks, fixed at 100.
const CLOCK_TICKS_PER_S: f64 = 100.0;

pub struct Daemon {
    binary: PathBuf,
    dir: PathBuf,
    child: Child,
    /// Held open so a later write to stdout cannot kill the server.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Spawn on a fresh ephemeral port and wait until it listens.
    pub fn spawn(binary: &Path, dir: &Path) -> Result<Daemon, String> {
        Self::spawn_at(binary, dir, "127.0.0.1:0")
    }

    fn spawn_at(binary: &Path, dir: &Path, bind: &str) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let log = std::fs::File::options()
            .create(true)
            .append(true)
            .open(dir.join("ledgerd.stderr"))
            .map_err(|e| format!("open ledgerd log: {e}"))?;
        // The default deployment: threaded transport, admission=verify,
        // group commit, ack-after-durable, block size 16, checkpoint every
        // 64 seals, MPT state. Only the deployment settings are passed.
        let mut child = Command::new(binary)
            .arg("--dir")
            .arg(dir)
            .args(["--bind", bind, "--seed", "bench", "--workers", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", binary.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(n) if n > 0 => line
                .trim()
                .strip_prefix("ledgerd: listening on ")
                .and_then(|a| a.parse::<SocketAddr>().ok()),
            _ => None,
        };
        match addr {
            Some(addr) => Ok(Daemon {
                binary: binary.into(),
                dir: dir.into(),
                child,
                _stdout: stdout,
                addr,
            }),
            None => {
                let _ = child.kill(); // never listened
                let _ = child.wait();
                Err(format!(
                    "ledgerd did not report its address (stdout: {line:?}); see {}",
                    dir.join("ledgerd.stderr").display()
                ))
            }
        }
    }

    /// `kill -9` and reap, so no process outlives the run.
    pub fn kill9(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Start again on the same directory and the same port, so clients
    /// that hold the old address can redial.
    pub fn restart(&mut self) -> Result<(), String> {
        self.kill9();
        *self = Self::spawn_at(&self.binary, &self.dir, &self.addr.to_string())?;
        Ok(())
    }

    /// User + system CPU seconds the server has used so far.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // The command name (field 2) may hold spaces; fields count from
        // the closing parenthesis. utime and stime are fields 14 and 15.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or("malformed stat")?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
        match (ticks(11), ticks(12)) {
            (Some(utime), Some(stime)) => Ok((utime + stime) / CLOCK_TICKS_PER_S),
            _ => Err(format!("{path}: no utime/stime")),
        }
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM"))
    }

    /// Bytes the data directory holds (the server's log is not data).
    pub fn disk_bytes(&self) -> u64 {
        dir_bytes(&self.dir) - file_bytes(&self.dir.join("ledgerd.stderr"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill9();
    }
}

fn file_bytes(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&entry.path()),
            Ok(t) if t.is_file() => file_bytes(&entry.path()),
            _ => 0,
        })
        .sum()
}
