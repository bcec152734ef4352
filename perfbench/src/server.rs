//! One `concord-serve` child process per phase: spawn it on free
//! loopback ports, time it to its first OK response, scrape its admin
//! plane, read its memory from `/proc`, and stop it.

use concord_wire::frame::{self as wire, Frame, Status};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Longest wait for a fresh server to answer its first request.
const READY_TIMEOUT: Duration = Duration::from_secs(20);
/// Servers tried, one after another, before a start-up fails.
const START_ATTEMPTS: u32 = 3;
/// Longest wait for a server to drain and exit after SIGTERM.
const STOP_TIMEOUT: Duration = Duration::from_secs(20);
const SIGTERM: i32 = 15;
const SIGKILL: i32 = 9;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

/// How to start a server: the binary and the flags every phase shares.
pub struct ServeCmd {
    pub bin: PathBuf,
    pub app: &'static str,
}

/// A running server, stopped (SIGTERM, then SIGKILL) when dropped.
pub struct Server {
    child: Option<Child>,
    pub addr: String,
    pub admin: String,
    /// From spawn to the first OK response.
    pub setup: Duration,
    /// Requests the readiness check sent (the server counts them too).
    pub probes: u64,
    log: PathBuf,
}

/// A port nothing listens on right now.
fn free_port() -> std::io::Result<u16> {
    Ok(TcpListener::bind("127.0.0.1:0")?.local_addr()?.port())
}

impl Server {
    /// Starts `cmd` with its output in `log`, adding `--trace trace`
    /// when given, and waits for it to answer one request OK. A server
    /// that exits or hangs up before its first answer is replaced by a
    /// new one on other ports, up to [`START_ATTEMPTS`] times in all; a
    /// stray start-up failure would otherwise abort the whole run.
    pub fn start(cmd: &ServeCmd, log: &Path, trace: Option<&Path>) -> std::io::Result<Server> {
        let mut attempt = 1;
        loop {
            match Self::start_once(cmd, log, trace) {
                Err(e) if attempt < START_ATTEMPTS => {
                    println!("server start attempt {attempt} failed ({e}); starting another");
                    attempt += 1;
                }
                result => return result,
            }
        }
    }

    fn start_once(cmd: &ServeCmd, log: &Path, trace: Option<&Path>) -> std::io::Result<Server> {
        let addr = format!("127.0.0.1:{}", free_port()?);
        let admin = format!("127.0.0.1:{}", free_port()?);
        let out = std::fs::File::create(log)?;
        let mut c = Command::new(&cmd.bin);
        c.args(["--listen", &addr, "--admin", &admin, "--app", cmd.app])
            .args([
                "--workers",
                "1",
                "--shards",
                "1",
                "--quantum-us",
                "5",
                "--policy",
                "ps",
            ])
            .stdin(Stdio::null())
            .stdout(out.try_clone()?)
            .stderr(out);
        if let Some(t) = trace {
            c.arg("--trace").arg(t);
        }
        let t0 = Instant::now();
        let child = c.spawn()?;
        let mut server = Server {
            child: Some(child),
            addr,
            admin,
            setup: Duration::ZERO,
            probes: 0,
            log: log.to_path_buf(),
        };
        server.first_ok(t0)?;
        server.setup = t0.elapsed();
        Ok(server)
    }

    /// Connects as soon as the listener is up and sends one class-0
    /// request; returns once it is answered OK.
    fn first_ok(&mut self, t0: Instant) -> std::io::Result<()> {
        let mut conn = loop {
            match TcpStream::connect(&self.addr) {
                Ok(c) => break c,
                Err(e) if t0.elapsed() > READY_TIMEOUT => return Err(e),
                Err(_) => {
                    if let Some(status) = self
                        .child
                        .as_mut()
                        .and_then(|c| c.try_wait().ok().flatten())
                    {
                        return Err(std::io::Error::other(format!(
                            "concord-serve exited during start-up ({status}); see {}",
                            self.log.display()
                        )));
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        };
        conn.set_nodelay(true)?;
        conn.set_read_timeout(Some(READY_TIMEOUT))?;
        let mut frame = Vec::new();
        wire::encode_request(&mut frame, 0, 0, 1_000, &[]);
        conn.write_all(&frame)?;
        self.probes += 1;
        let mut buf = concord_wire::RecvBuf::new();
        loop {
            if buf.fill(&mut conn)? == 0 {
                return Err(std::io::Error::other("server closed before answering"));
            }
            match wire::decode(buf.data()) {
                Ok(None) => continue,
                Ok(Some((Frame::Response(r), _))) if r.status == Status::Ok && r.id == 0 => {
                    return Ok(())
                }
                other => {
                    return Err(std::io::Error::other(format!(
                        "unexpected first answer: {other:?}"
                    )))
                }
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// A numeric field of `/proc/<pid>/status` (`VmHWM` in kB, `Threads`).
    pub fn proc_status(&self, key: &str) -> Option<u64> {
        proc_status_field(&format!("/proc/{}/status", self.pid()), key)
    }

    /// Sends SIGTERM, waits for the graceful drain, and returns what the
    /// server printed.
    pub fn stop(mut self) -> std::io::Result<String> {
        self.terminate()?;
        let mut text = String::new();
        std::fs::File::open(&self.log)?.read_to_string(&mut text)?;
        Ok(text)
    }

    fn terminate(&mut self) -> std::io::Result<()> {
        let Some(mut child) = self.child.take() else {
            return Ok(());
        };
        signal(&child, SIGTERM);
        let t0 = Instant::now();
        loop {
            if let Some(status) = child.try_wait()? {
                // A server stopped right after its first answer can get
                // the signal before it installs its handler and die of
                // it; that is a stop too.
                return if status.success() || status.signal() == Some(SIGTERM) {
                    Ok(())
                } else {
                    Err(std::io::Error::other(format!(
                        "concord-serve exited with {status}"
                    )))
                };
            }
            if t0.elapsed() > STOP_TIMEOUT {
                signal(&child, SIGKILL);
                child.wait()?;
                return Err(std::io::Error::other(
                    "concord-serve did not stop on SIGTERM",
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            signal(&child, SIGKILL);
            let _ = child.wait();
        }
    }
}

fn signal(child: &Child, sig: i32) {
    let Ok(pid) = i32::try_from(child.id()) else {
        return;
    };
    // SAFETY: kill(2) takes plain integers and touches no memory of
    // ours; `pid` is our own child, not yet reaped, so it cannot name
    // another process.
    unsafe {
        kill(pid, sig);
    }
}

/// The first number after `key:` in a `/proc/*/status` file.
fn proc_status_field(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.split(':').next() == Some(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Percentile from a Prometheus histogram's cumulative buckets: the
/// upper bound of the first bucket holding the `p`-th observation.
pub fn bucket_percentile(m: &BTreeMap<String, f64>, family: &str, p: f64) -> Option<f64> {
    let prefix = format!("{family}_bucket{{");
    let mut buckets: Vec<(f64, f64)> = m
        .iter()
        .filter(|(k, _)| k.starts_with(&prefix))
        .filter_map(|(k, v)| {
            let le = k.split("le=\"").nth(1)?.split('"').next()?;
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((bound, *v))
        })
        .collect();
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = buckets.last()?.1;
    if total == 0.0 {
        return None;
    }
    let want = (p / 100.0 * total).ceil();
    buckets
        .iter()
        .find(|(_, cum)| *cum >= want)
        .map(|(le, _)| *le)
}
