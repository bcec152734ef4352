//! Admin-plane scrapes of the traced phase. The ones during the load
//! run in a child process (`perfbench --scrape ADMIN ...`), so a slow
//! scrape never holds up the load generator's two threads.

use std::collections::BTreeMap;
use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const ADMIN_TIMEOUT: Duration = Duration::from_secs(5);

/// `GET path` on the admin plane at `admin`; the body as text.
pub fn get(admin: &str, path: &str) -> std::io::Result<String> {
    let (status, body) = concord_obs::client::fetch(admin, "GET", path, ADMIN_TIMEOUT)?;
    if status != 200 {
        return Err(std::io::Error::other(format!("GET {path}: HTTP {status}")));
    }
    String::from_utf8(body).map_err(std::io::Error::other)
}

/// `/metrics` parsed into `series -> value`.
pub fn metrics(admin: &str) -> std::io::Result<BTreeMap<String, f64>> {
    concord_obs::expo::parse_scrape(&get(admin, "/metrics")?).map_err(std::io::Error::other)
}

/// One timed scrape; `/metrics` scrapes also sample the admission depth.
#[derive(Clone, Copy, Debug)]
pub struct Scrape {
    pub metrics: bool,
    pub start_ns: u64,
    pub end_ns: u64,
    pub depth: Option<f64>,
}

/// Scrapes `/metrics` (or `/statz`), timing it on `epoch`'s clock.
pub fn once(admin: &str, metrics_page: bool, epoch: Instant) -> Scrape {
    let start_ns = epoch.elapsed().as_nanos() as u64;
    let depth = if metrics_page {
        metrics(admin)
            .ok()
            .map(|m| concord_obs::expo::family_sum(&m, "concord_admission_depth"))
    } else {
        let _ = get(admin, "/statz");
        None
    };
    Scrape {
        metrics: metrics_page,
        start_ns,
        end_ns: epoch.elapsed().as_nanos() as u64,
        depth,
    }
}

/// The child process: scrapes `/metrics` then `/statz` every `every`
/// for `seconds`, printing one line per scrape.
pub fn child_main(admin: &str, every: Duration, seconds: f64) -> ! {
    let epoch = Instant::now();
    let mut next = Duration::ZERO;
    while epoch.elapsed().as_secs_f64() < seconds {
        for page in [true, false] {
            let s = once(admin, page, epoch);
            let depth = s.depth.map_or("-".to_string(), |d| d.to_string());
            println!(
                "{} {} {} {depth}",
                u8::from(s.metrics),
                s.start_ns,
                s.end_ns
            );
        }
        next += every;
        if let Some(wait) = next.checked_sub(epoch.elapsed()) {
            std::thread::sleep(wait);
        }
    }
    std::process::exit(0);
}

/// A running scraper child; killed and reaped if dropped unfinished.
pub struct Scraper {
    child: Option<Child>,
    /// Parent-clock time the child started at.
    offset_ns: u64,
}

impl Scraper {
    pub fn spawn(
        admin: &str,
        every: Duration,
        seconds: f64,
        offset_ns: u64,
    ) -> std::io::Result<Scraper> {
        let child = Command::new(std::env::current_exe()?)
            .args(["--scrape", admin])
            .args(["--scrape-every-ms", &every.as_millis().to_string()])
            .args(["--seconds", &seconds.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        Ok(Scraper {
            child: Some(child),
            offset_ns,
        })
    }

    /// Waits for the child and returns its scrapes on the parent's clock.
    pub fn finish(mut self) -> std::io::Result<Vec<Scrape>> {
        let child = self.child.as_mut().expect("scraper not yet finished");
        let mut text = String::new();
        if let Some(mut out) = child.stdout.take() {
            out.read_to_string(&mut text)?;
        }
        // Reaped here; on an early return above, `Drop` reaps it.
        let status = child.wait()?;
        self.child = None;
        if !status.success() {
            return Err(std::io::Error::other(format!(
                "scraper exited with {status}"
            )));
        }
        let parse = |line: &str| -> Option<Scrape> {
            let mut f = line.split_whitespace();
            Some(Scrape {
                metrics: f.next()? == "1",
                start_ns: f.next()?.parse::<u64>().ok()? + self.offset_ns,
                end_ns: f.next()?.parse::<u64>().ok()? + self.offset_ns,
                depth: f.next()?.parse().ok(),
            })
        };
        Ok(text.lines().filter_map(parse).collect())
    }
}

impl Drop for Scraper {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
