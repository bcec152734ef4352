//! The repository benchmark: open-loop TCP latency and capacity of
//! `concord-serve` on three traffic mixes, simulator throughput timed
//! between the live phases, and a traced run that splits each request's
//! time into layers.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --serve PATH/TO/concord-serve --run-dir DIR
//! ```
//!
//! `perfbench/run.py` builds both binaries and supplies the last two
//! flags. The last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`; the lines before
//! it print every phase, the host stamp and every metric by name. The
//! exit code is 1 when a correctness check fails and 3 when a metric of
//! `BENCHMARK.json` could not be reported because its phases were
//! invalid (their generator ran late, or a percentile lacks samples); a
//! run that cannot be carried out panics without printing a result.
//! See `perfbench/README.md` for the workloads and metrics.

mod layers;
mod loadgen;
mod probe;
mod scrape;
mod server;
mod sim_golden;
mod spans;
mod stats;

use concord_obs::json::Json;
use concord_wire::frame::Status;
use concord_workloads::{mix, Mix};
use loadgen::{Ledger, Options, Outcome, Plan};
use server::{ServeCmd, Server};
use spans::{Span, SpanLog, NO_REQUEST};
use stats::{median, percentile_of};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::{Duration, Instant};

/// Excluded from every phase's timed window.
const WARMUP: Duration = Duration::from_millis(300);
/// Spinning threads of the served layout: one dispatcher and one worker.
const SPINNING_THREADS: usize = 2;
/// Threads of the layout that are not spinning: the event loop, plus
/// the benchmark's sender and reader.
const OTHER_THREADS: usize = 3;
/// Interval of the traced phase's admin scrapes.
const SCRAPE_EVERY: Duration = Duration::from_millis(500);
/// Servers started and stopped only to time their start-up.
const SETUP_SPAWNS: usize = 5;
/// Most runs of one fixed-rate phase while its generator runs late.
const ATTEMPTS: u32 = 2;
/// Fresh servers per fixed-rate point in an untraced run, alternating
/// `low` and `high`, so that both rates sample the whole run while the
/// host's speed drifts; a point reports the median of their p50s.
const REPEATS: u64 = 4;

/// A workload served by `concord-serve`.
struct Live {
    name: &'static str,
    app: &'static str,
    mix: fn() -> Mix,
    low_rps: f64,
    high_rps: f64,
    /// Capacity grid: first, last, step (req/s). `None`: no capacity
    /// search, and the fixed-rate phases get its time.
    grid: Option<(f64, f64, f64)>,
    p99_limit_us: f64,
}

impl Live {
    /// A phase whose generator ran later than this at p99 is invalid.
    fn lag_bound_us(&self) -> f64 {
        self.p99_limit_us / 2.0
    }
}

const LIVE: [Live; 3] = [
    Live {
        name: "bimodal-spin",
        app: "spin",
        mix: mix::bimodal_50_1_50_100,
        low_rps: 4_000.0,
        high_rps: 10_000.0,
        grid: Some((1_000.0, 20_000.0, 1_000.0)),
        p99_limit_us: 20_000.0,
    },
    Live {
        name: "fixed1-spin",
        app: "spin",
        mix: mix::fixed_1us,
        low_rps: 10_000.0,
        high_rps: 20_000.0,
        // Its capacity moved 100 k–160 k between runs of ~2 s probes on a
        // 2-vCPU host (see README), beyond any bound a run can hold.
        grid: None,
        p99_limit_us: 20_000.0,
    },
    Live {
        name: "zippydb-kv",
        app: "kv",
        mix: mix::zippydb,
        low_rps: 1_000.0,
        high_rps: 2_500.0,
        grid: Some((1_000.0, 14_000.0, 500.0)),
        p99_limit_us: 50_000.0,
    },
];

/// The simulated system (`sim-bimodal`): Bimodal(50:1, 50:100) at this
/// load of the 14-worker Concord configuration.
const SIM_LOAD: f64 = 0.8;
/// Requests per timed simulator run.
const SIM_REQUESTS: u64 = 60_000;

/// The end-to-end metrics of `BENCHMARK.json`: every untraced run of a
/// workload with a capacity grid reports all of them.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "capacity_rps",
    "p50_us.low",
    "p50_us.high",
    "ok_ratio",
    "server_rss_mb",
    "sim_req_per_s",
];

/// The per-layer metrics of `BENCHMARK.json`: every traced run reports
/// all of them.
const PER_LAYER: [&str; 40] = [
    "p99_us.low",
    "p99_us.high",
    "short_p99_us.high",
    "loadgen.lag_p50_us",
    "loadgen.lag_p99_us",
    "loadgen.sent",
    "wire.encode_req_ns",
    "wire.decode_resp_ns",
    "wire.req_bytes",
    "wire.resp_bytes",
    "server.residual_p50_us",
    "server.residual_p99_us",
    "server.protocol_errors",
    "server.orphaned",
    "server.retries_dropped",
    "admission.offered",
    "admission.admitted",
    "admission.shed",
    "admission.depth_max",
    "dispatcher.queue_p50_us",
    "dispatcher.queue_p99_us",
    "core.central_op_ns",
    "worker.busy_over_nominal_p50",
    "worker.busy_over_nominal_p99",
    "worker.preemptions_per_req",
    "worker.preemptions_per_signal",
    "worker.preempt_latency_p50_us",
    "worker.preempt_latency_p99_us",
    "kv.get_busy_p50_us",
    "kv.put_busy_p50_us",
    "kv.delete_busy_p50_us",
    "kv.scan_busy_p50_us",
    "obs.scrape_ms",
    "trace.overhead_p50_us",
    "trace.records",
    "trace.dropped",
    "sim.wall_s",
    "sim.preemptions_per_req",
    "sim.dispatcher_util",
    "sim.central_op_ns",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve: PathBuf,
    run_dir: PathBuf,
    golden_seeds: Option<u64>,
    scrape: Option<String>,
    scrape_every_ms: u64,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
         --serve PATH --run-dir DIR\n       \
         perfbench --golden-seeds N   (print the sim_golden table)\n       \
         perfbench --scrape ADMIN --scrape-every-ms MS --seconds S   (scraper child)"
    );
    exit(2);
}

fn bad<T>(flag: &str, val: &str) -> T {
    usage(&format!("invalid {flag} '{val}'"))
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        serve: PathBuf::new(),
        run_dir: PathBuf::from("."),
        golden_seeds: None,
        scrape: None,
        scrape_every_ms: 100,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().unwrap_or_else(|_| bad(flag, val)),
            "--seconds" => a.seconds = val.parse().unwrap_or_else(|_| bad(flag, val)),
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(flag, val),
                }
            }
            "--serve" => a.serve = PathBuf::from(val),
            "--run-dir" => a.run_dir = PathBuf::from(val),
            "--scrape" => a.scrape = Some(val.clone()),
            "--scrape-every-ms" => {
                a.scrape_every_ms = val.parse().unwrap_or_else(|_| bad(flag, val))
            }
            "--golden-seeds" => {
                a.golden_seeds = Some(val.parse().unwrap_or_else(|_| bad(flag, val)))
            }
            _ => usage(&format!("unknown argument '{flag}'")),
        }
    }
    if a.seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    a
}

/// Metrics, correctness failures and invalid phases of one run.
#[derive(Default)]
struct Report {
    metrics: BTreeMap<String, (f64, &'static str)>,
    failures: Vec<String>,
    invalid: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Records `value` if it is a finite number; otherwise marks `name` invalid.
    fn put_valid(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        match value {
            Some(v) if v.is_finite() => self.put(name, v, unit),
            Some(_) => self
                .invalid
                .push(format!("{name}: the percentile is a miss (+inf)")),
            None => self
                .invalid
                .push(format!("{name}: fewer than 10 samples beyond it")),
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Prints the result and exits; exit code 3 when a metric named in
    /// `required` is missing.
    fn finish(self, required: &[&str]) -> ! {
        for (name, (v, unit)) in &self.metrics {
            println!("metric {name} {v} {unit}");
        }
        for f in &self.failures {
            eprintln!("perfbench: CHECK FAILED: {f}");
            println!("check FAILED {f}");
        }
        for i in &self.invalid {
            eprintln!("perfbench: INVALID: {i}");
            println!("invalid {i}");
        }
        let metrics: Vec<(&str, Json)> = self
            .metrics
            .iter()
            .map(|(k, (v, unit))| {
                (
                    k.as_str(),
                    Json::obj(vec![
                        ("value", Json::Num(*v)),
                        ("unit", Json::Str((*unit).into())),
                    ]),
                )
            })
            .collect();
        let correct = self.failures.is_empty();
        let complete = required.iter().all(|m| self.metrics.contains_key(*m));
        let doc = Json::obj(vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::U64(self.attempted.max(1))),
            ("failed", Json::U64(self.failed)),
            ("metrics", Json::obj(metrics)),
        ]);
        println!("{}", doc.render());
        exit(if !correct {
            1
        } else if !complete {
            3
        } else {
            0
        });
    }
}

/// One phase on a fresh server: its plan, what the client saw, and the
/// server's state when the phase ended.
struct Phase {
    label: String,
    rate: f64,
    plan: Plan,
    out: Outcome,
    /// Index of the first request due after the warm-up.
    first: usize,
    window_s: f64,
    setup_s: f64,
    vm_hwm_kb: u64,
    threads: u64,
    metrics: BTreeMap<String, f64>,
    statz: Option<Json>,
    log: String,
}

impl Phase {
    fn window(&self) -> std::ops::Range<usize> {
        self.first..self.plan.len()
    }

    /// Due-time latencies of the timed window, in due order.
    fn latencies(&self, class: Option<u16>) -> Vec<u64> {
        self.window()
            .filter(|&i| class.is_none_or(|c| self.plan.class[i] == c))
            .map(|i| self.out.latency_ns(&self.plan, i))
            .collect()
    }

    fn latency_us(&self, p: f64, class: Option<u16>) -> Option<f64> {
        percentile_of(self.latencies(class), p).map(|ns| ns / 1e3)
    }

    fn lag_us(&self, p: f64) -> Option<f64> {
        let lags: Vec<u64> = self
            .window()
            .filter_map(|i| self.out.lag_ns(&self.plan, i))
            .collect();
        percentile_of(lags, p).map(|ns| ns / 1e3)
    }

    /// OK responses of the timed window, per second of it.
    fn goodput(&self) -> f64 {
        self.out.ledger(self.window()).ok as f64 / self.window_s
    }

    /// Per-OK-response values `f(i)` over the timed window.
    fn per_ok(&self, mut f: impl FnMut(usize) -> u64) -> Vec<u64> {
        self.window()
            .filter(|&i| self.out.status[i] == Some(Status::Ok))
            .map(&mut f)
            .collect()
    }

    fn rtt_ns(&self, i: usize) -> u64 {
        self.out.recv_ns[i].saturating_sub(self.out.sent_ns[i])
    }

    fn counter(&self, family: &str) -> f64 {
        concord_obs::expo::family_sum(&self.metrics, family)
    }

    fn summary(&self, lag_bound_us: f64) -> String {
        let l = self.out.ledger(self.window());
        let fmt = |v: Option<f64>| v.map_or("n/a".into(), |v| format!("{v:.1}"));
        let lag99 = self.lag_us(99.0);
        format!(
            "phase {} rate={} sent={} ok={} retry={} failed={} unanswered={} p50_us={} \
             p99_us={} lag_p50_us={} lag_p99_us={} lag_bound_us={} setup_ms={:.2} rss_mb={:.1}",
            self.label,
            self.rate,
            l.sent,
            l.ok,
            l.retry,
            l.failed,
            l.unanswered,
            fmt(self.latency_us(50.0, None)),
            fmt(self.latency_us(99.0, None)),
            fmt(self.lag_us(50.0)),
            fmt(lag99),
            lag_bound_us,
            self.setup_s * 1e3,
            self.vm_hwm_kb as f64 / 1024.0,
        )
    }
}

/// What a phase runs and how.
struct PhaseSpec {
    label: String,
    rate: f64,
    seed: u64,
    measure: Duration,
    /// Wait for `/statz` to settle and keep it (fixed-rate phases).
    ledger_check: bool,
    drain: Duration,
    /// Where the server writes its scheduling trace (traced phases).
    trace: Option<PathBuf>,
}

/// Seed of one phase, derived from the run's seed and the phase's tag.
fn phase_seed(seed: u64, tag: u64) -> u64 {
    seed ^ tag.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

struct Ctx<'a> {
    live: &'a Live,
    cmd: ServeCmd,
    run_dir: PathBuf,
    report: Report,
    setups: Vec<f64>,
}

impl Ctx<'_> {
    fn run_phase(&mut self, spec: PhaseSpec, mut spans: Option<&mut SpanLog>) -> Phase {
        let PhaseSpec {
            label,
            rate,
            seed,
            measure,
            ledger_check,
            drain,
            trace: trace_file,
        } = spec;
        let warmup_ns = WARMUP.as_nanos() as u64;
        let plan = Plan::poisson(
            (self.live.mix)(),
            rate,
            seed,
            warmup_ns + measure.as_nanos() as u64,
        );
        let log_path = self
            .run_dir
            .join(format!("serve-{}-{label}.log", self.live.name));
        let spawn_t0 = spans.as_ref().map(|l| l.now_ns());
        let server = match Server::start(&self.cmd, &log_path, trace_file.as_deref()) {
            Ok(s) => s,
            Err(e) => fail_hard(&format!("{label}: starting concord-serve: {e}")),
        };
        if let (Some(log), Some(t0)) = (spans.as_mut(), spawn_t0) {
            log.close("spawn", NO_REQUEST, t0);
        }
        self.setups.push(server.setup.as_secs_f64());

        let phase_span_from = spans.as_ref().map_or(0, |l| l.spans.len());
        let phase_t0 = spans.as_ref().map(|l| l.now_ns());
        // Traced phases scrape before, during (from a child process) and after.
        let mut scrapes = Vec::new();
        let mut scraper = None;
        if let Some(log) = spans.as_ref() {
            scrapes.push(scrape::once(&server.admin, true, log.epoch));
            scrapes.push(scrape::once(&server.admin, false, log.epoch));
            let secs = (warmup_ns + measure.as_nanos() as u64) as f64 / 1e9;
            scraper = Some(
                scrape::Scraper::spawn(&server.admin, SCRAPE_EVERY, secs, log.now_ns())
                    .unwrap_or_else(|e| fail_hard(&format!("{label}: scraper: {e}"))),
            );
        }
        let opts = Options {
            drain,
            stall: None,
            spans: spans.as_deref_mut(),
        };
        let out = loadgen::drive(&server.addr, &plan, opts)
            .unwrap_or_else(|e| fail_hard(&format!("{label}: load generator: {e}")));
        if let (Some(log), Some(scraper)) = (spans.as_ref(), scraper) {
            scrapes.extend(
                scraper
                    .finish()
                    .unwrap_or_else(|e| fail_hard(&format!("{label}: scraper: {e}"))),
            );
            scrapes.push(scrape::once(&server.admin, true, log.epoch));
            scrapes.push(scrape::once(&server.admin, false, log.epoch));
        }

        let statz = if ledger_check {
            Some(settled_statz(&server))
        } else {
            None
        };
        let mut metrics = scrape::metrics(&server.admin)
            .unwrap_or_else(|e| fail_hard(&format!("{label}: /metrics: {e}")));
        let vm_hwm_kb = server.proc_status("VmHWM").unwrap_or(0);
        let threads = server.proc_status("Threads").unwrap_or(0);
        let probes = server.probes;
        let setup_s = server.setup.as_secs_f64();
        let log = server
            .stop()
            .unwrap_or_else(|e| fail_hard(&format!("{label}: stopping concord-serve: {e}")));
        if let (Some(log), Some(t0)) = (spans.as_mut(), phase_t0) {
            for s in &scrapes {
                log.push(Span {
                    name: "scrape",
                    req: NO_REQUEST,
                    parent: None,
                    start_ns: s.start_ns,
                    end_ns: s.end_ns,
                });
            }
            let root = log.close("phase", NO_REQUEST, t0);
            log.reparent_from(phase_span_from, root);
        }
        let first = plan.due_ns.partition_point(|&d| d < warmup_ns);
        if !scrapes.is_empty() {
            let ms: Vec<f64> = scrapes
                .iter()
                .filter(|s| s.metrics)
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
                .collect();
            let depth_max = scrapes.iter().filter_map(|s| s.depth).fold(0.0, f64::max);
            metrics.insert("perfbench_scrape_ms".into(), median(&ms));
            metrics.insert("perfbench_admission_depth_max".into(), depth_max);
        }
        let phase = Phase {
            label,
            rate,
            plan,
            out,
            first,
            window_s: measure.as_secs_f64(),
            setup_s,
            vm_hwm_kb,
            threads,
            metrics,
            statz,
            log,
        };
        self.gate(&phase, probes);
        println!("{}", phase.summary(self.live.lag_bound_us()));
        phase
    }

    /// Runs a fixed-rate phase until its generator keeps to its lag
    /// bound, at most [`ATTEMPTS`] times. Every attempt is printed; an
    /// invalid one is never reported as a number. A traced phase's
    /// `spans` keep only the attempt returned.
    fn run_valid(
        &mut self,
        spec: impl Fn() -> PhaseSpec,
        mut spans: Option<&mut SpanLog>,
    ) -> Phase {
        let mut attempt = 1;
        loop {
            if let Some(log) = spans.as_deref_mut() {
                *log = SpanLog::new(Instant::now());
            }
            let phase = self.run_phase(spec(), spans.as_deref_mut());
            let lag_ok = phase
                .lag_us(99.0)
                .is_some_and(|l| l <= self.live.lag_bound_us());
            if lag_ok || attempt == ATTEMPTS {
                return phase;
            }
            println!(
                "phase {} attempt {attempt} invalid: generator ran late; repeating",
                phase.label
            );
            attempt += 1;
        }
    }

    /// The correctness gate of one phase.
    fn gate(&mut self, p: &Phase, probes: u64) {
        let r = &mut self.report;
        let label = &p.label;
        let o = &p.out;
        r.check(o.duplicates == 0, || {
            format!("{label}: {} ids answered twice", o.duplicates)
        });
        r.check(o.unknown == 0, || {
            format!("{label}: {} unknown ids answered", o.unknown)
        });
        r.check(o.mismatched == 0, || {
            format!(
                "{label}: {} responses echo another class or service time",
                o.mismatched
            )
        });
        r.check(!o.garbage, || {
            format!("{label}: undecodable bytes from the server")
        });
        let unsent_answered = (0..p.plan.len())
            .filter(|&i| o.sent_ns[i] == loadgen::UNSENT && o.status[i].is_some())
            .count();
        r.check(unsent_answered == 0, || {
            format!("{label}: {unsent_answered} requests answered but never sent")
        });
        let l = p.out.ledger(0..p.plan.len());
        r.check(l.balances(), || {
            format!("{label}: client ledger does not balance: {l:?}")
        });
        let proto = p.counter("concord_protocol_errors_total");
        r.check(proto == 0.0, || {
            format!("{label}: concord_protocol_errors_total = {proto}")
        });
        let over = (0..p.plan.len())
            .filter(|&i| o.status[i] == Some(Status::Ok))
            .filter(|&i| o.queue_ns[i] + o.busy_ns[i] > p.rtt_ns(i))
            .count();
        r.check(over == 0, || {
            format!("{label}: {over} responses with queue_ns + busy_ns > RTT")
        });
        if let Some(statz) = &p.statz {
            let t = |k: &str| {
                statz
                    .get("totals")
                    .and_then(|t| t.get(k))
                    .and_then(Json::as_u64)
            };
            let (ingested, completed, failed, shed) =
                (t("ingested"), t("completed"), t("failed"), t("shed"));
            r.check(
                ingested.is_some() && ingested == completed.zip(failed).map(|(c, f)| c + f),
                || format!("{label}: /statz ingested {ingested:?} != completed {completed:?} + failed {failed:?}"),
            );
            r.check(shed == Some(l.retry), || {
                format!("{label}: client RETRYs {} != /statz shed {shed:?}", l.retry)
            });
            if l.unanswered == 0 {
                let answered = completed.zip(failed).map(|(c, f)| c + f);
                r.check(answered == Some(l.ok + l.failed + probes), || {
                    format!(
                        "{label}: client OK+FAILED {} + {probes} start-up probes != /statz completed+failed {answered:?}",
                        l.ok + l.failed
                    )
                });
            }
        }
    }
}

/// `/statz` once the server's ledger has settled (every ingested
/// request completed or failed), or after a second.
fn settled_statz(server: &Server) -> Json {
    let t0 = Instant::now();
    loop {
        let statz = scrape::get(&server.admin, "/statz")
            .and_then(|t| Json::parse(&t).map_err(std::io::Error::other))
            .unwrap_or_else(|e| fail_hard(&format!("/statz: {e}")));
        let t = |k: &str| {
            statz
                .get("totals")
                .and_then(|t| t.get(k))
                .and_then(Json::as_u64)
        };
        let settled = t("ingested") == t("completed").zip(t("failed")).map(|(c, f)| c + f);
        if settled || t0.elapsed() > Duration::from_secs(1) {
            return statz;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Aborts a run that could not be carried out; no result is printed.
/// A panic (not `exit`) so that unwinding drops, and thereby stops, any
/// server or scraper process still running.
fn fail_hard(msg: &str) -> ! {
    panic!("perfbench: {msg}");
}

/// Facts about the host every result depends on.
fn host_stamp(server_threads: u64) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let cpus = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map_or("unknown".to_string(), |v| v.trim().to_string());
    let load1 = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| {
            s.split_whitespace()
                .next()
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(f64::NAN);
    let commit = std::process::Command::new("git")
        .args(["--git-dir", ".git", "rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown (not a git checkout)".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    let mut fields = vec![
        ("available_parallelism", Json::U64(parallelism as u64)),
        ("cpus_allowed", Json::Str(cpus)),
        ("loadavg_1m", Json::Num(load1)),
    ];
    if server_threads > 0 {
        fields.push(("server_threads", Json::U64(server_threads)));
        fields.push(("spinning_threads", Json::U64(SPINNING_THREADS as u64)));
        fields.push((
            "oversubscribed",
            Json::Bool(SPINNING_THREADS + OTHER_THREADS > parallelism),
        ));
    }
    fields.push(("commit", Json::Str(commit)));
    format!("host {}", Json::obj(fields).render())
}

fn run_live(live: &Live, args: &Args) -> ! {
    let mut cx = Ctx {
        live,
        cmd: ServeCmd {
            bin: args.serve.clone(),
            app: live.app,
        },
        run_dir: args.run_dir.clone(),
        report: Report::default(),
        setups: Vec::new(),
    };
    let secs = args.seconds;
    let fixed = |cx: &mut Ctx, label: &str, rate: f64, tag: u64, share: f64| {
        cx.run_valid(
            || PhaseSpec {
                label: label.to_string(),
                rate,
                seed: phase_seed(args.seed, tag),
                measure: Duration::from_secs_f64(secs * share),
                ledger_check: true,
                drain: Duration::from_secs(2),
                trace: None,
            },
            None,
        )
    };
    if !args.trace {
        // Extra start-ups so `setup_s` is a median of several even when
        // the run starts few servers.
        let log = cx.run_dir.join(format!("serve-{}-setup.log", live.name));
        for _ in 0..SETUP_SPAWNS {
            let server = Server::start(&cx.cmd, &log, None)
                .unwrap_or_else(|e| fail_hard(&format!("starting concord-serve: {e}")));
            cx.setups.push(server.setup.as_secs_f64());
            server
                .stop()
                .unwrap_or_else(|e| fail_hard(&format!("stopping concord-serve: {e}")));
        }
        let share = (if live.grid.is_some() { 0.25 } else { 0.5 }) / REPEATS as f64;
        let (mut lows, mut highs) = (Vec::new(), Vec::new());
        let mut sim = SimTiming::new(args.seed);
        for k in 0..REPEATS {
            // Before every server, so that the simulator runs alone and
            // its runs sample the whole run as the host's speed drifts.
            sim.run(&mut cx.report);
            lows.push(fixed(
                &mut cx,
                &format!("low-{k}"),
                live.low_rps,
                2 * k,
                share,
            ));
            sim.run(&mut cx.report);
            highs.push(fixed(
                &mut cx,
                &format!("high-{k}"),
                live.high_rps,
                2 * k + 1,
                share,
            ));
        }
        if let Some(grid) = live.grid {
            let capacity = capacity_search(&mut cx, args, grid, 0.5);
            cx.report.put("capacity_rps", capacity, "req/s");
        }
        println!("{}", host_stamp(highs[0].threads));
        let r = &mut cx.report;
        sim.finish(r);
        r.put("setup_s", median(&cx.setups), "s");
        put_point_p50(r, live, "p50_us.low", &lows);
        put_point_p50(r, live, "p50_us.high", &highs);
        let mut l = Ledger::default();
        for p in lows.iter().chain(&highs) {
            l.add(&p.out.ledger(p.window()));
        }
        r.put("ok_ratio", l.ok as f64 / l.sent.max(1) as f64, "ratio");
        let rss: Vec<f64> = lows
            .iter()
            .chain(&highs)
            .map(|p| p.vm_hwm_kb as f64)
            .collect();
        r.put("server_rss_mb", median(&rss) / 1024.0, "MB");
        r.attempted += l.sent;
        r.failed += l.misses();
        let required: Vec<&str> = END_TO_END
            .into_iter()
            .filter(|m| live.grid.is_some() || *m != "capacity_rps")
            .collect();
        cx.report.finish(&required);
    }

    // Traced run: the untraced fixed-rate phases give the p99s and the
    // tracing-overhead baseline; the traced `high` phase gives the layers.
    let low = fixed(&mut cx, "low", live.low_rps, 0, 0.2);
    let high = fixed(&mut cx, "high", live.high_rps, 1, 0.2);
    let mut spans = SpanLog::new(Instant::now());
    let trace_file = args.run_dir.join(format!("trace-{}.bin", live.name));
    let traced = cx.run_valid(
        || PhaseSpec {
            label: "high-traced".into(),
            rate: live.high_rps,
            seed: phase_seed(args.seed, 1),
            measure: Duration::from_secs_f64(secs * 0.4),
            ledger_check: true,
            drain: Duration::from_secs(2),
            trace: Some(trace_file.clone()),
        },
        Some(&mut spans),
    );
    let _ = std::fs::remove_file(&trace_file);
    println!("{}", host_stamp(traced.threads));
    // Metrics of a phase whose generator stayed late are left out.
    let r = &mut cx.report;
    let high_valid = lag_gate(r, live, &high);
    if lag_gate(r, live, &low) {
        r.put_valid("p99_us.low", low.latency_us(99.0, None), "us");
    }
    if high_valid {
        r.put_valid("p99_us.high", high.latency_us(99.0, None), "us");
        r.put_valid("short_p99_us.high", high.latency_us(99.0, Some(0)), "us");
    }
    if lag_gate(r, live, &traced) {
        layer_metrics(r, &traced, high_valid.then_some(&high));
    }
    // Layers timed in-process, the same on every workload.
    let t0 = spans.now_ns();
    let queues = layers::queue_cost(args.seed);
    spans.close("central_queues", NO_REQUEST, t0);
    r.check(queues.same_order, || {
        "concord_core and concord_sim central queues dispatched in different orders".into()
    });
    r.put("core.central_op_ns", queues.core_op_ns, "ns");
    r.put("sim.central_op_ns", queues.sim_op_ns, "ns");
    let t0 = spans.now_ns();
    let kv = layers::kv_cost(args.seed);
    spans.close("kv_replay", NO_REQUEST, t0);
    if let Err(e) = kv.correct {
        r.check(false, || e);
    }
    for (name, p50) in ["get", "put", "delete", "scan"].iter().zip(kv.p50_us) {
        r.put_valid(&format!("kv.{name}_busy_p50_us"), p50, "us");
    }
    let t0 = spans.now_ns();
    let run = layers::sim_run(
        mix::bimodal_50_1_50_100(),
        SIM_LOAD,
        SIM_REQUESTS,
        args.seed,
    );
    spans.close("simulate", NO_REQUEST, t0);
    let res = &run.result;
    r.put("sim.wall_s", run.wall_s, "s");
    r.put(
        "sim.preemptions_per_req",
        res.preemptions as f64 / res.completed.max(1) as f64,
        "ratio",
    );
    r.put("sim.dispatcher_util", res.dispatcher_util(), "ratio");
    for (name, self_ns) in spans.self_time_ns() {
        println!("span {name} self_ms={:.3}", self_ns as f64 / 1e6);
    }
    let spans_file = args
        .run_dir
        .join(format!("spans-{}-{}.jsonl", live.name, args.seed));
    if let Err(e) = spans.write(&spans_file) {
        eprintln!("perfbench: writing {}: {e}", spans_file.display());
    }
    let mut l = Ledger::default();
    for p in [&low, &high, &traced] {
        l.add(&p.out.ledger(p.window()));
    }
    r.attempted = l.sent;
    r.failed = l.misses();
    cx.report.finish(&PER_LAYER);
}

/// Reports `name` as the median p50 of the `phases` whose generator
/// kept to its lag bound; leaves it out (invalid) when fewer than half
/// of them did, or when one of their p50s is missing.
fn put_point_p50(r: &mut Report, live: &Live, name: &str, phases: &[Phase]) {
    let valid: Vec<&Phase> = phases.iter().filter(|p| lag_gate(r, live, p)).collect();
    if valid.len() * 2 < phases.len() {
        r.invalid.push(format!(
            "{name}: only {} of {} phases valid",
            valid.len(),
            phases.len()
        ));
        return;
    }
    let p50s: Vec<Option<f64>> = valid.iter().map(|p| p.latency_us(50.0, None)).collect();
    let value = match p50s.iter().find(|v| !v.is_some_and(f64::is_finite)) {
        Some(bad) => *bad,
        None => Some(median(&p50s.into_iter().flatten().collect::<Vec<_>>())),
    };
    r.put_valid(name, value, "us");
}

/// True when `p`'s generator kept to the lag bound; otherwise marks the
/// phase invalid.
fn lag_gate(r: &mut Report, live: &Live, p: &Phase) -> bool {
    match p.lag_us(99.0) {
        Some(lag) if lag <= live.lag_bound_us() => true,
        lag => {
            r.invalid.push(format!(
                "phase {}: generator lag p99 {lag:?} us exceeds {} us",
                p.label,
                live.lag_bound_us()
            ));
            false
        }
    }
}

/// Highest grid rate that meets the p99 limit with ≥ 99 % answered OK,
/// no growing backlog and an on-time generator; reported as the OK
/// responses per second measured at that rate. A failed probe runs once
/// more on a fresh server and the rate passes if either run does, so a
/// single stall of the host does not lower the capacity.
fn capacity_search(cx: &mut Ctx, args: &Args, grid: (f64, f64, f64), share: f64) -> f64 {
    let live = cx.live;
    let rates = stats::grid(grid.0, grid.1, grid.2);
    // Budget for the search's probes plus two repeats.
    let probes = (rates.len() + 1).next_power_of_two().trailing_zeros() as f64 + 2.0;
    let measure = Duration::from_secs_f64(args.seconds * share / probes);
    let drain = Duration::from_secs_f64((live.p99_limit_us * 4e-6).max(0.2));
    let backlog_floor = (live.p99_limit_us * 1e3 / 20.0) as u64;
    let mut goodput = vec![0.0; rates.len()];
    let best = stats::highest_passing(rates.len(), |i| {
        (0..2).any(|attempt| {
            let p = cx.run_phase(
                PhaseSpec {
                    label: format!("probe-{}", rates[i]),
                    rate: rates[i],
                    seed: phase_seed(args.seed, 100 + i as u64),
                    measure,
                    ledger_check: false,
                    drain,
                    trace: None,
                },
                None,
            );
            let lat = p.latencies(None);
            let l = p.out.ledger(p.window());
            let p99 = percentile_of(lat.clone(), 99.0).map(|ns| ns / 1e3);
            let lag = p.lag_us(99.0);
            let pass = p99.is_some_and(|v| v <= live.p99_limit_us)
                && l.ok as f64 >= 0.99 * l.sent as f64
                && !stats::growing_backlog(&lat, backlog_floor)
                && lag.is_some_and(|v| v <= live.lag_bound_us());
            let (q1, q4) = stats::quarter_medians(&lat);
            println!(
                "probe {} attempt {} {} (p99_us={p99:?} ok={}/{} quarter_p50_us={}/{} \
                 lag_p99_us={lag:?})",
                rates[i],
                attempt + 1,
                if pass { "pass" } else { "fail" },
                l.ok,
                l.sent,
                q1 / 1000,
                q4 / 1000
            );
            goodput[i] = p.goodput();
            pass
        })
    });
    best.map_or(0.0, |i| goodput[i])
}

/// Per-layer metrics of the traced `high` phase (`untraced` is the same
/// phase without tracing, for the overhead, if it is valid).
fn layer_metrics(r: &mut Report, p: &Phase, untraced: Option<&Phase>) {
    let o = &p.out;
    let us = |v: Option<f64>| v.map(|ns| ns / 1e3);
    let lags: Vec<u64> = p.window().filter_map(|i| o.lag_ns(&p.plan, i)).collect();
    r.put_valid(
        "loadgen.lag_p50_us",
        us(percentile_of(lags.clone(), 50.0)),
        "us",
    );
    r.put_valid("loadgen.lag_p99_us", us(percentile_of(lags, 99.0)), "us");
    r.put(
        "loadgen.sent",
        p.out.ledger(p.window()).sent as f64,
        "count",
    );

    let wire = layers::wire_cost(&p.plan);
    r.put("wire.encode_req_ns", wire.encode_req_ns, "ns");
    r.put("wire.decode_resp_ns", wire.decode_resp_ns, "ns");
    r.put("wire.req_bytes", wire.req_bytes, "bytes");
    r.put("wire.resp_bytes", wire.resp_bytes, "bytes");

    let residual = p.per_ok(|i| p.rtt_ns(i).saturating_sub(o.queue_ns[i] + o.busy_ns[i]));
    r.put_valid(
        "server.residual_p50_us",
        us(percentile_of(residual.clone(), 50.0)),
        "us",
    );
    r.put_valid(
        "server.residual_p99_us",
        us(percentile_of(residual, 99.0)),
        "us",
    );
    r.put(
        "server.protocol_errors",
        p.counter("concord_protocol_errors_total"),
        "count",
    );
    r.put(
        "server.orphaned",
        p.counter("concord_orphaned_responses_total"),
        "count",
    );
    r.put(
        "server.retries_dropped",
        p.counter("concord_retries_dropped_total"),
        "count",
    );

    let admitted = p.counter("concord_admission_admitted_total");
    let shed = p.counter("concord_admission_shed_total");
    r.put("admission.offered", admitted + shed, "count");
    r.put("admission.admitted", admitted, "count");
    r.put("admission.shed", shed, "count");
    r.put(
        "admission.depth_max",
        p.metrics["perfbench_admission_depth_max"],
        "count",
    );

    let queue = p.per_ok(|i| o.queue_ns[i]);
    r.put_valid(
        "dispatcher.queue_p50_us",
        us(percentile_of(queue.clone(), 50.0)),
        "us",
    );
    r.put_valid(
        "dispatcher.queue_p99_us",
        us(percentile_of(queue, 99.0)),
        "us",
    );
    // busy / nominal in thousandths, so the sorted-u64 percentile applies.
    let ratio = p.per_ok(|i| o.busy_ns[i] * 1000 / p.plan.service_ns[i].max(1));
    let milli = |v: Option<f64>| v.map(|x| x / 1000.0);
    r.put_valid(
        "worker.busy_over_nominal_p50",
        milli(percentile_of(ratio.clone(), 50.0)),
        "ratio",
    );
    r.put_valid(
        "worker.busy_over_nominal_p99",
        milli(percentile_of(ratio, 99.0)),
        "ratio",
    );
    let preemptions = p.counter("concord_preemptions_total");
    let signals = p.counter("concord_signals_sent_total");
    let completed = p.counter("concord_completed_total");
    r.put(
        "worker.preemptions_per_req",
        preemptions / completed.max(1.0),
        "ratio",
    );
    r.put(
        "worker.preemptions_per_signal",
        preemptions / signals.max(1.0),
        "ratio",
    );
    // Absent, not 0, when the server timed no preemption.
    for (name, q) in [
        ("worker.preempt_latency_p50_us", 50.0),
        ("worker.preempt_latency_p99_us", 99.0),
    ] {
        match server::bucket_percentile(&p.metrics, "concord_preemption_latency_ns", q) {
            Some(ns) if ns.is_finite() => r.put(name, ns / 1e3, "us"),
            _ => println!("metric {name} absent: no finite preemption latency recorded"),
        }
    }

    r.put("obs.scrape_ms", p.metrics["perfbench_scrape_ms"], "ms");
    match (
        p.latency_us(50.0, None),
        untraced.and_then(|u| u.latency_us(50.0, None)),
    ) {
        (Some(t), Some(u)) if t.is_finite() && u.is_finite() => {
            r.put("trace.overhead_p50_us", t - u, "us")
        }
        _ => r
            .invalid
            .push("trace.overhead_p50_us: a p50 is missing".into()),
    }
    let records = p
        .log
        .lines()
        .find_map(|l| l.strip_prefix("trace: "))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|n| n.parse::<f64>().ok());
    r.check(records.is_some(), || {
        format!("{}: the server wrote no trace", p.label)
    });
    r.put("trace.records", records.unwrap_or(0.0), "count");
    let dropped = p
        .log
        .lines()
        .find_map(|l| l.strip_prefix("trace_dropped "))
        .and_then(|n| n.trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    r.put("trace.dropped", dropped, "count");
}

/// Timed simulator runs of the run's seed (the `sim-bimodal` system),
/// made between the live phases of an untraced run.
struct SimTiming {
    seed: u64,
    rates: Vec<f64>,
    first: Option<sim_golden::Outcome>,
}

impl SimTiming {
    fn new(seed: u64) -> Self {
        SimTiming {
            seed,
            rates: Vec::new(),
            first: None,
        }
    }

    /// One timed run between two host-speed probes; its outcome must
    /// equal the first run's.
    fn run(&mut self, r: &mut Report) {
        let seed = self.seed;
        let before = probe::cpu_ms();
        let run = layers::sim_run(mix::bimodal_50_1_50_100(), SIM_LOAD, SIM_REQUESTS, seed);
        let probe_ms = (before + probe::cpu_ms()) / 2.0;
        let res = &run.result;
        let rate = res.completed as f64 / run.wall_s;
        // The rate at the reference host speed: a host running the
        // probe slower ran the simulator slower by about as much.
        self.rates.push(rate * probe_ms / probe::REFERENCE_MS);
        r.attempted += res.arrivals;
        r.failed += res.censored + res.incomplete;
        let got = sim_golden::Outcome::of(res);
        println!(
            "sim seed={seed} requests={SIM_REQUESTS} wall_s={:.3} req_per_s={rate:.0} \
             probe_ms={probe_ms:.1} completed={} censored={} preemptions={} p999_slowdown={}",
            run.wall_s, got.completed, got.censored, got.preemptions, got.p999_slowdown
        );
        match &self.first {
            None => self.first = Some(got),
            Some(f) => r.check(*f == got, || {
                format!("sim runs of seed {seed} differ: {f:?} vs {got:?}")
            }),
        }
    }

    /// Checks the recorded outcome and reports `sim_req_per_s`, the
    /// median of the runs at the reference host speed.
    fn finish(self, r: &mut Report) {
        let got = self.first.expect("at least one simulator run");
        r.check(got.censored == 0, || {
            format!("sim censored {} requests", got.censored)
        });
        // Every seed is checked against a recorded outcome: its own, or
        // that of a recorded seed run once more, untimed.
        let (check_seed, want) = sim_golden::recorded_for(self.seed);
        let got = if check_seed == self.seed {
            got
        } else {
            let run = layers::sim_run(
                mix::bimodal_50_1_50_100(),
                SIM_LOAD,
                SIM_REQUESTS,
                check_seed,
            );
            sim_golden::Outcome::of(&run.result)
        };
        r.check(want == got, || {
            format!("sim seed {check_seed}: got {got:?}, recorded {want:?}")
        });
        println!("sim recorded outcome of seed {check_seed}: checked");
        r.put("sim_req_per_s", median(&self.rates), "req/s");
    }
}

/// Prints the recorded-outcome table for seeds `0..n` (see `sim_golden`).
fn print_golden(n: u64) -> ! {
    for seed in 0..n {
        let run = layers::sim_run(mix::bimodal_50_1_50_100(), SIM_LOAD, SIM_REQUESTS, seed);
        let o = sim_golden::Outcome::of(&run.result);
        println!(
            "    ({seed}, {}, {}, {}, {:#018x}),",
            o.completed,
            o.censored,
            o.preemptions,
            o.p999_slowdown.to_bits()
        );
    }
    exit(0);
}

fn main() {
    let args = parse_args();
    if let Some(admin) = &args.scrape {
        scrape::child_main(
            admin,
            Duration::from_millis(args.scrape_every_ms),
            args.seconds,
        );
    }
    if let Some(n) = args.golden_seeds {
        print_golden(n);
    }
    if !args.run_dir.is_dir() {
        usage(&format!(
            "--run-dir {} is not a directory",
            args.run_dir.display()
        ));
    }
    let Some(live) = LIVE.iter().find(|l| l.name == args.workload) else {
        usage(&format!(
            "unknown workload '{}' (bimodal-spin, fixed1-spin, zippydb-kv)",
            args.workload
        ));
    };
    if !Path::new(&args.serve).is_file() {
        usage(&format!("--serve {} is not a file", args.serve.display()));
    }
    run_live(live, &args);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest_names(list: &str) -> Vec<String> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside perfbench/");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(list)
            .and_then(Json::as_arr)
            .expect("a metric list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("a name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn reported_metrics_are_those_of_the_manifest() {
        let mut want = manifest_names("end_to_end");
        let mut got: Vec<String> = END_TO_END.iter().map(|s| s.to_string()).collect();
        want.sort();
        got.sort();
        assert_eq!(got, want);
        let mut want = manifest_names("per_layer");
        let mut got: Vec<String> = PER_LAYER.iter().map(|s| s.to_string()).collect();
        want.sort();
        got.sort();
        assert_eq!(got, want);
    }
}
