//! The open-loop load generator: a Poisson schedule from
//! `concord_workloads`, written to one TCP connection by the calling
//! thread while a second thread reads the responses.
//!
//! Latency runs from each request's *due* time, not from when the
//! generator got round to sending it, so a generator stall shows up as
//! latency of every request it delays (no coordinated omission), and
//! the generator's lateness (send time − due time) is kept per request.

use crate::spans::SpanLog;
use crate::stats::MISS;
use concord_wire::frame::{self as wire, Frame, Status};
use concord_workloads::{arrival::Poisson, TraceGenerator, Workload};
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Send time of a request that was never written.
pub const UNSENT: u64 = u64::MAX;

/// The requests of one phase: request `i` has id `i`, is due `due_ns[i]`
/// after the phase starts, and asks for `service_ns[i]` in `class[i]`.
pub struct Plan {
    pub due_ns: Vec<u64>,
    pub class: Vec<u16>,
    pub service_ns: Vec<u64>,
}

impl Plan {
    /// Poisson arrivals at `rate_rps` for `duration_ns`, drawn from `seed`.
    pub fn poisson<W: Workload>(workload: W, rate_rps: f64, seed: u64, duration_ns: u64) -> Plan {
        let mut gen = TraceGenerator::new(Poisson::with_rate(rate_rps), workload, seed);
        let arrivals = gen.take_duration(duration_ns);
        Plan {
            due_ns: arrivals.iter().map(|a| a.time_ns).collect(),
            class: arrivals.iter().map(|a| a.spec.class).collect(),
            service_ns: arrivals.iter().map(|a| a.spec.service_ns).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.due_ns.len()
    }

    /// Appends request `i`'s frame to `out`.
    pub fn encode(&self, i: usize, out: &mut Vec<u8>) {
        wire::encode_request(out, i as u64, self.class[i], self.service_ns[i], &[]);
    }

    /// Every frame back to back, with the offset of each (and of the
    /// end); one `encode` span per request when `spans` is given.
    fn encode_all(&self, mut spans: Option<&mut SpanLog>) -> (Vec<u8>, Vec<usize>) {
        let mut frames = Vec::with_capacity(self.len() * (wire::HEADER_LEN + 20));
        let mut offsets = Vec::with_capacity(self.len() + 1);
        for i in 0..self.len() {
            offsets.push(frames.len());
            let t0 = spans.as_ref().map(|log| log.now_ns());
            self.encode(i, &mut frames);
            if let (Some(log), Some(t0)) = (spans.as_deref_mut(), t0) {
                log.close("encode", i as u64, t0);
            }
        }
        offsets.push(frames.len());
        (frames, offsets)
    }
}

/// What happened to each request of a phase, indexed by id.
pub struct Outcome {
    /// When the generator wrote it, or [`UNSENT`].
    pub sent_ns: Vec<u64>,
    /// When its response was read, or [`MISS`].
    pub recv_ns: Vec<u64>,
    pub status: Vec<Option<Status>>,
    pub queue_ns: Vec<u64>,
    pub busy_ns: Vec<u64>,
    /// Responses for an id that was already answered.
    pub duplicates: u64,
    /// Responses for an id the phase never sent.
    pub unknown: u64,
    /// Responses whose class or service time differ from the request's.
    pub mismatched: u64,
    /// The server sent bytes that do not decode as a response frame.
    pub garbage: bool,
}

/// The client's ledger: `sent == ok + retry + failed + unanswered`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    pub sent: u64,
    pub ok: u64,
    pub retry: u64,
    pub failed: u64,
    pub unanswered: u64,
}

impl Ledger {
    pub fn add(&mut self, o: &Ledger) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.retry += o.retry;
        self.failed += o.failed;
        self.unanswered += o.unanswered;
    }

    pub fn balances(&self) -> bool {
        self.sent == self.ok + self.retry + self.failed + self.unanswered
    }

    /// RETRY + FAILED + unanswered.
    pub fn misses(&self) -> u64 {
        self.retry + self.failed + self.unanswered
    }
}

impl Outcome {
    /// Counts each sent request of `range` once, by how it was answered.
    pub fn ledger(&self, range: std::ops::Range<usize>) -> Ledger {
        let mut l = Ledger::default();
        for i in range {
            if self.sent_ns[i] == UNSENT {
                continue;
            }
            l.sent += 1;
            match self.status[i] {
                Some(Status::Ok) => l.ok += 1,
                Some(Status::Retry) => l.retry += 1,
                Some(Status::Failed) => l.failed += 1,
                None => l.unanswered += 1,
            }
        }
        l
    }

    /// Latency of request `i` from its due time, or [`MISS`] unless it
    /// was answered OK.
    pub fn latency_ns(&self, plan: &Plan, i: usize) -> u64 {
        match self.status[i] {
            Some(Status::Ok) => self.recv_ns[i].saturating_sub(plan.due_ns[i]).max(1),
            _ => MISS,
        }
    }

    /// Generator lateness of request `i`, if it was sent.
    pub fn lag_ns(&self, plan: &Plan, i: usize) -> Option<u64> {
        (self.sent_ns[i] != UNSENT).then(|| self.sent_ns[i].saturating_sub(plan.due_ns[i]))
    }
}

/// Knobs of one [`drive`] call.
pub struct Options<'a> {
    /// How long the reader keeps waiting for responses after the last send.
    pub drain: Duration,
    /// Stall this long when request `.0` falls due (tests inject stalls).
    pub stall: Option<(usize, Duration)>,
    /// Record spans here (traced phases only).
    pub spans: Option<&'a mut SpanLog>,
}

/// Sends `plan` to `addr` on its schedule and collects the responses.
/// Every frame is encoded before the clock starts; due times count from
/// the moment the connection is up and the frames are ready.
pub fn drive(addr: &str, plan: &Plan, opts: Options<'_>) -> std::io::Result<Outcome> {
    let Options {
        drain,
        stall,
        mut spans,
    } = opts;
    let t0 = spans.as_ref().map(|log| log.now_ns());
    let mut stream = TcpStream::connect(addr)?;
    if let (Some(log), Some(t0)) = (spans.as_deref_mut(), t0) {
        log.close("connect", crate::spans::NO_REQUEST, t0);
    }
    stream.set_nodelay(true)?;
    let rx = stream.try_clone()?;
    rx.set_read_timeout(Some(Duration::from_millis(10)))?;
    let n = plan.len();
    let log_epoch = spans.as_ref().map(|log| log.epoch);
    let (frames, offsets) = plan.encode_all(spans.as_deref_mut());
    let epoch = Instant::now();
    let sender_done = AtomicU64::new(u64::MAX);
    let mut sent_ns = vec![UNSENT; n];
    let (recv, reader_log) = std::thread::scope(|s| {
        let reader = s.spawn(|| receive(rx, plan, epoch, &sender_done, drain, log_epoch));
        send(
            &mut stream,
            plan,
            (&frames, &offsets),
            epoch,
            stall,
            spans.as_deref_mut(),
            &mut sent_ns,
        );
        let _ = stream.flush();
        // Half-close: the server sees the end of the requests and still
        // sends every outstanding response.
        let _ = stream.shutdown(Shutdown::Write);
        sender_done.store(elapsed_ns(epoch), Ordering::Relaxed);
        reader.join().expect("response reader panicked")
    });
    if let (Some(spans), Some(log)) = (spans, reader_log) {
        spans.spans.extend(log.spans);
    }
    Ok(Outcome { sent_ns, ..recv })
}

const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// Sets the calling thread's timer slack. With the kernel's default
/// (50 µs) a pacing sleep may overshoot by that much, and the overshoot
/// would be charged to the server as latency.
fn set_timer_slack_ns(ns: u64) {
    // SAFETY: PR_SET_TIMERSLACK reads only the integer `ns` and changes
    // only the calling thread's timer slack; no memory of ours is touched.
    unsafe {
        prctl(PR_SET_TIMERSLACK, ns, 0, 0, 0);
    }
}

fn elapsed_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

fn send(
    stream: &mut TcpStream,
    plan: &Plan,
    (frames, offsets): (&[u8], &[usize]),
    epoch: Instant,
    stall: Option<(usize, Duration)>,
    mut spans: Option<&mut SpanLog>,
    sent_ns: &mut [u64],
) {
    set_timer_slack_ns(1);
    let n = plan.len();
    let mut stalled = stall.is_none();
    let mut i = 0;
    while i < n {
        let now = elapsed_ns(epoch);
        let due = plan.due_ns[i];
        if due > now {
            std::thread::sleep(Duration::from_nanos(due - now));
            continue;
        }
        if let Some((k, d)) = stall {
            if !stalled && i >= k {
                std::thread::sleep(d);
                stalled = true;
                continue;
            }
        }
        // Everything due by now goes out in one write; a pending stall
        // point ends the batch.
        let end = match stall {
            Some((k, _)) if !stalled && i < k => k,
            _ => n,
        };
        let mut j = i + 1;
        while j < end && plan.due_ns[j] <= now {
            j += 1;
        }
        let t0 = spans.as_ref().map(|log| log.now_ns());
        if stream.write_all(&frames[offsets[i]..offsets[j]]).is_err() {
            return; // server gone: the rest stays unsent
        }
        if let (Some(log), Some(t0)) = (spans.as_deref_mut(), t0) {
            log.close("write", i as u64, t0);
        }
        sent_ns[i..j].fill(now);
        i = j;
    }
}

fn receive(
    mut rx: TcpStream,
    plan: &Plan,
    epoch: Instant,
    sender_done: &AtomicU64,
    drain: Duration,
    log_epoch: Option<Instant>,
) -> (Outcome, Option<SpanLog>) {
    let n = plan.len();
    let mut out = Outcome {
        sent_ns: Vec::new(),
        recv_ns: vec![MISS; n],
        status: vec![None; n],
        queue_ns: vec![0; n],
        busy_ns: vec![0; n],
        duplicates: 0,
        unknown: 0,
        mismatched: 0,
        garbage: false,
    };
    let mut log = log_epoch.map(SpanLog::new);
    let mut buf = concord_wire::RecvBuf::new();
    let mut answered = 0;
    while answered < n {
        let done = sender_done.load(Ordering::Relaxed);
        if done != u64::MAX && elapsed_ns(epoch) > done + drain.as_nanos() as u64 {
            break;
        }
        let t0 = log.as_ref().map(|l| l.now_ns());
        match buf.fill(&mut rx) {
            Ok(0) => break,
            Ok(_) => {
                let t = elapsed_ns(epoch);
                if let (Some(log), Some(t0)) = (log.as_mut(), t0) {
                    log.close("read", crate::spans::NO_REQUEST, t0);
                }
                let mut at = 0;
                loop {
                    let d0 = log.as_ref().map(|l| l.now_ns());
                    let (rf, used) = match wire::decode(&buf.data()[at..]) {
                        Ok(Some((Frame::Response(rf), used))) => (rf, used),
                        Ok(None) => break,
                        Ok(Some((Frame::Request(_), _))) | Err(_) => {
                            out.garbage = true;
                            return (out, log);
                        }
                    };
                    at += used;
                    if let (Some(log), Some(d0)) = (log.as_mut(), d0) {
                        log.close("decode", rf.id, d0);
                    }
                    let id = rf.id as usize;
                    if id >= n {
                        out.unknown += 1;
                    } else if out.status[id].is_some() {
                        out.duplicates += 1;
                    } else {
                        if rf.class != plan.class[id] || rf.service_ns != plan.service_ns[id] {
                            out.mismatched += 1;
                        }
                        out.recv_ns[id] = t;
                        out.status[id] = Some(rf.status);
                        out.queue_ns[id] = rf.queue_ns;
                        out.busy_ns[id] = rf.busy_ns;
                        answered += 1;
                    }
                }
                buf.consume(at);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break,
        }
    }
    (out, log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use concord_net::Response;
    use std::net::TcpListener;

    /// Answers every request OK at once, reporting zero queue and busy time.
    fn echo_server() -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let h = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let mut buf = concord_wire::RecvBuf::new();
            let mut out = Vec::new();
            while buf.fill(&mut conn).is_ok_and(|got| got > 0) {
                let mut at = 0;
                out.clear();
                while let Ok(Some((Frame::Request(r), used))) = wire::decode(&buf.data()[at..]) {
                    at += used;
                    let now = Instant::now();
                    let resp = Response {
                        id: r.id,
                        class: r.class,
                        service_ns: r.service_ns,
                        sent_at: now,
                        finished_at: now,
                        queue_ns: 0,
                        busy_ns: 0,
                    };
                    wire::encode_response(&mut out, r.id, &resp, Status::Ok);
                }
                buf.consume(at);
                if conn.write_all(&out).is_err() {
                    return;
                }
            }
        });
        (addr, h)
    }

    /// 100 requests due every 2 ms.
    fn even_plan() -> Plan {
        Plan {
            due_ns: (0..100).map(|i| 2_000_000 * i).collect(),
            class: vec![0; 100],
            service_ns: vec![1_000; 100],
        }
    }

    #[test]
    fn a_generator_stall_is_charged_to_every_request_it_delays() {
        let (addr, server) = echo_server();
        let plan = even_plan();
        let stall = Duration::from_millis(30);
        let opts = Options {
            drain: Duration::from_secs(1),
            stall: Some((50, stall)),
            spans: None,
        };
        let out = drive(&addr, &plan, opts).expect("drive");
        server.join().expect("echo server");
        let ledger = out.ledger(0..plan.len());
        assert_eq!(ledger.ok, 100);
        assert!(ledger.balances());
        assert_eq!((out.duplicates, out.unknown, out.mismatched), (0, 0, 0));
        // Request 50 is due at 100 ms but cannot leave before ~130 ms:
        // its latency and its lag both carry the stall …
        let stall_ns = stall.as_nanos() as u64;
        assert!(out.latency_ns(&plan, 50) >= stall_ns);
        assert!(out.lag_ns(&plan, 50).expect("sent") >= stall_ns);
        // … and so do the requests due during the stall (102–128 ms).
        for i in 51..=64 {
            let owed = 100_000_000 + stall_ns - plan.due_ns[i];
            assert!(out.latency_ns(&plan, i) >= owed, "request {i}");
        }
        // Requests well before the stall were sent on time.
        let early = out.latency_ns(&plan, 10);
        assert!(early < stall_ns / 2, "request 10 took {early} ns");
    }

    #[test]
    fn unanswered_requests_are_misses() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        // A server that reads everything and answers nothing.
        let h = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let _ = std::io::copy(&mut conn, &mut std::io::sink());
        });
        let plan = Plan {
            due_ns: vec![0, 1_000, 2_000],
            class: vec![0; 3],
            service_ns: vec![1_000; 3],
        };
        let opts = Options {
            drain: Duration::from_millis(50),
            stall: None,
            spans: None,
        };
        let out = drive(&addr, &plan, opts).expect("drive");
        h.join().expect("sink server");
        let l = out.ledger(0..plan.len());
        assert_eq!((l.sent, l.unanswered), (3, 3));
        assert!((0..3).all(|i| out.latency_ns(&plan, i) == MISS));
    }
}
