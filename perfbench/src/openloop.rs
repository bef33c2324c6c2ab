//! Load generation over the v2 wire protocol, with two threads and at most
//! two connections.
//!
//! The open loop sends request `i` at `start + i / rate` whether or not
//! earlier replies have come back, and times each request from that
//! *scheduled* instant, so a stall is charged to every request it delays.
//! It uses one connection: a sender thread sleeps until each request is due
//! and writes `ID <i> <request>`; a receiver thread blocks on the socket and
//! timestamps each tagged reply (v2 replies may arrive out of order). How
//! late the sender ran is recorded per request, and its maximum is reported
//! as `gen.lag_ms.max`. (Socket read timeouts are too coarse to schedule
//! sends by, which is why sending and receiving do not share a thread.)
//!
//! The closed loop keeps `conns` connections busy, one thread each, each
//! sending its next request only after the previous reply.

use crate::common::{
    check_reply, cpu_jiffies, ms, nproc, peak_rss_mib, ratio, steal_share, us, Check, Ops, Process,
    RunResult, SumCount,
};
use crate::layers::{EndToEnd, Layers};
use crate::stats::{median, profile, tail_report, windowed_percentile};
use crate::trace::{span_cost_us, Tracer};
use rmpi_router::Router;
use rmpi_serve::Engine;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the open loop waits for stragglers after its last send.
const DRAIN: Duration = Duration::from_secs(10);
/// How long a closed-loop request may wait for its reply.
const CLOSED_TIMEOUT: Duration = Duration::from_secs(10);

/// When one request was due, sent and answered, as offsets from the start
/// of its phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timing {
    /// The scheduled send instant.
    pub due: Duration,
    /// When the frame was actually written.
    pub sent: Duration,
    /// When its reply arrived or, when none came, when the receiver gave up
    /// waiting at the end of the drain window.
    pub done: Duration,
}

impl Timing {
    /// Open-loop latency: reply (or give-up) time minus *scheduled* send time.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent this request.
    pub fn lag(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// The scheduled send offset of request `i` at `rate` requests per second.
pub fn due(i: usize, rate: f64) -> Duration {
    Duration::from_secs_f64(i as f64 / rate)
}

/// The largest lateness over a phase, in milliseconds.
pub fn max_lag_ms(timings: &[Timing]) -> f64 {
    timings.iter().map(|t| t.lag().as_secs_f64() * 1e3).fold(0.0, f64::max)
}

/// Generator lateness as `p50, p99, max` (ms) and the index of the latest
/// send, for the run's human-readable report.
pub fn lag_profile(timings: &[Timing]) -> String {
    let lags: Vec<f64> = timings.iter().map(|t| t.lag().as_secs_f64() * 1e3).collect();
    if lags.is_empty() {
        return "no sends".to_owned();
    }
    let worst = (0..lags.len()).max_by(|&a, &b| lags[a].total_cmp(&lags[b])).unwrap_or(0);
    format!(
        "p50={:.3} p99={:.3} max={:.3} (request {worst})",
        crate::stats::percentile(&lags, 0.5),
        crate::stats::percentile(&lags, 0.99),
        lags[worst]
    )
}

/// One open-loop request's outcome: its timing and the reply line with the
/// `ID <i> ` tag stripped (`None` when no reply came).
#[derive(Clone, Debug)]
pub struct Sent {
    /// Schedule, send and reply instants.
    pub timing: Timing,
    /// The untagged reply, e.g. `OK 0.25 -1.5`.
    pub reply: Option<String>,
}

/// Open a v2 connection: `PROTO 2` must be answered `OK proto=2`. Returns
/// the stream and whatever arrived after the handshake line.
fn connect_v2(addr: SocketAddr) -> io::Result<(TcpStream, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.write_all(b"PROTO 2\n")?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut pending = Vec::new();
    let hello = read_line(&mut stream, &mut pending)?;
    if hello != "OK proto=2" {
        return Err(io::Error::other(format!("server refused protocol v2: {hello}")));
    }
    Ok((stream, pending))
}

/// Pop one complete `\n`-terminated line off the front of `buf`.
fn take_line(buf: &mut Vec<u8>) -> Option<String> {
    let end = buf.iter().position(|&b| b == b'\n')?;
    let line: Vec<u8> = buf.drain(..=end).collect();
    Some(String::from_utf8_lossy(&line[..end]).trim_end_matches('\r').to_owned())
}

/// Block until one whole line is available (honouring the socket's read
/// timeout), keeping any bytes past it in `pending`.
fn read_line(stream: &mut TcpStream, pending: &mut Vec<u8>) -> io::Result<String> {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if let Some(line) = take_line(pending) {
            return Ok(line);
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
        }
        pending.extend_from_slice(&chunk[..n]);
    }
}

/// Split `ID <tag> <rest>` into its tag and untagged reply.
pub fn split_tag(line: &str) -> Option<(usize, &str)> {
    let rest = line.strip_prefix("ID ")?;
    let (tag, reply) = rest.split_once(' ')?;
    Some((tag.parse().ok()?, reply))
}

/// Run an open loop of `lines` at `rate` requests per second over one
/// connection to `addr`. Returns one [`Sent`] per line, in line order.
pub fn open_loop(addr: SocketAddr, lines: &[String], rate: f64) -> io::Result<Vec<Sent>> {
    let (stream, mut pending) = connect_v2(addr)?;
    let mut writer = stream.try_clone()?;
    let mut reader = stream;
    // the receiver wakes this often to check whether it is done
    reader.set_read_timeout(Some(Duration::from_millis(100)))?;
    let start = Instant::now() + Duration::from_millis(20);
    let sent_count = AtomicUsize::new(0);
    let sender_done = AtomicBool::new(false);
    let (sends, replies, gave_up) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut sends: Vec<Duration> = Vec::with_capacity(lines.len());
            for (i, line) in lines.iter().enumerate() {
                let due_at = start + due(i, rate);
                loop {
                    let now = Instant::now();
                    if now >= due_at {
                        break;
                    }
                    std::thread::sleep(due_at - now);
                }
                if writer.write_all(format!("ID {i} {line}\n").as_bytes()).is_err() {
                    break;
                }
                sends.push(start.elapsed());
                sent_count.store(sends.len(), Ordering::SeqCst);
            }
            sender_done.store(true, Ordering::SeqCst);
            sends
        });
        let mut replies: HashMap<usize, (Duration, String)> = HashMap::new();
        let mut chunk = vec![0u8; 64 * 1024];
        let mut last_progress = Instant::now();
        loop {
            while let Some(line) = take_line(&mut pending) {
                if let Some((tag, reply)) = split_tag(&line) {
                    replies.entry(tag).or_insert_with(|| (start.elapsed(), reply.to_owned()));
                }
            }
            let done = sender_done.load(Ordering::SeqCst);
            if done && replies.len() >= sent_count.load(Ordering::SeqCst) {
                break;
            }
            if !done {
                last_progress = Instant::now();
            } else if last_progress.elapsed() > DRAIN {
                break; // unanswered requests are charged until now
            }
            match reader.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => pending.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {}
                Err(_) => break,
            }
        }
        let sends = sender.join().expect("open-loop sender panicked");
        (sends, replies, start.elapsed())
    });
    Ok(lines
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let due = due(i, rate);
            let sent = sends.get(i).copied();
            let reply = sent.and(replies.get(&i));
            Sent {
                timing: Timing {
                    due,
                    sent: sent.unwrap_or(due),
                    done: reply.map_or(gave_up, |r| r.0),
                },
                reply: reply.map(|r| r.1.clone()),
            }
        })
        .collect())
}

/// One closed-loop request: which request it was, its round trip, the
/// untagged reply (`None` when the connection failed or timed out), and
/// when it completed.
#[derive(Clone, Debug)]
pub struct Answered {
    /// Global request index.
    pub index: usize,
    /// Client-observed round trip, including its wait behind the requests
    /// pipelined ahead of it.
    pub rtt: Duration,
    /// The untagged reply line, e.g. `OK 0.25`.
    pub reply: Option<String>,
    /// When it completed (or failed), from the start of the phase; replies
    /// inside the measuring window count towards the rate.
    pub at: Duration,
}

/// Keep `conns` connections to `addr` busy for `duration`, one thread each
/// and `depth` requests pipelined per connection: every reply is answered by
/// sending `line(i)` for the next global index `i`, until the window closes.
/// Requests still in flight then are drained and checked but do not count
/// towards the rate. Returns every request sent, in index order.
pub fn closed_loop(
    addr: SocketAddr,
    conns: usize,
    depth: usize,
    duration: Duration,
    line: &(dyn Fn(usize) -> String + Sync),
    tracer: &Tracer,
) -> io::Result<Vec<Answered>> {
    let mut streams: Vec<(TcpStream, Vec<u8>)> =
        (0..conns.max(1)).map(|_| connect_v2(addr)).collect::<Result<_, _>>()?;
    for (s, _) in &streams {
        s.set_read_timeout(Some(CLOSED_TIMEOUT))?;
    }
    let counter = AtomicUsize::new(0);
    let begin = Instant::now();
    let stop = begin + duration;
    let mut all: Vec<Answered> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .map(|(stream, pending)| {
                let counter = &counter;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    let mut inflight: HashMap<usize, Instant> = HashMap::new();
                    let send = |stream: &mut TcpStream, inflight: &mut HashMap<usize, Instant>| {
                        let index = counter.fetch_add(1, Ordering::Relaxed);
                        let request = format!("ID {index} {}\n", line(index));
                        inflight.insert(index, Instant::now());
                        stream.write_all(request.as_bytes())
                    };
                    let mut healthy = true;
                    for _ in 0..depth.max(1) {
                        healthy = healthy && send(stream, &mut inflight).is_ok();
                    }
                    while healthy && !inflight.is_empty() {
                        let Ok(l) = read_line(stream, pending) else { break };
                        let Some((tag, reply)) = split_tag(&l) else { continue };
                        let Some(t0) = inflight.remove(&tag) else { continue };
                        let t1 = Instant::now();
                        tracer.record("client.request", tag as u64, None, t0, t1);
                        mine.push(Answered {
                            index: tag,
                            rtt: t1 - t0,
                            reply: Some(reply.to_owned()),
                            at: t1 - begin,
                        });
                        if t1 < stop {
                            healthy = send(stream, &mut inflight).is_ok();
                        }
                    }
                    // a dead connection fails whatever it still had in flight
                    mine.extend(inflight.into_iter().map(|(index, t0)| Answered {
                        index,
                        rtt: t0.elapsed(),
                        reply: None,
                        at: begin.elapsed(),
                    }));
                    mine
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("closed-loop thread panicked")).collect()
    });
    all.sort_by_key(|a| a.index);
    Ok(all)
}

/// Registry readings of a serving fleet, summed over its replicas, plus the
/// router's counters when there is one.
#[derive(Clone, Copy, Debug, Default)]
pub struct Serving {
    /// `serve.batch_size.count`.
    pub batch_size: SumCount,
    /// `serve.batch_wait.us`.
    pub batch_wait: SumCount,
    /// `serve.queue_wait.us`.
    pub queue_wait: SumCount,
    /// Subgraph cache hits.
    pub hits: u64,
    /// Subgraph cache misses.
    pub misses: u64,
    /// `router.hedges.count`.
    pub hedges: u64,
    /// `router.partial_responses.count`.
    pub partials: u64,
}

impl Serving {
    /// Read the replicas' and the router's registries now.
    pub fn read(engines: &[Arc<Engine>], router: Option<&Router>) -> Serving {
        let mut s = Serving::default();
        for e in engines {
            let reg = e.stats().registry();
            s.batch_size = s.batch_size + SumCount::read(reg, "serve.batch_size.count");
            s.batch_wait = s.batch_wait + SumCount::read(reg, "serve.batch_wait.us");
            s.queue_wait = s.queue_wait + SumCount::read(reg, "serve.queue_wait.us");
            let (hits, misses, _) = e.cache_stats();
            s.hits += hits;
            s.misses += misses;
        }
        if let Some(router) = router {
            let reg = router.registry();
            s.hedges = reg.counter("router.hedges.count").get();
            s.partials = reg.counter("router.partial_responses.count").get();
        }
        s
    }

    /// What was recorded since `b`.
    fn since(self, b: Serving) -> Serving {
        Serving {
            batch_size: self.batch_size.since(b.batch_size),
            batch_wait: self.batch_wait.since(b.batch_wait),
            queue_wait: self.queue_wait.since(b.queue_wait),
            hits: self.hits - b.hits,
            misses: self.misses - b.misses,
            hedges: self.hedges - b.hedges,
            partials: self.partials - b.partials,
        }
    }
}

/// A serving run's offered load: the open loop's requests at `rate`, then
/// `conns` connections with `depth` requests pipelined on each for `closed`.
pub struct Load<'a> {
    /// Where the requests go.
    pub addr: SocketAddr,
    /// The open loop's request lines, in schedule order.
    pub open: &'a [String],
    /// Open-loop requests per second.
    pub rate: f64,
    /// Closed-loop measuring window.
    pub closed: Duration,
    /// Closed-loop connections.
    pub conns: usize,
    /// Requests pipelined per closed-loop connection.
    pub depth: usize,
    /// Closed-loop request `i`'s line.
    pub next: &'a (dyn Fn(usize) -> String + Sync),
}

/// What a serving run's two phases produced, with the counters read around
/// them (the replies are checked afterwards, once the reference is built).
pub struct Measured {
    /// Open-loop requests.
    pub sent: Vec<Sent>,
    /// Closed-loop requests.
    pub closed: Vec<Answered>,
    /// Wall time of both phases.
    pub wall: Duration,
    /// Registry readings over both phases.
    pub serving: Serving,
    /// Process-wide counters over both phases.
    pub process: Process,
    /// Peak resident set, read before the reference is built.
    pub rss: f64,
    /// Host CPU steal over both phases.
    pub steal: f64,
    /// Spans recorded during the phases.
    pub live_spans: usize,
}

/// Run the open loop, then the closed loop, reading `serving` and the
/// process counters around them.
pub fn measure(load: &Load, tracer: &Tracer, serving: &dyn Fn() -> Serving) -> Measured {
    let serving_before = serving();
    let process_before = Process::read();
    let jiffies = cpu_jiffies();
    let t0 = Instant::now();
    let sent = open_loop(load.addr, load.open, load.rate).expect("open-loop phase");
    let closed = closed_loop(load.addr, load.conns, load.depth, load.closed, load.next, tracer)
        .expect("closed-loop phase");
    let wall = t0.elapsed();
    Measured {
        sent,
        closed,
        wall,
        process: Process::read().since(process_before),
        serving: serving().since(serving_before),
        rss: peak_rss_mib(),
        steal: steal_share(jiffies),
        live_spans: tracer.len(),
    }
}

impl Measured {
    /// Print the run's report and build its result: `throughput_per_s` in
    /// `unit`s per second, each request carrying `per_request` of them.
    pub fn report(
        &self,
        checked: &Checked,
        setups: &[f64],
        window: Duration,
        per_request: f64,
        unit: &str,
    ) -> RunResult {
        let throughput = checked.throughput(window) * per_request;
        let e2e = EndToEnd {
            setup_s: median(setups),
            p50_ms: windowed_percentile(&checked.latencies_ms, 0.50),
            p90_ms: windowed_percentile(&checked.latencies_ms, 0.90),
            throughput_per_s: throughput,
            peak_rss_mib: self.rss,
        };
        checked.print(setups, self.rss, self.steal);
        let in_window = checked.completions.iter().filter(|&&at| at <= window).count();
        println!(
            "  throughput_per_s={throughput:.3} {unit}/s (median of {} windows; {} {unit} in {:.1}s)",
            checked.windows,
            in_window as f64 * per_request,
            window.as_secs_f64()
        );
        let correct = checked.mismatches == 0 && checked.failed() == 0;
        if checked.failed() > 0 {
            println!("  {} operations failed: the run is void", checked.failed());
        }
        RunResult {
            correct,
            attempted: checked.attempted(),
            failed: checked.failed(),
            metrics: e2e.metrics(),
        }
    }

    /// The per-layer metrics the registries and process counters give;
    /// each workload's replay fills in the rest. The fleet's scoring pools
    /// total `nproc` workers.
    pub fn layers(&self, checked: &Checked) -> Layers {
        let (s, p) = (&self.serving, &self.process);
        let ops = checked.attempted() as f64;
        Layers {
            router_hedges: s.hedges as f64,
            router_partial_responses: s.partials as f64,
            serve_batch_size_mean: s.batch_size.mean(),
            serve_batch_wait_us_mean: s.batch_wait.mean(),
            serve_queue_wait_us_mean: s.queue_wait.mean(),
            serve_cache_hits: s.hits as f64,
            serve_cache_misses: s.misses as f64,
            serve_cache_hit_ratio: ratio(s.hits as f64, (s.hits + s.misses) as f64),
            subgraph_edges_per_op: ratio(p.extract_edges as f64, p.extract.count as f64),
            autograd_flops_per_op: p.flops as f64 / ops,
            autograd_bytes_per_op: p.bytes as f64 / ops,
            runtime_pool_busy_share: ratio(p.pool_busy.sum as f64, us(self.wall) * nproc() as f64),
            gen_lag_ms_max: checked.lag_ms(),
            trace_overhead_pct: 100.0 * self.live_spans as f64 * span_cost_us() / us(self.wall),
            ..Layers::default()
        }
    }
}

/// Both phases of a serving run, checked reply by reply.
pub struct Checked {
    /// Open-loop operation counts.
    pub open: Ops,
    /// Closed-loop operation counts.
    pub closed: Ops,
    /// Open-loop latencies (ms, from the schedule) of every request, in
    /// schedule order. A failed request is charged until its reply arrived
    /// or, with none, until the end of the drain window: failures never
    /// leave the sample, so they cannot make the percentiles look better.
    pub latencies_ms: Vec<f64>,
    /// When each correct closed-loop reply completed, from the start of
    /// the phase.
    pub completions: Vec<Duration>,
    /// Windows the closed loop's rate is the median over.
    pub windows: usize,
    /// `OK` replies that differ from the reference.
    pub mismatches: u64,
    /// The open loop's schedule, send and reply instants.
    pub timings: Vec<Timing>,
}

/// Check every reply of both phases against `expect(i)`, the reference
/// reply for global request `i` (closed-loop request `j` is global request
/// `sent.len() + j`). The closed loop's rate will be the median over
/// `windows` equal windows.
pub fn check_phases(
    sent: &[Sent],
    closed: &[Answered],
    windows: usize,
    expect: &dyn Fn(usize) -> String,
) -> Checked {
    let mut c = Checked {
        open: Ops { attempted: sent.len() as u64, ..Ops::default() },
        closed: Ops { attempted: closed.len() as u64, ..Ops::default() },
        latencies_ms: sent.iter().map(|s| ms(s.timing.latency())).collect(),
        completions: Vec::new(),
        windows: windows.max(1),
        mismatches: 0,
        timings: sent.iter().map(|s| s.timing).collect(),
    };
    for (i, s) in sent.iter().enumerate() {
        let want = expect(i);
        if c.open.count(check_reply(s.reply.as_deref(), &want)) {
            c.mismatches += 1;
            eprintln!("mismatch on request {i}: got {:?}, want {want:?}", s.reply);
        }
    }
    for a in closed {
        let want = expect(sent.len() + a.index);
        let check = check_reply(a.reply.as_deref(), &want);
        if check == Check::Match {
            c.completions.push(a.at);
        }
        if c.closed.count(check) {
            c.mismatches += 1;
            eprintln!(
                "mismatch on closed-loop request {}: got {:?}, want {want:?}",
                a.index, a.reply
            );
        }
    }
    c
}

impl Checked {
    /// Operations attempted over both phases.
    pub fn attempted(&self) -> u64 {
        self.open.attempted + self.closed.attempted
    }

    /// Operations failed over both phases.
    pub fn failed(&self) -> u64 {
        self.open.failed + self.closed.failed
    }

    /// Correct closed-loop replies per second inside the measuring
    /// `window`: the median over [`Checked::windows`] equal parts of it, so
    /// a burst of host noise in one part does not move it.
    pub fn throughput(&self, window: Duration) -> f64 {
        let part = window.as_secs_f64() / self.windows as f64;
        let mut counts = vec![0.0; self.windows];
        for at in &self.completions {
            let k = (at.as_secs_f64() / part) as usize;
            if k < self.windows {
                counts[k] += 1.0;
            }
        }
        median(&counts) / part
    }

    /// `gen.lag_ms.max`.
    pub fn lag_ms(&self) -> f64 {
        max_lag_ms(&self.timings)
    }

    /// Print what every serving run reports: operations per phase, set-up
    /// times, latency percentiles with their sample counts, memory, generator
    /// lateness and host steal.
    pub fn print(&self, setups: &[f64], rss: f64, steal: f64) {
        let (o, c) = (&self.open, &self.closed);
        println!("  open-loop   attempted={} ok={} failed={}", o.attempted, o.ok, o.failed);
        println!("  closed-loop attempted={} ok={} failed={}", c.attempted, c.ok, c.failed);
        println!("  setup_s={:.4} (median of {setups:?})", median(setups));
        for q in [0.50, 0.90, 0.99] {
            println!("  {}", tail_report(&self.latencies_ms, q));
        }
        println!(
            "  peak_rss_mib={rss:.1}  gen.lag_ms.max={:.3}  output mismatches={}  host cpu steal={:.2}%",
            self.lag_ms(),
            self.mismatches,
            steal * 100.0
        );
        println!("  open-loop latency ms: {}", profile(&self.latencies_ms));
        println!("  generator lateness ms: {}", lag_profile(&self.timings));
        if self.lag_ms() >= windowed_percentile(&self.latencies_ms, 0.50) {
            // latencies are still charged from the schedule, so a late
            // sender inflates them; it never hides a slow reply
            println!("  note: gen.lag_ms.max reached p50_ms: by the benchmark's rule this run's latencies are void");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    #[test]
    fn latency_counts_from_the_schedule_and_lag_is_tracked() {
        let on_time = Timing {
            due: Duration::from_millis(100),
            sent: Duration::from_millis(100),
            done: Duration::from_millis(103),
        };
        assert_eq!(on_time.latency(), Duration::from_millis(3));
        assert_eq!(on_time.lag(), Duration::ZERO);
        // the sender stalled 40 ms: the request is charged the stall too
        let late = Timing {
            due: Duration::from_millis(110),
            sent: Duration::from_millis(150),
            done: Duration::from_millis(153),
        };
        assert_eq!(late.latency(), Duration::from_millis(43));
        assert_eq!(late.lag(), Duration::from_millis(40));
        assert_eq!(max_lag_ms(&[on_time, late]), 40.0);
        // a request never answered is charged until the receiver gave up
        let lost = Timing { done: Duration::from_millis(10_200), ..late };
        assert_eq!(lost.latency(), Duration::from_millis(10_090));
        assert_eq!(due(3, 200.0), Duration::from_millis(15));
    }

    #[test]
    fn failed_requests_stay_in_the_latency_sample() {
        let at = |due: u64, done: u64, reply: Option<&str>| Sent {
            timing: Timing {
                due: Duration::from_millis(due),
                sent: Duration::from_millis(due),
                done: Duration::from_millis(done),
            },
            reply: reply.map(str::to_owned),
        };
        let sent = [
            at(0, 5, Some("OK 1")),
            at(10, 2_010, Some("OK partial 1/2 1")),
            at(20, 30, Some("ERR overloaded")),
            at(30, 10_500, None),
        ];
        let c = check_phases(&sent, &[], 1, &|_| "OK 1".to_owned());
        assert_eq!(c.latencies_ms, vec![5.0, 2_000.0, 10.0, 10_470.0]);
        assert_eq!((c.open.ok, c.open.failed, c.mismatches), (1, 3, 0));
    }

    #[test]
    fn throughput_is_the_median_window_rate() {
        let answered = |ms: &[u64]| -> Vec<Answered> {
            ms.iter()
                .enumerate()
                .map(|(index, &t)| Answered {
                    index,
                    rtt: Duration::from_millis(1),
                    reply: Some("OK".to_owned()),
                    at: Duration::from_millis(t),
                })
                .collect()
        };
        // windows of one second hold 3, 1 and 4 replies; the one past the
        // window does not count
        let closed = answered(&[100, 200, 300, 1_500, 2_100, 2_200, 2_300, 2_400, 3_100]);
        let c = check_phases(&[], &closed, 3, &|_| "OK".to_owned());
        assert_eq!(c.throughput(Duration::from_secs(3)), 3.0);
        let c = check_phases(&[], &closed, 1, &|_| "OK".to_owned());
        assert_eq!(c.throughput(Duration::from_secs(3)), 8.0 / 3.0);
    }

    #[test]
    fn tags_split() {
        assert_eq!(split_tag("ID 17 OK 1 2"), Some((17, "OK 1 2")));
        assert_eq!(split_tag("OK 1"), None);
    }

    /// A v2 server that answers strictly one request at a time, each after
    /// `service`: offered faster than that, the open loop must keep sending
    /// on schedule while its measured latency grows with the queue.
    fn serial_server(service: Duration) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { return };
                stream.set_nodelay(true).unwrap();
                let mut w = stream.try_clone().unwrap();
                for line in BufReader::new(stream).lines() {
                    let Ok(line) = line else { break };
                    if line == "PROTO 2" {
                        writeln!(w, "OK proto=2").unwrap();
                        continue;
                    }
                    std::thread::sleep(service);
                    let (tag, body) = split_tag(&line).unwrap();
                    if writeln!(w, "ID {tag} OK {body}").is_err() {
                        break;
                    }
                }
            }
        });
        addr
    }

    #[test]
    fn open_loop_keeps_its_schedule_under_a_slow_server() {
        let addr = serial_server(Duration::from_millis(20));
        let lines: Vec<String> = (0..8).map(|i| format!("PING {i}")).collect();
        // one every 5 ms against 20 ms of serial service
        let sent = open_loop(addr, &lines, 200.0).unwrap();
        for (i, s) in sent.iter().enumerate() {
            assert_eq!(s.reply.as_deref(), Some(format!("OK PING {i}").as_str()));
            assert!(s.timing.lag() < Duration::from_millis(15), "sender kept the schedule");
        }
        let first = sent[0].timing.latency();
        let last = sent[7].timing.latency();
        // the last request queued behind seven others: ~8*20 - 7*5 = 125 ms
        assert!(last >= Duration::from_millis(110), "queueing is charged: {last:?}");
        assert!(last > first + Duration::from_millis(80));
    }

    #[test]
    fn closed_loop_keeps_its_pipeline_full_until_the_window_closes() {
        let addr = serial_server(Duration::from_millis(5));
        let tracer = Tracer::new(true);
        let answered =
            closed_loop(addr, 1, 3, Duration::from_millis(60), &|i| format!("PING {i}"), &tracer)
                .unwrap();
        // a serial 5 ms server answers ~12 in 60 ms; 3 more drain after it
        let in_window = answered.iter().filter(|a| a.at <= Duration::from_millis(60)).count();
        assert!((6..=13).contains(&in_window), "{in_window} in window");
        assert_eq!(answered.len() - in_window, 3, "the full pipeline drains after the window");
        for (i, a) in answered.iter().enumerate() {
            assert_eq!(a.index, i);
            assert_eq!(a.reply.as_deref(), Some(format!("OK PING {i}").as_str()));
        }
        // three in flight on a serial server: each waits behind two others
        assert!(answered[5].rtt >= Duration::from_millis(12), "{:?}", answered[5].rtt);
        assert_eq!(tracer.len(), answered.len(), "one client span per request");
    }
}
