//! The std-only TCP front end: a line-delimited protocol over a bounded
//! connection queue with backpressure, per-request deadlines, and graceful
//! shutdown.
//!
//! # Architecture
//!
//! One acceptor thread owns the listener. Accepted connections become jobs in
//! a bounded `Mutex<VecDeque>` + `Condvar` queue; a fixed set of connection
//! workers pops jobs and speaks the protocol (see [`crate::protocol`]) until
//! the client disconnects. Scoring itself happens inside the shared
//! [`Engine`], whose own pool shards score batches — connection workers only
//! parse, dispatch and format.
//!
//! # Dynamic batching and protocol v2
//!
//! With batching enabled (the default), `SCORE`/`RANK` requests are not
//! scored by the connection worker: they are submitted to the shared
//! cross-connection micro-batcher ([`crate::batcher`]), which coalesces
//! everything arriving within `batch_window` into one `Engine::run_batch`
//! call. A v1 connection's worker blocks on its item's result, preserving
//! strict in-order responses while still coalescing with other connections.
//!
//! A connection that sends `PROTO 2` (answered `OK proto=2`) switches to
//! protocol v2: requests carry client-chosen `ID <n>` tags, responses echo
//! them, and replies may return out of order — the worker keeps reading
//! while batched answers are in flight, and a dedicated per-connection
//! writer thread serialises response writes (batched verbs deliver from the
//! batcher thread; cheap verbs answer inline). One connection can therefore
//! keep N requests in flight, and concurrent tagged requests from one
//! socket batch together exactly like requests from N sockets.
//!
//! # Backpressure and deadlines
//!
//! When the queue is full the acceptor does not block or buffer: it answers
//! the new connection with `ERR server overloaded` and closes it, so load
//! shedding is explicit and immediate. Every queued job carries its enqueue
//! time; if it waits longer than the configured request timeout before a
//! worker picks it up, the worker answers `ERR deadline expired` and closes
//! the connection without scoring. The same timeout also bounds socket reads
//! so an idle client cannot pin a worker forever.
//!
//! # Shutdown
//!
//! [`ServerHandle::shutdown`] flips a stop flag, wakes the acceptor with a
//! self-connection, drains the workers via the condvar, and joins every
//! thread. Dropping the handle shuts down implicitly.
//!
//! # Fault isolation
//!
//! Every request line is answered under `catch_unwind`: a panic anywhere in
//! parsing, scoring or formatting becomes a single `ERR internal: ...` line
//! and the connection (and worker) keep serving. `HEALTH` is the readiness
//! probe; `RELOAD <path>` hot-swaps the served bundle through
//! [`Engine::reload_from`], which validates before swapping and keeps the
//! old model on rejection.
//!
//! # Connection hardening
//!
//! A misbehaving or hostile peer cannot pin resources:
//!
//! - request lines are read through [`crate::lineio::read_line_bounded`], so
//!   a line over `max_line_len` is answered `ERR request too long` and the
//!   connection closed (counted in `serve.rejected_overlong`) instead of
//!   buffering without bound;
//! - every accepted socket gets read **and write** timeouts; if either
//!   cannot be set the connection is shed (`serve.sock_config_failures`)
//!   rather than served unbounded;
//! - a connection that sends nothing for `idle_timeout` is closed
//!   (`serve.idle_closed`), releasing its worker;
//! - at most `max_connections` connections are admitted at once; the rest
//!   are answered `ERR too many connections` (`serve.rejected_conn_limit`).

use crate::batcher::{BatchConfig, Batcher};
use crate::engine::{BatchItem, BatchOutcome, Engine};
use crate::error::ServeError;
use crate::lineio::{read_line_bounded, LineRead};
use crate::protocol::{
    format_error, format_ranked, format_scores, format_tagged, parse_request, parse_tagged, Request,
};
use std::collections::VecDeque;
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// TCP front-end knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port (tests, benches).
    pub addr: String,
    /// Connection worker threads (protocol handling, not scoring).
    pub workers: usize,
    /// Bounded queue capacity; connections beyond it are rejected with
    /// `ERR server overloaded`.
    pub queue_capacity: usize,
    /// Queue-wait deadline per connection.
    pub request_timeout: Duration,
    /// Maximum request-line length in bytes; longer lines are answered
    /// `ERR request too long` and the connection is closed.
    pub max_line_len: usize,
    /// Socket read timeout: a connection that sends nothing for this long is
    /// closed and counted in `serve.idle_closed`.
    pub idle_timeout: Duration,
    /// Socket write timeout: a peer that stops draining responses for this
    /// long has its connection closed.
    pub write_timeout: Duration,
    /// Concurrent-connection cap (queued + being served). Connections beyond
    /// it are answered `ERR too many connections`.
    pub max_connections: usize,
    /// Route `SCORE`/`RANK` through the cross-connection micro-batcher.
    /// Off, every request is scored by its own engine call, as before PR 9.
    pub batching: bool,
    /// Micro-batcher window: how long the first queued request may wait for
    /// company before its batch flushes (the latency floor under light load).
    pub batch_window: Duration,
    /// Micro-batcher flat-target budget per flush (scores count one per
    /// triple, ranks one per ranking candidate).
    pub batch_max: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 64,
            request_timeout: Duration::from_secs(5),
            max_line_len: 64 * 1024,
            idle_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_connections: 256,
            batching: true,
            batch_window: Duration::from_millis(1),
            batch_max: 256,
        }
    }
}

struct Job {
    stream: TcpStream,
    enqueued: Instant,
    /// Decrements the active-connection count when the job is done or shed.
    _guard: ConnGuard,
}

/// RAII active-connection slot: one per admitted connection, released on
/// drop whether the connection was served, shed at the deadline, or its
/// worker bailed out.
struct ConnGuard(Arc<Shared>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::SeqCst);
    }
}

struct Shared {
    engine: Arc<Engine>,
    /// The cross-connection micro-batcher; `None` when batching is off.
    batcher: Option<Arc<Batcher>>,
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    stop: AtomicBool,
    timeout: Duration,
    max_line_len: usize,
    idle_timeout: Duration,
    write_timeout: Duration,
    max_connections: usize,
    /// Admitted connections (queued + in service).
    active: AtomicUsize,
}

/// A running server; owns its threads. [`ServerHandle::shutdown`] (or drop)
/// stops it.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

/// Bind a listener and spawn the acceptor and connection workers.
pub fn serve(engine: Arc<Engine>, cfg: ServerConfig) -> Result<ServerHandle, ServeError> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let batcher = cfg.batching.then(|| {
        Arc::new(Batcher::new(
            Arc::clone(&engine),
            BatchConfig { window: cfg.batch_window, max_batch: cfg.batch_max },
        ))
    });
    let shared = Arc::new(Shared {
        engine,
        batcher,
        queue: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        stop: AtomicBool::new(false),
        timeout: cfg.request_timeout,
        max_line_len: cfg.max_line_len.max(16),
        idle_timeout: cfg.idle_timeout,
        write_timeout: cfg.write_timeout,
        max_connections: cfg.max_connections.max(1),
        active: AtomicUsize::new(0),
    });

    let mut threads = Vec::with_capacity(cfg.workers + 1);
    let capacity = cfg.queue_capacity.max(1);
    {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("rmpi-serve-accept".into())
                .spawn(move || accept_loop(&shared, listener, capacity))
                .map_err(ServeError::Io)?,
        );
    }
    for w in 0..cfg.workers.max(1) {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("rmpi-serve-conn-{w}"))
                .spawn(move || worker_loop(&shared))
                .map_err(ServeError::Io)?,
        );
    }

    Ok(ServerHandle { shared, addr, threads })
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served engine (for stats inspection alongside the wire API).
    pub fn engine(&self) -> &Engine {
        &self.shared.engine
    }

    /// Stop accepting, drain nothing further, join all threads. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // wake the acceptor out of accept() with a throwaway connection
        let _ = TcpStream::connect(self.addr);
        self.shared.available.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // only after the workers are gone (no further submissions): drain
        // and stop the batcher
        if let Some(batcher) = &self.shared.batcher {
            batcher.shutdown();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener, capacity: usize) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        // connection cap first: it bounds total sockets held open, which the
        // queue cap alone does not (conns being served are off the queue)
        if shared.active.load(Ordering::SeqCst) >= shared.max_connections {
            shared.engine.stats().rejected_conn_limit.inc();
            let mut s = stream;
            let _ = writeln!(s, "{}", format_error(&ServeError::ConnLimit));
            continue;
        }
        let mut queue = shared.queue.lock().expect("serve queue lock");
        if queue.len() >= capacity {
            drop(queue);
            shared.engine.stats().rejected_overload.inc();
            let mut s = stream;
            let _ = writeln!(s, "{}", format_error(&ServeError::Overloaded));
            continue; // dropping `s` closes the connection: explicit load shedding
        }
        shared.active.fetch_add(1, Ordering::SeqCst);
        let guard = ConnGuard(Arc::clone(shared));
        queue.push_back(Job { stream, enqueued: Instant::now(), _guard: guard });
        shared.engine.stats().queue_depth.set(queue.len() as i64);
        drop(queue);
        shared.available.notify_one();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("serve queue lock");
            loop {
                if let Some(job) = queue.pop_front() {
                    shared.engine.stats().queue_depth.set(queue.len() as i64);
                    break job;
                }
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared.available.wait(queue).expect("serve queue lock");
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        handle_connection(shared, job);
    }
}

fn handle_connection(shared: &Shared, job: Job) {
    let mut stream = job.stream;
    let waited = job.enqueued.elapsed();
    shared.engine.stats().queue_wait.record_duration(waited);
    // deadline check at dequeue: a job that sat in the queue past the
    // request timeout is shed, not served late
    if waited > shared.timeout {
        shared.engine.stats().rejected_deadline.inc();
        let _ = writeln!(stream, "{}", format_error(&ServeError::DeadlineExpired));
        return;
    }
    // Surfacing these failures matters: serving a socket whose reads or
    // writes can block forever would pin a worker, so the connection is shed
    // instead (and counted, so the condition is visible in METRICS).
    if stream
        .set_read_timeout(Some(shared.idle_timeout))
        .and_then(|()| stream.set_write_timeout(Some(shared.write_timeout)))
        .is_err()
    {
        shared.engine.stats().sock_config_failures.inc();
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let mut line = String::new();
    // protocol v2 state, set on `PROTO 2`: all writes move to a dedicated
    // writer thread fed through a channel, so batched answers delivered from
    // the batcher thread and inline answers from this worker serialise
    // without a lock — and a slow client stalls only its own writer
    let mut v2: Option<V2Writer> = None;
    let mut overlong = false;
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        match read_line_bounded(&mut reader, &mut line, shared.max_line_len) {
            Ok(LineRead::Line) => {}
            Ok(LineRead::TooLong) => {
                shared.engine.stats().rejected_overlong.inc();
                let err = ServeError::OverlongRequest { limit: shared.max_line_len };
                let framed = format_error(&err);
                match &v2 {
                    Some(writer) => {
                        let _ = writer.tx.send(framed);
                    }
                    None => {
                        let _ = writeln!(stream, "{framed}");
                    }
                }
                overlong = true;
                break; // can't resync mid-line reliably from a hostile peer
            }
            // clean disconnect, or a cut connection mid-line: nothing to answer
            Ok(LineRead::Eof) | Ok(LineRead::Partial) => break,
            Err(e) => {
                if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
                {
                    shared.engine.stats().idle_closed.inc();
                }
                break;
            }
        }
        if line.trim().is_empty() {
            continue;
        }
        match &v2 {
            Some(writer) => handle_v2_line(shared, &line, &writer.tx),
            None => {
                let response = respond(shared, &line);
                let upgrade = response == "OK proto=2";
                if writeln!(stream, "{response}").is_err() {
                    break;
                }
                if upgrade {
                    // the hello is on the wire (written above, in order);
                    // from here every response goes through the writer thread
                    match V2Writer::spawn(&stream) {
                        Some(writer) => v2 = Some(writer),
                        None => break,
                    }
                }
            }
        }
    }
    // v2 teardown: in-flight batched responders still hold channel senders,
    // so the writer thread keeps draining until the batcher has answered
    // every request this connection submitted — then the channel closes and
    // the join completes. Nothing in flight is ever silently dropped.
    if let Some(writer) = v2 {
        drop(writer.tx);
        let _ = writer.thread.join();
    }
    if overlong {
        close_after_rejection(&stream, &mut reader, shared.max_line_len);
    }
}

/// How long a rejected connection waits for more input before it closes.
const REJECT_LINGER: Duration = Duration::from_millis(200);

/// Close a connection whose request line was rejected before its end. The
/// rest of the line may still be in flight, and closing a socket with unread
/// input makes the kernel send a reset, which can reach the peer before it
/// has read the rejection. So the answer is followed by a FIN, and up to
/// `limit` bytes of input are discarded until the peer closes or stays
/// silent for [`REJECT_LINGER`].
fn close_after_rejection(stream: &TcpStream, reader: &mut impl Read, limit: usize) {
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(REJECT_LINGER));
    let _ = std::io::copy(&mut reader.take(limit as u64), &mut std::io::sink());
}

/// The write side of a v2 connection: a channel-fed thread owning a clone of
/// the socket. The channel is the serialisation point — any thread holding a
/// sender may deliver a framed response line.
struct V2Writer {
    tx: mpsc::Sender<String>,
    thread: JoinHandle<()>,
}

impl V2Writer {
    fn spawn(stream: &TcpStream) -> Option<V2Writer> {
        let mut out = stream.try_clone().ok()?;
        let (tx, rx) = mpsc::channel::<String>();
        let thread = std::thread::Builder::new()
            .name("rmpi-serve-v2-write".into())
            .spawn(move || {
                // a failed write (peer gone, write timeout) ends the thread;
                // senders see the closed channel and drop their responses
                for response in rx {
                    if writeln!(out, "{response}").is_err() {
                        break;
                    }
                }
            })
            .ok()?;
        Some(V2Writer { tx, thread })
    }
}

/// Answer one v2 (tagged) request line. Batchable verbs are submitted to the
/// micro-batcher and answered asynchronously through `tx` when their flush
/// completes; everything else answers inline. Untagged or unparsable frames
/// get one **untagged** `ERR` line — there is no tag to attribute them to,
/// and inventing one could collide with a real in-flight request.
fn handle_v2_line(shared: &Shared, line: &str, tx: &mpsc::Sender<String>) {
    let stats = shared.engine.stats();
    let (tag, inner) = match parse_tagged(line) {
        Ok(parts) => parts,
        Err(err) => {
            stats.wire_requests.inc();
            stats.bad_requests.inc();
            let _ = tx.send(format_error(&err));
            return;
        }
    };
    // an optional `DEADLINE <ms>` prefix carries the caller's remaining
    // end-to-end budget (routers decrement it hop by hop); it tightens the
    // micro-batcher window for this item and sheds it once expired
    let (budget, inner) = split_deadline(inner);
    let deadline = budget.map(|b| Instant::now() + b);
    let batchable = matches!(wire_verb(inner), "score" | "rank");
    match (&shared.batcher, batchable) {
        (Some(batcher), true) => {
            stats.wire_requests.inc();
            let t0 = Instant::now();
            let item = match parse_request(inner) {
                Ok(Request::Score(targets)) => BatchItem::Score(targets),
                Ok(Request::Rank { head, relation, k }) => BatchItem::Rank { head, relation, k },
                Ok(_) => unreachable!("wire_verb admitted only SCORE/RANK"),
                Err(err) => {
                    stats.bad_requests.inc();
                    stats.wire_latency(wire_verb(inner)).record_duration(t0.elapsed());
                    let _ = tx.send(format_tagged(tag, &format_error(&err)));
                    return;
                }
            };
            let verb = wire_verb(inner);
            let stats = stats.clone();
            let tx = tx.clone();
            batcher.submit_with_deadline(item, deadline, move |result| {
                stats.wire_latency(verb).record_duration(t0.elapsed());
                let response = match &result {
                    Ok(outcome) => format_outcome(outcome),
                    Err(err) => format_error(err),
                };
                let _ = tx.send(format_tagged(tag, &response));
            });
        }
        _ => {
            // cheap/admin verbs (and score/rank with batching off) answer in
            // request order; `respond` does its own counting
            let response = respond(shared, inner);
            let _ = tx.send(format_tagged(tag, &response));
        }
    }
}

/// Split an optional `DEADLINE <ms> ` prefix off a v2 request line. The
/// hint is advisory budget propagation: a missing or malformed hint leaves
/// the line untouched, so the normal parser reports malformed requests and
/// v1 semantics are never affected (v1 lines skip this path entirely).
fn split_deadline(inner: &str) -> (Option<Duration>, &str) {
    let Some(rest) = inner.strip_prefix("DEADLINE") else {
        return (None, inner);
    };
    if !rest.starts_with(|c: char| c.is_ascii_whitespace()) {
        return (None, inner);
    }
    let rest = rest.trim_start();
    let Some((ms, tail)) = rest.split_once(|c: char| c.is_ascii_whitespace()) else {
        return (None, inner);
    };
    match ms.parse::<u64>() {
        Ok(ms) => (Some(Duration::from_millis(ms)), tail.trim_start()),
        Err(_) => (None, inner),
    }
}

/// Format a batch outcome exactly as the direct dispatch path would.
fn format_outcome(outcome: &BatchOutcome) -> String {
    match outcome {
        BatchOutcome::Scores(scores) => format_scores(scores),
        BatchOutcome::Ranked(ranked) => format_ranked(ranked),
    }
}

/// Answer one request line. Split out of the socket loop so the protocol
/// semantics are testable without a live server. Runs the whole
/// parse → dispatch → format path under `catch_unwind`: a panicking request
/// becomes `ERR internal: ...` and the worker keeps serving.
fn respond(shared: &Shared, line: &str) -> String {
    let stats = shared.engine.stats();
    stats.wire_requests.inc();
    let t0 = Instant::now();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| dispatch(shared, line)));
    let result = match outcome {
        Ok(result) => result,
        Err(payload) => {
            // Engine-level catches count themselves; this only sees panics
            // that escaped the engine (parsing, formatting, bugs).
            stats.internal_errors.inc();
            Err(ServeError::Internal(rmpi_runtime::panic_message(payload.as_ref())))
        }
    };
    stats.wire_latency(wire_verb(line)).record_duration(t0.elapsed());
    match result {
        Ok(response) => response,
        Err(err) => {
            if matches!(err, ServeError::BadRequest(_)) {
                stats.bad_requests.inc();
            }
            format_error(&err)
        }
    }
}

/// The metric label for a request line's verb (`serve.wire.<verb>.us`).
/// Unknown or malformed commands share one `other` histogram so hostile
/// input cannot grow the registry unboundedly.
fn wire_verb(line: &str) -> &'static str {
    match line.split_whitespace().next() {
        Some("PING") => "ping",
        Some("SCORE") => "score",
        Some("RANK") => "rank",
        Some("STATS") => "stats",
        Some("METRICS") => "metrics",
        Some("HEALTH") => "health",
        Some("RELOAD") => "reload",
        Some("PROTO") => "proto",
        _ => "other",
    }
}

fn dispatch(shared: &Shared, line: &str) -> Result<String, ServeError> {
    parse_request(line).and_then(|req| match req {
        Request::Ping => Ok("OK pong".to_string()),
        Request::Stats => Ok(format!("OK {}", shared.engine.stats_json())),
        Request::Metrics => Ok(format!("OK {}", shared.engine.metrics_json())),
        Request::Health => {
            let model = shared.engine.model();
            // degraded still answers OK-prefixed: the process is alive and
            // serving cache hits, so failover probes must not kill it — but
            // operators (and tests) can see the store is quarantined
            let status = if shared.engine.is_degraded() { "degraded" } else { "healthy" };
            Ok(format!(
                "OK {status} relations={} entities={}",
                model.num_relations(),
                shared.engine.num_entities()
            ))
        }
        Request::Reload { path } => {
            shared.engine.reload_from(&path).map(|()| "OK reloaded".to_string())
        }
        Request::Proto { version: 2 } => Ok("OK proto=2".to_string()),
        Request::Proto { version } => {
            Err(ServeError::BadRequest(format!("unsupported protocol version {version}")))
        }
        // with batching on, the worker blocks on the coalesced flush — v1
        // connections keep strict in-order responses while their requests
        // share engine calls with every other connection in the window
        Request::Score(targets) => match &shared.batcher {
            Some(batcher) => {
                batcher.submit_wait(BatchItem::Score(targets)).map(|o| format_outcome(&o))
            }
            None => shared.engine.score_batch(&targets).map(|scores| format_scores(&scores)),
        },
        Request::Rank { head, relation, k } => match &shared.batcher {
            Some(batcher) => batcher
                .submit_wait(BatchItem::Rank { head, relation, k })
                .map(|o| format_outcome(&o)),
            None => shared.engine.rank_tails(head, relation, k).map(|r| format_ranked(&r)),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use rmpi_core::{RmpiConfig, RmpiModel};
    use rmpi_kg::{KnowledgeGraph, Triple};
    use rmpi_testutil::failpoint;
    use std::io::BufRead;

    fn test_engine() -> Arc<Engine> {
        let graph = KnowledgeGraph::from_triples(vec![
            Triple::new(0u32, 0u32, 1u32),
            Triple::new(1u32, 1u32, 2u32),
            Triple::new(2u32, 2u32, 0u32),
        ]);
        let model = RmpiModel::new(RmpiConfig { dim: 8, ..RmpiConfig::base() }, 4, 0);
        Arc::new(Engine::with_registry(
            model,
            graph,
            EngineConfig { seed: 3, cache_capacity: 32, threads: 1 },
            Arc::new(rmpi_obs::MetricsRegistry::new()),
        ))
    }

    fn query(addr: SocketAddr, line: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        writeln!(stream, "{line}").expect("send");
        let mut reader = BufReader::new(stream);
        let mut response = String::new();
        reader.read_line(&mut response).expect("recv");
        response.trim_end().to_string()
    }

    #[test]
    fn serves_ping_score_rank_stats_over_tcp() {
        let _fp = failpoint::shared();
        let engine = test_engine();
        let mut server = serve(Arc::clone(&engine), ServerConfig::default()).expect("serve");
        let addr = server.addr();

        assert_eq!(query(addr, "PING"), "OK pong");
        let health = query(addr, "HEALTH");
        assert!(health.starts_with("OK healthy"), "{health}");
        assert!(health.contains("relations=4"), "{health}");

        let scored = query(addr, "SCORE 0 1 2");
        let wire: f32 = scored.strip_prefix("OK ").expect(&scored).parse().expect("score");
        let direct = engine.score(Triple::new(0u32, 1u32, 2u32)).unwrap();
        assert_eq!(wire, direct, "wire score must equal in-process score");

        let ranked = query(addr, "RANK 0 1 2");
        assert!(ranked.starts_with("OK "), "{ranked}");
        assert_eq!(ranked[3..].split(' ').count(), 2);

        let stats = query(addr, "STATS");
        assert!(stats.starts_with("OK {"), "{stats}");
        assert!(stats.contains("\"wire_requests\""), "{stats}");

        let metrics = query(addr, "METRICS");
        assert!(metrics.starts_with("OK {"), "{metrics}");
        assert!(metrics.contains("\"serve.wire.score.us\""), "{metrics}");
        assert!(metrics.contains("\"serve.queue_wait.us\""), "{metrics}");
        assert!(metrics.contains("\"subgraph.cache_entries.count\""), "{metrics}");

        assert!(query(addr, "NOPE").starts_with("ERR bad request"));
        server.shutdown();
    }

    #[test]
    fn one_connection_can_send_many_requests() {
        let _fp = failpoint::shared();
        let mut server = serve(test_engine(), ServerConfig::default()).expect("serve");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        for _ in 0..3 {
            writeln!(stream, "SCORE 0 0 1 1 1 2").expect("send");
            let mut line = String::new();
            reader.read_line(&mut line).expect("recv");
            assert!(line.starts_with("OK "), "{line}");
            assert_eq!(line.trim_end().split(' ').count(), 3, "batch of 2 scores");
        }
        server.shutdown();
    }

    #[test]
    fn overload_is_rejected_not_queued() {
        let _fp = failpoint::shared();
        // zero workers would hang; instead use 1 worker and capacity 1, then
        // wedge the worker with a held-open idle connection so further
        // connections pile into the bounded queue
        let engine = test_engine();
        let mut server = serve(
            Arc::clone(&engine),
            ServerConfig {
                workers: 1,
                queue_capacity: 1,
                request_timeout: Duration::from_millis(400),
                ..ServerConfig::default()
            },
        )
        .expect("serve");
        let addr = server.addr();

        // occupy the single worker: connected but silent until read timeout
        let wedge = TcpStream::connect(addr).expect("wedge connect");
        std::thread::sleep(Duration::from_millis(50));
        // fill the queue
        let _queued = TcpStream::connect(addr).expect("queued connect");
        std::thread::sleep(Duration::from_millis(50));
        // queue is full now: this one must be shed immediately
        let shed = TcpStream::connect(addr).expect("shed connect");
        let mut reader = BufReader::new(shed);
        let mut line = String::new();
        reader.read_line(&mut line).expect("recv");
        assert_eq!(line.trim_end(), "ERR server overloaded");
        assert!(engine.stats().rejected_overload.get() >= 1);

        drop(wedge);
        server.shutdown();
    }

    #[test]
    fn overlong_line_is_rejected_and_counted() {
        let _fp = failpoint::shared();
        let engine = test_engine();
        let mut server = serve(
            Arc::clone(&engine),
            ServerConfig { max_line_len: 64, ..ServerConfig::default() },
        )
        .expect("serve");
        let long = format!("SCORE {}", "0 1 2 ".repeat(64));
        let reply = query(server.addr(), &long);
        assert_eq!(reply, "ERR request too long (over 64 bytes)");
        assert_eq!(engine.stats().rejected_overlong.get(), 1);
        // a line exactly at the cap still parses (and gets a normal answer)
        assert_eq!(query(server.addr(), "PING"), "OK pong");
        server.shutdown();
    }

    #[test]
    fn idle_connection_is_closed_and_counted() {
        let _fp = failpoint::shared();
        let engine = test_engine();
        let mut server = serve(
            Arc::clone(&engine),
            ServerConfig { idle_timeout: Duration::from_millis(100), ..ServerConfig::default() },
        )
        .expect("serve");
        let stream = TcpStream::connect(server.addr()).expect("connect");
        let mut reader = BufReader::new(stream);
        // send nothing: the server must hang up after idle_timeout
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read to eof");
        assert_eq!(n, 0, "server should close the idle connection, got {line:?}");
        assert_eq!(engine.stats().idle_closed.get(), 1);
        server.shutdown();
    }

    #[test]
    fn connection_cap_sheds_with_err_too_many_connections() {
        let _fp = failpoint::shared();
        let engine = test_engine();
        let mut server = serve(
            Arc::clone(&engine),
            ServerConfig {
                workers: 1,
                max_connections: 1,
                idle_timeout: Duration::from_millis(500),
                ..ServerConfig::default()
            },
        )
        .expect("serve");
        let addr = server.addr();
        // occupy the single admitted slot with a held-open idle connection
        let wedge = TcpStream::connect(addr).expect("wedge connect");
        std::thread::sleep(Duration::from_millis(50));
        // the rejection is written (and the socket closed) before any request
        // arrives, so just read — writing could race a broken pipe
        let shed = TcpStream::connect(addr).expect("shed connect");
        let mut reply = String::new();
        BufReader::new(shed).read_line(&mut reply).expect("recv");
        assert_eq!(reply.trim_end(), "ERR too many connections");
        assert!(engine.stats().rejected_conn_limit.get() >= 1);
        drop(wedge);
        // slot released after the wedge closes: service resumes
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(query(addr, "PING"), "OK pong");
        server.shutdown();
    }

    #[test]
    fn proto2_pipelines_tagged_requests_on_one_connection() {
        let _fp = failpoint::shared();
        let engine = test_engine();
        let mut server = serve(
            Arc::clone(&engine),
            ServerConfig { batch_window: Duration::from_millis(2), ..ServerConfig::default() },
        )
        .expect("serve");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();

        writeln!(stream, "PROTO 2").expect("hello");
        reader.read_line(&mut line).expect("hello reply");
        assert_eq!(line.trim_end(), "OK proto=2");

        // eight requests in flight at once, one write: scores, a rank, a
        // ping, and one bad relation — every reply must carry its tag
        let mut pipelined = String::new();
        for tag in 0..5u64 {
            pipelined.push_str(&format!("ID {tag} SCORE {} 1 2\n", tag % 3));
        }
        pipelined.push_str("ID 5 RANK 0 1 2\n");
        pipelined.push_str("ID 6 PING\n");
        pipelined.push_str("ID 7 SCORE 0 9 1\n");
        stream.write_all(pipelined.as_bytes()).expect("pipeline");

        let mut replies = std::collections::HashMap::new();
        for _ in 0..8 {
            line.clear();
            reader.read_line(&mut line).expect("reply");
            let (tag, rest) = crate::protocol::parse_tagged(line.trim_end()).expect("tagged");
            assert!(replies.insert(tag, rest.to_string()).is_none(), "duplicate tag {tag}");
        }
        for tag in 0..5u64 {
            let direct = engine.score(Triple::new((tag % 3) as u32, 1u32, 2u32)).unwrap();
            assert_eq!(replies[&tag], format!("OK {direct}"), "tag {tag}");
        }
        assert!(replies[&5].starts_with("OK "), "{}", replies[&5]);
        assert_eq!(replies[&6], "OK pong");
        assert_eq!(replies[&7], "ERR unknown relation id 9");

        // the concurrent tagged scores coalesced: at least one flush held
        // more than one request
        let max_batch = engine.stats().registry().histogram("serve.batch_size.count").max();
        assert!(max_batch > 1, "pipelined requests should batch, max batch = {max_batch}");

        // an untagged line on a v2 connection gets one untagged ERR frame
        writeln!(stream, "SCORE 0 1 2").expect("untagged");
        line.clear();
        reader.read_line(&mut line).expect("untagged reply");
        assert!(line.starts_with("ERR bad request"), "{line}");
        server.shutdown();
    }

    #[test]
    fn deadline_prefix_parsing() {
        let (budget, rest) = split_deadline("DEADLINE 40 SCORE 0 1 2");
        assert_eq!(budget, Some(Duration::from_millis(40)));
        assert_eq!(rest, "SCORE 0 1 2");
        // no hint, malformed hint, or a hint with nothing after it: the
        // line passes through untouched for the normal parser to judge
        assert_eq!(split_deadline("SCORE 0 1 2"), (None, "SCORE 0 1 2"));
        assert_eq!(split_deadline("DEADLINE x SCORE 0"), (None, "DEADLINE x SCORE 0"));
        assert_eq!(split_deadline("DEADLINE 40"), (None, "DEADLINE 40"));
        assert_eq!(split_deadline("DEADLINES 1 2"), (None, "DEADLINES 1 2"));
    }

    #[test]
    fn v2_deadline_hint_serves_in_time_and_sheds_late_items() {
        let _fp = failpoint::shared();
        let engine = test_engine();
        let mut server = serve(
            Arc::clone(&engine),
            ServerConfig { batch_window: Duration::from_secs(600), ..ServerConfig::default() },
        )
        .expect("serve");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        writeln!(stream, "PROTO 2").expect("hello");
        reader.read_line(&mut line).expect("hello reply");
        assert_eq!(line.trim_end(), "OK proto=2");

        // with a 600 s batch window only the DEADLINE hint can flush this
        // item while the test is alive
        writeln!(stream, "ID 1 DEADLINE 30 SCORE 0 1 2").expect("send");
        line.clear();
        reader.read_line(&mut line).expect("reply");
        let direct = engine.score(Triple::new(0u32, 1u32, 2u32)).unwrap();
        assert_eq!(line.trim_end(), format!("ID 1 OK {direct}"));

        // a zero budget expires before the batcher can collect the item
        writeln!(stream, "ID 2 DEADLINE 0 SCORE 0 1 2").expect("send");
        line.clear();
        reader.read_line(&mut line).expect("reply");
        assert_eq!(line.trim_end(), "ID 2 ERR deadline expired");
        server.shutdown();
    }

    #[test]
    fn proto_rejects_unknown_versions_and_v1_still_serves() {
        let _fp = failpoint::shared();
        let engine = test_engine();
        let mut server = serve(Arc::clone(&engine), ServerConfig::default()).expect("serve");
        let addr = server.addr();
        assert!(query(addr, "PROTO 3").starts_with("ERR bad request"), "only v2 exists");
        // a v1 connection after a rejected upgrade keeps serving untagged
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        for (req, want) in [("PROTO 9", "ERR"), ("PING", "OK pong")] {
            writeln!(stream, "{req}").expect("send");
            line.clear();
            reader.read_line(&mut line).expect("recv");
            assert!(line.starts_with(want), "{req} -> {line}");
        }
        server.shutdown();
    }

    #[test]
    fn batching_disabled_still_serves_v1_and_v2() {
        let _fp = failpoint::shared();
        let engine = test_engine();
        let mut server =
            serve(Arc::clone(&engine), ServerConfig { batching: false, ..ServerConfig::default() })
                .expect("serve");
        let direct = engine.score(Triple::new(0u32, 1u32, 2u32)).unwrap();
        assert_eq!(query(server.addr(), "SCORE 0 1 2"), format!("OK {direct}"));
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        writeln!(stream, "PROTO 2").expect("hello");
        reader.read_line(&mut line).expect("hello reply");
        assert_eq!(line.trim_end(), "OK proto=2");
        writeln!(stream, "ID 3 SCORE 0 1 2").expect("send");
        line.clear();
        reader.read_line(&mut line).expect("recv");
        assert_eq!(line.trim_end(), format!("ID 3 OK {direct}"));
        server.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_unblocks_threads() {
        let _fp = failpoint::shared();
        let mut server = serve(test_engine(), ServerConfig::default()).expect("serve");
        server.shutdown();
        server.shutdown();
        assert!(server.threads.is_empty());
    }
}
