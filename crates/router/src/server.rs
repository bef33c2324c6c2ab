//! The router's TCP front end: the same v1/v2 line protocol the backends
//! speak, so existing clients (including `rmpi-client` itself) point at the
//! router unmodified.
//!
//! Verbs:
//!
//! ```text
//! PING                         -> OK pong
//! SCORE h r t [h r t ...]      -> pass-through to a backend with failover
//! RANK h r k                   -> scatter-gather over the shards:
//!                                 OK tail:score ...                (full)
//!                                 OK partial <covered>/<total> tail:score ...
//! HEALTH                       -> OK healthy shards=N | OK degraded ... | ERR
//! STATS                        -> OK {router counters}
//! METRICS                      -> OK {full registry dump}
//! PROTO 2                      -> OK proto=2 (connection switches to v2)
//! ```
//!
//! In v2, requests carry `ID <n>` tags (echoed on responses) and may prefix
//! the inner request with `DEADLINE <ms>`: on `RANK` the hint caps the
//! router's end-to-end budget; on `SCORE` it anchors an absolute deadline
//! at arrival, and each upstream forward (failover retries included)
//! carries only the *remaining* budget so the backend batcher sheds late
//! work on the caller's clock. The front end answers a connection's
//! requests in order — in-order delivery is a valid v2 implementation, and
//! pipelined clients still keep many requests in flight.
//!
//! Request lines are capped at 64 KiB, the replicas' default: an overlong
//! line is answered `ERR request too long` and the connection is closed, so
//! a peer that never sends a newline cannot make the router buffer without
//! bound.

use crate::router::{RankOutcome, Router};
use rmpi_client::{BreakerState, ClientError, FailoverClient, FailoverConfig, ProtocolClient};
use rmpi_obs::MetricsRegistry;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The longest request line the front end accepts, terminator excluded.
const MAX_LINE_LEN: usize = 64 * 1024;

/// A running router front end; shuts down on [`RouterHandle::shutdown`] or
/// drop.
pub struct RouterHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl RouterHandle {
    /// The address the front end listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept loop. Connection handlers exit
    /// when their client disconnects.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // unblock the accept loop
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Recipe for a connection's private `SCORE` pass-through client: endpoints
/// and tuning, instantiated per connection so one stalled upstream exchange
/// never serializes other connections' `SCORE`s (metrics still aggregate in
/// the shared registry).
struct PassthroughSpec {
    endpoints: Vec<SocketAddr>,
    cfg: FailoverConfig,
    registry: Arc<MetricsRegistry>,
}

impl PassthroughSpec {
    fn build(&self) -> FailoverClient {
        FailoverClient::with_registry(
            self.endpoints.clone(),
            self.cfg.clone(),
            Arc::clone(&self.registry),
        )
    }
}

/// Serve `router` on an ephemeral localhost port. The `SCORE` pass-through
/// rides a per-connection [`FailoverClient`] over the shards (standby
/// last), recording into the router's registry.
pub fn serve_router(router: Arc<Router>) -> io::Result<RouterHandle> {
    let cfg = router.config();
    let spec = Arc::new(PassthroughSpec {
        endpoints: cfg.shards.iter().copied().chain(cfg.standby).collect(),
        cfg: FailoverConfig { client: cfg.client.clone(), breaker: cfg.breaker.clone() },
        registry: Arc::clone(router.registry()),
    });
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = Arc::clone(&stop);
    let accept =
        std::thread::Builder::new().name("rmpi-router-accept".into()).spawn(move || {
            for conn in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    return;
                }
                let Ok(stream) = conn else { continue };
                let router = Arc::clone(&router);
                let spec = Arc::clone(&spec);
                std::thread::spawn(move || handle_conn(router, &spec, stream));
            }
        })?;
    Ok(RouterHandle { addr, stop, accept: Some(accept) })
}

fn handle_conn(router: Arc<Router>, spec: &PassthroughSpec, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut out = stream;
    let mut passthrough = spec.build();
    let mut v2 = false;
    let mut line = String::new();
    loop {
        line.clear();
        // one byte past the cap (plus the newline) tells an overlong line
        // from one that exactly fits
        match (&mut reader).take(MAX_LINE_LEN as u64 + 1).read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(n) if n > MAX_LINE_LEN && !line.ends_with('\n') => {
                let _ = writeln!(out, "ERR request too long (over {MAX_LINE_LEN} bytes)");
                // FIN after the answer, then drain what is still in flight:
                // closing with unread input would send a reset instead
                let _ = out.shutdown(Shutdown::Write);
                let _ = out.set_read_timeout(Some(Duration::from_millis(200)));
                let _ = io::copy(&mut reader.take(MAX_LINE_LEN as u64), &mut io::sink());
                return;
            }
            Ok(_) => {}
        }
        // a DEADLINE hint's budget is spent from the moment the request
        // arrived, not from when an upstream forward happens to go out
        let arrival = Instant::now();
        let trimmed = line.trim();
        let response = if v2 {
            handle_v2_line(&router, &mut passthrough, trimmed, arrival)
        } else if trimmed == "PROTO 2" {
            v2 = true;
            "OK proto=2".to_owned()
        } else {
            dispatch(&router, &mut passthrough, trimmed, None)
        };
        if writeln!(out, "{response}").is_err() {
            return;
        }
    }
}

/// Split a v2 line `ID <n> <request...>` into tag and inner request.
fn split_tag(line: &str) -> Option<(u64, &str)> {
    let rest = line.strip_prefix("ID")?;
    if !rest.starts_with(|c: char| c.is_ascii_whitespace()) {
        return None;
    }
    let rest = rest.trim_start();
    let (tag, inner) = rest.split_once(|c: char| c.is_ascii_whitespace())?;
    let inner = inner.trim();
    if inner.is_empty() {
        return None;
    }
    Some((tag.parse().ok()?, inner))
}

/// Split an optional `DEADLINE <ms> ` prefix off an inner request. A
/// malformed hint is left in place for the normal parser to reject.
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

fn handle_v2_line(
    router: &Router,
    passthrough: &mut FailoverClient,
    line: &str,
    arrival: Instant,
) -> String {
    match split_tag(line) {
        Some((tag, inner)) => {
            let response = dispatch_with_deadline(router, passthrough, inner, arrival);
            format!("ID {tag} {response}")
        }
        // untagged: not attributable, answered bare exactly like a backend
        None => "ERR bad request: protocol v2 requests start with `ID <n>`".to_owned(),
    }
}

/// Strip a `DEADLINE` hint and dispatch. A hinted `SCORE` becomes an
/// absolute deadline anchored at the request's arrival: the pass-through
/// re-derives the *remaining* budget at every upstream forward (failover
/// retries included), so a backend serving a retry is never re-granted the
/// caller's original budget. `RANK` converts the hint into the router's
/// end-to-end budget.
fn dispatch_with_deadline(
    router: &Router,
    passthrough: &mut FailoverClient,
    inner: &str,
    arrival: Instant,
) -> String {
    let (budget, stripped) = split_deadline(inner);
    if stripped.split_whitespace().next() == Some("SCORE") {
        return match budget {
            Some(budget) => {
                score_response(passthrough.request_line_deadline(stripped, true, arrival + budget))
            }
            None => handle_score(passthrough, stripped),
        };
    }
    dispatch(router, passthrough, stripped, budget)
}

fn dispatch(
    router: &Router,
    passthrough: &mut FailoverClient,
    line: &str,
    budget: Option<Duration>,
) -> String {
    let Some(verb) = line.split_whitespace().next() else {
        return "ERR bad request: empty request".to_owned();
    };
    match verb {
        "PING" => "OK pong".to_owned(),
        "HEALTH" => health_response(router),
        "STATS" => format!("OK {}", router.stats_json()),
        "METRICS" => format!("OK {}", router.registry().to_json()),
        "SCORE" => handle_score(passthrough, line),
        "RANK" => handle_rank(router, line, budget),
        "PROTO" => {
            // only reachable inside a v2 stream (v1 negotiation is handled
            // by the connection loop): renegotiating the same version is
            // harmlessly idempotent, anything else is a bad request
            if line == "PROTO 2" {
                "OK proto=2".to_owned()
            } else {
                "ERR bad request: only protocol version 2 is supported".to_owned()
            }
        }
        other => format!("ERR bad request: unknown command {other:?}"),
    }
}

fn handle_score(passthrough: &mut FailoverClient, line: &str) -> String {
    score_response(passthrough.request_line(line, true))
}

fn score_response(result: Result<String, ClientError>) -> String {
    match result {
        Ok(payload) if payload.is_empty() => "OK".to_owned(),
        Ok(payload) => format!("OK {payload}"),
        // a definitive backend rejection passes through verbatim
        Err(ClientError::Server { message, .. }) => format!("ERR {message}"),
        Err(e) => format!("ERR router upstream: {e}"),
    }
}

fn handle_rank(router: &Router, line: &str, budget: Option<Duration>) -> String {
    let mut parts = line.split_whitespace();
    parts.next(); // RANK
    let (Some(h), Some(r), Some(k), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return "ERR bad request: RANK takes exactly head, relation, k".to_owned();
    };
    let (Ok(h), Ok(r), Ok(k)) = (h.parse::<u32>(), r.parse::<u32>(), k.parse::<usize>()) else {
        return "ERR bad request: RANK takes numeric head, relation, k".to_owned();
    };
    let cap = router.config().deadline;
    let budget = budget.map_or(cap, |b| b.min(cap));
    match router.rank_deadline(h, r, k, budget) {
        Ok(outcome) => format_rank(&outcome),
        Err(e) => format!("ERR {e}"),
    }
}

/// `OK [partial <covered>/<total>] tail:score ...`, scores in the same
/// shortest-round-trip `f32` formatting the backends use — a full response
/// is byte-identical to one backend ranking the whole candidate set.
fn format_rank(outcome: &RankOutcome) -> String {
    let mut out = String::from("OK");
    if outcome.is_partial() {
        out.push_str(&format!(" partial {}/{}", outcome.covered, outcome.total));
    }
    for (tail, score) in &outcome.ranked {
        out.push_str(&format!(" {tail}:{score}"));
    }
    out
}

fn health_response(router: &Router) -> String {
    let states = router.shard_breaker_states();
    let n = states.len();
    let open = states.iter().filter(|s| **s != BreakerState::Closed).count();
    if open == 0 {
        format!("OK healthy shards={n} candidates={}", router.config().candidates.len())
    } else if open < n || router.has_standby() {
        format!("OK degraded shards={n} open={open}")
    } else {
        "ERR no healthy shards".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::RouterConfig;
    use rmpi_client::{ClientConfig, Session};
    use rmpi_core::{RmpiConfig, RmpiModel};
    use rmpi_kg::{KnowledgeGraph, Triple};
    use rmpi_obs::MetricsRegistry;
    use rmpi_serve::{serve, Engine, EngineConfig, ServerConfig, ServerHandle};

    /// Entities 0..8 over 4 relations — small enough to score offline.
    fn test_engine() -> Arc<Engine> {
        let graph = KnowledgeGraph::from_triples(vec![
            Triple::new(0u32, 0u32, 1u32),
            Triple::new(1u32, 1u32, 2u32),
            Triple::new(2u32, 2u32, 3u32),
            Triple::new(3u32, 3u32, 4u32),
            Triple::new(4u32, 0u32, 5u32),
            Triple::new(5u32, 1u32, 6u32),
            Triple::new(6u32, 2u32, 7u32),
            Triple::new(7u32, 3u32, 0u32),
            Triple::new(0u32, 1u32, 3u32),
            Triple::new(2u32, 0u32, 6u32),
        ]);
        let model = RmpiModel::new(RmpiConfig { dim: 8, ..RmpiConfig::base() }, 4, 0);
        Arc::new(Engine::new(
            model,
            graph,
            EngineConfig::default().with_seed(7).with_cache_capacity(64).with_threads(1),
        ))
    }

    fn replica(engine: &Arc<Engine>) -> ServerHandle {
        serve(Arc::clone(engine), ServerConfig::default()).expect("replica")
    }

    fn candidates() -> Vec<u32> {
        (0..8).collect()
    }

    /// The reference: score every candidate offline and order with the
    /// engine's comparator.
    fn offline_rank(engine: &Engine, head: u32, relation: u32, k: usize) -> Vec<(u32, f32)> {
        let cands = candidates();
        let triples: Vec<Triple> = cands.iter().map(|&t| Triple::new(head, relation, t)).collect();
        let scores = engine.score_batch(&triples).expect("offline scores");
        crate::merge::merge_ranked(cands.into_iter().zip(scores).collect(), k)
    }

    fn router_over(replicas: &[&ServerHandle]) -> Arc<Router> {
        let cfg = RouterConfig::new(replicas.iter().map(|r| r.addr()).collect(), candidates());
        Arc::new(Router::with_registry(cfg, Arc::new(MetricsRegistry::new())))
    }

    fn query(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
        writeln!(stream, "{line}").expect("send");
        let mut response = String::new();
        reader.read_line(&mut response).expect("recv");
        assert!(response.ends_with('\n'), "complete frame");
        response.trim_end().to_owned()
    }

    fn connect(handle: &RouterHandle) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        (stream, reader)
    }

    #[test]
    fn front_end_serves_the_cheap_verbs_and_rejects_malformed_requests() {
        let engine = test_engine();
        let (a, b) = (replica(&engine), replica(&engine));
        let mut handle = serve_router(router_over(&[&a, &b])).expect("router");
        let (mut stream, mut reader) = connect(&handle);
        assert_eq!(query(&mut stream, &mut reader, "PING"), "OK pong");
        assert_eq!(query(&mut stream, &mut reader, "HEALTH"), "OK healthy shards=2 candidates=8");
        let stats = query(&mut stream, &mut reader, "STATS");
        assert!(stats.starts_with("OK {"), "{stats}");
        for field in ["\"requests\"", "\"shard_errors\"", "\"hedges\"", "\"partial_responses\""] {
            assert!(stats.contains(field), "STATS lost {field}: {stats}");
        }
        let metrics = query(&mut stream, &mut reader, "METRICS");
        assert!(metrics.contains("\"router.requests.count\""), "{metrics}");
        for bad in ["", "FROB", "RANK 1 2", "RANK 1 2 3 4", "RANK x 2 3"] {
            let resp = query(&mut stream, &mut reader, bad);
            assert!(resp.starts_with("ERR bad request"), "{bad:?} -> {resp}");
        }
        handle.shutdown();
    }

    #[test]
    fn score_passes_through_bit_identical_and_echoes_backend_rejections() {
        let engine = test_engine();
        let (a, b) = (replica(&engine), replica(&engine));
        let mut handle = serve_router(router_over(&[&a, &b])).expect("router");
        let (mut stream, mut reader) = connect(&handle);
        let resp = query(&mut stream, &mut reader, "SCORE 0 0 1 2 2 3");
        let offline = engine
            .score_batch(&[Triple::new(0u32, 0u32, 1u32), Triple::new(2u32, 2u32, 3u32)])
            .unwrap();
        let expected = format!("OK {} {}", offline[0], offline[1]);
        assert_eq!(resp, expected, "pass-through must not perturb a single bit");
        // a definitive backend rejection comes back verbatim
        let resp = query(&mut stream, &mut reader, "SCORE 0 99 1");
        assert!(resp.starts_with("ERR unknown relation"), "{resp}");
        handle.shutdown();
    }

    #[test]
    fn routed_rank_over_the_wire_matches_the_offline_reference() {
        let engine = test_engine();
        let (a, b, c) = (replica(&engine), replica(&engine), replica(&engine));
        let mut handle = serve_router(router_over(&[&a, &b, &c])).expect("router");
        let (mut stream, mut reader) = connect(&handle);
        let resp = query(&mut stream, &mut reader, "RANK 0 0 5");
        let mut expected = String::from("OK");
        for (t, s) in offline_rank(&engine, 0, 0, 5) {
            expected.push_str(&format!(" {t}:{s}"));
        }
        assert_eq!(resp, expected, "full routed rank is byte-identical to offline");
        handle.shutdown();
    }

    #[test]
    fn the_standard_client_stack_speaks_v2_to_the_router_unmodified() {
        let engine = test_engine();
        let (a, b) = (replica(&engine), replica(&engine));
        let mut handle = serve_router(router_over(&[&a, &b])).expect("router");
        let cfg = ClientConfig::default();
        // connect succeeds only on an `OK proto=2` hello
        let session = Session::connect(handle.addr(), &cfg).expect("session");
        let offline = engine.score_batch(&[Triple::new(1u32, 1u32, 2u32)]).unwrap();
        assert_eq!(session.score(1, 1, 2).expect("score via router"), offline[0]);
        let ranked = session.rank_tails(0, 0, 4).expect("rank via router");
        assert_eq!(ranked, offline_rank(&engine, 0, 0, 4));
        // the DEADLINE hint flows through the router to the backends
        let scores = session
            .score_batch_deadline(&[(1, 1, 2)], Duration::from_millis(500))
            .expect("deadline-hinted score");
        assert_eq!(scores[0], offline[0]);
        session.ping().expect("ping");
        drop(session);
        handle.shutdown();
    }

    #[test]
    fn overlong_line_is_rejected_and_the_router_keeps_serving() {
        let engine = test_engine();
        let a = replica(&engine);
        let mut handle = serve_router(router_over(&[&a])).expect("router");
        let (mut stream, mut reader) = connect(&handle);
        // fail rather than hang should the router wait for a newline
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        // well past what the router buffers before it answers, newline last
        stream.write_all("9".repeat(2 * MAX_LINE_LEN).as_bytes()).expect("send");
        stream.write_all(b"\n").expect("send newline");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("recv");
        assert_eq!(reply, "ERR request too long (over 65536 bytes)\n");
        // a clean close, not a reset, even with input still in flight
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).expect("read to close");
        assert!(rest.is_empty(), "bytes after the rejection: {rest:?}");
        let (mut other, mut other_reader) = connect(&handle);
        assert_eq!(query(&mut other, &mut other_reader, "PING"), "OK pong");
        handle.shutdown();
    }

    #[test]
    fn tag_and_deadline_parsing() {
        assert_eq!(split_tag("ID 7 PING"), Some((7, "PING")));
        assert_eq!(split_tag("ID 7 DEADLINE 30 RANK 0 0 3"), Some((7, "DEADLINE 30 RANK 0 0 3")));
        assert_eq!(split_tag("PING"), None);
        assert_eq!(split_tag("ID x PING"), None);
        assert_eq!(split_tag("ID7 PING"), None);
        assert_eq!(split_tag("ID 7"), None);

        assert_eq!(
            split_deadline("DEADLINE 30 RANK 0 0 3"),
            (Some(Duration::from_millis(30)), "RANK 0 0 3")
        );
        assert_eq!(split_deadline("RANK 0 0 3"), (None, "RANK 0 0 3"));
        assert_eq!(split_deadline("DEADLINE x RANK 0 0 3"), (None, "DEADLINE x RANK 0 0 3"));
        assert_eq!(split_deadline("DEADLINE 30"), (None, "DEADLINE 30"));
        assert_eq!(split_deadline("DEADLINES 30 PING"), (None, "DEADLINES 30 PING"));
    }
}
