//! Edge-under-concurrency load report: the serving benchmark that measures
//! the wire front end instead of the engine.
//!
//! Three phases against one warm engine on this box:
//!
//! 1. **Closed-loop curves** — throughput and p50/p99 latency vs
//!    concurrency for three client modes over a non-batching server:
//!    `oneshot` opens a fresh [`Session`] per request (one connection, and
//!    its handshake, per request), `session` keeps one pipelined session
//!    per thread issuing serial requests, and `pipelined` keeps one session
//!    per thread issuing 16-deep bursts (`score_many`). The headline
//!    numbers are `session_speedup_at_8` and `pipelined_speedup_at_8`:
//!    warm scores/sec at concurrency 8 relative to oneshot — the pipelined
//!    figure is what the multiplexed edge buys.
//! 2. **Open-loop bursts** — concurrent pipelined bursts from 8 sessions
//!    into a *batching* server, then the micro-batcher's own histograms
//!    (`serve.batch_size.count`, `serve.batch_wait.us`) read back as
//!    evidence that cross-connection coalescing actually happens
//!    (`batch_size_mean` > 1).
//! 3. **Fault-rate dimension** — the session-backed retrying [`Client`]
//!    driven through a [`ChaosProxy`] at increasing fault rates, reporting
//!    throughput and success rate as the wire degrades.
//!
//! Writes `BENCH_load.json` in the working directory.
//!
//! ```text
//! cargo run --release -p rmpi-bench --bin bench_load [--smoke]
//! ```
//!
//! `--smoke` shrinks every request count so the whole report runs in a few
//! seconds (used by `scripts/verify.sh` as a wiring check, not a benchmark).

use rmpi_client::{Client, ClientConfig, ProtocolClient, Session};
use rmpi_core::{RmpiConfig, RmpiModel};
use rmpi_datasets::{build_benchmark, Scale};
use rmpi_kg::Triple;
use rmpi_obs::json::{array, JsonObject};
use rmpi_obs::{Histogram, MetricsRegistry};
use rmpi_serve::{serve, Engine, EngineConfig, ServerConfig, ServerHandle};
use rmpi_testutil::chaos::{ChaosConfig, ChaosProxy};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 17;
const CONCURRENCIES: [usize; 4] = [1, 2, 4, 8];
const BURST: usize = 16;
const FAULT_RATES: [f64; 3] = [0.0, 0.15, 0.3];

/// Per-phase request counts, shrunk by `--smoke`.
struct LoadShape {
    /// Closed-loop requests per thread per (mode, concurrency) cell.
    reqs_per_thread: usize,
    /// Pipelined `BURST`-deep bursts per thread in the open-loop phase.
    burst_rounds: usize,
    /// Requests per thread per fault rate in the chaos phase.
    chaos_reqs: usize,
}

fn client_cfg() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_secs(2),
        read_timeout: Duration::from_secs(5),
        ..ClientConfig::default()
    }
}

fn start_server(engine: Arc<Engine>, batching: bool) -> ServerHandle {
    serve(
        engine,
        ServerConfig {
            workers: 12,
            queue_capacity: 64,
            max_connections: 64,
            batching,
            batch_window: Duration::from_millis(1),
            batch_max: 64,
            ..ServerConfig::default()
        },
    )
    .expect("bind load server")
}

/// Run `threads` copies of `body` (each told its thread index) and return
/// the wall-clock seconds for all of them to finish. `body` returns how
/// many scores it produced; the total is accumulated into `done`.
fn run_closed_loop(threads: usize, done: &AtomicU64, body: impl Fn(usize) -> u64 + Sync) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let body = &body;
            let done = &done;
            s.spawn(move || {
                done.fetch_add(body(t), Ordering::Relaxed);
            });
        }
    });
    t0.elapsed().as_secs_f64()
}

/// One closed-loop cell: `reqs` warm scores per thread in `mode` at the
/// given concurrency. Returns a JSON row and the scores/sec rate.
fn closed_loop_cell(
    addr: SocketAddr,
    mode: &str,
    threads: usize,
    reqs: usize,
    triples: &[Triple],
) -> (String, f64) {
    let cfg = client_cfg();
    let latency = Histogram::detached();
    let done = AtomicU64::new(0);
    let secs = run_closed_loop(threads, &done, |t| {
        let mut produced = 0u64;
        match mode {
            "oneshot" => {
                for i in 0..reqs {
                    let q = triples[(t + i) % triples.len()];
                    let r0 = Instant::now();
                    Session::connect(addr, &cfg)
                        .and_then(|session| session.score(q.head.0, q.relation.0, q.tail.0))
                        .expect("oneshot score");
                    latency.record_duration(r0.elapsed());
                    produced += 1;
                }
            }
            "session" => {
                let session = Session::connect(addr, &cfg).expect("connect session");
                for i in 0..reqs {
                    let q = triples[(t + i) % triples.len()];
                    let r0 = Instant::now();
                    session.score(q.head.0, q.relation.0, q.tail.0).expect("session score");
                    latency.record_duration(r0.elapsed());
                    produced += 1;
                }
            }
            "pipelined" => {
                let session = Session::connect(addr, &cfg).expect("connect session");
                for round in 0..reqs.div_ceil(BURST) {
                    let burst: Vec<(u32, u32, u32)> = (0..BURST)
                        .map(|j| {
                            let q = triples[(t + round * BURST + j) % triples.len()];
                            (q.head.0, q.relation.0, q.tail.0)
                        })
                        .collect();
                    let r0 = Instant::now();
                    let scores = session.score_many(&burst).expect("pipelined scores");
                    // burst latency amortised over its scores, so the
                    // percentiles stay comparable across modes
                    let each = r0.elapsed() / BURST as u32;
                    for _ in &scores {
                        latency.record_duration(each);
                    }
                    produced += scores.len() as u64;
                }
            }
            other => panic!("unknown mode {other}"),
        }
        produced
    });
    let rate = done.load(Ordering::Relaxed) as f64 / secs;
    println!(
        "  {mode:<9} c={threads:<2} {rate:9.1} scores/sec  p50 {:>6} us  p99 {:>6} us",
        latency.percentile(0.50),
        latency.percentile(0.99)
    );
    let mut row = JsonObject::new();
    row.field_str("mode", mode);
    row.field_u64("concurrency", threads as u64);
    row.field_u64("requests", done.load(Ordering::Relaxed));
    row.field_f64("scores_per_sec", rate, 1);
    row.field_u64("p50_us", latency.percentile(0.50));
    row.field_u64("p99_us", latency.percentile(0.99));
    (row.finish(), rate)
}

/// Open-loop-style burst storm into the batching server: 8 sessions all
/// keep `BURST` requests in flight, so arrivals overlap across connections
/// and the micro-batcher has company to coalesce.
fn open_loop_phase(
    addr: SocketAddr,
    registry: &Arc<MetricsRegistry>,
    rounds: usize,
    triples: &[Triple],
) -> String {
    registry.reset();
    let done = AtomicU64::new(0);
    let secs = run_closed_loop(8, &done, |t| {
        let session = Session::connect(addr, &client_cfg()).expect("connect session");
        let mut produced = 0u64;
        for round in 0..rounds {
            let burst: Vec<(u32, u32, u32)> = (0..BURST)
                .map(|j| {
                    let q = triples[(t + round * BURST + j) % triples.len()];
                    (q.head.0, q.relation.0, q.tail.0)
                })
                .collect();
            produced += session.score_many(&burst).expect("burst scores").len() as u64;
        }
        produced
    });
    let size = registry.histogram("serve.batch_size.count");
    let wait = registry.histogram("serve.batch_wait.us");
    let mean = if size.count() == 0 { 0.0 } else { size.sum() as f64 / size.count() as f64 };
    let rate = done.load(Ordering::Relaxed) as f64 / secs;
    println!(
        "  open-loop  {rate:9.1} scores/sec  batch mean {mean:.2} (max {}), wait p99 {} us",
        size.max(),
        wait.percentile(0.99)
    );
    assert!(
        mean > 1.0,
        "micro-batcher never coalesced: batch_size mean {mean:.2} over {} flushes",
        size.count()
    );
    let mut row = JsonObject::new();
    row.field_u64("sessions", 8);
    row.field_u64("requests", done.load(Ordering::Relaxed));
    row.field_f64("scores_per_sec", rate, 1);
    row.field_f64("batch_size_mean", mean, 3);
    row.field_u64("batch_size_max", size.max());
    row.field_u64("batches", size.count());
    row.field_raw("batch_wait_us", &wait.summary_json());
    row.finish()
}

/// One fault-rate cell: the retrying session-backed `Client` through a
/// chaos proxy; errors are tolerated and counted, wrong answers are not.
fn chaos_cell(upstream: SocketAddr, fault_rate: f64, reqs: usize, triples: &[Triple]) -> String {
    let mut proxy =
        ChaosProxy::spawn(upstream, ChaosConfig { seed: 99, fault_rate, ..ChaosConfig::default() })
            .expect("spawn chaos proxy");
    let registry = Arc::new(MetricsRegistry::new());
    let ok = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let done = AtomicU64::new(0);
    let secs = run_closed_loop(4, &done, |t| {
        let mut client = Client::with_registry(proxy.addr(), client_cfg(), Arc::clone(&registry));
        for i in 0..reqs {
            let q = triples[(t + i) % triples.len()];
            match client.score(q.head.0, q.relation.0, q.tail.0) {
                Ok(_) => ok.fetch_add(1, Ordering::Relaxed),
                Err(_) => failed.fetch_add(1, Ordering::Relaxed),
            };
        }
        reqs as u64
    });
    let (ok, failed) = (ok.load(Ordering::Relaxed), failed.load(Ordering::Relaxed));
    let success = ok as f64 / (ok + failed) as f64;
    let rate = ok as f64 / secs;
    println!(
        "  fault={fault_rate:<5} {rate:9.1} ok scores/sec  success {:.1}%  retries {}",
        success * 100.0,
        registry.counter("client.retries.count").get()
    );
    let mut row = JsonObject::new();
    row.field_f64("fault_rate", fault_rate, 2);
    row.field_u64("concurrency", 4);
    row.field_u64("ok", ok);
    row.field_u64("failed", failed);
    row.field_f64("success_rate", success, 4);
    row.field_f64("ok_scores_per_sec", rate, 1);
    row.field_u64("retries", registry.counter("client.retries.count").get());
    row.field_u64("sessions_opened", registry.counter("client.sessions.count").get());
    row.field_u64("faults_injected", proxy.stats().faults_injected());
    let out = row.finish();
    proxy.shutdown();
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let shape = if smoke {
        LoadShape { reqs_per_thread: 16, burst_rounds: 6, chaos_reqs: 12 }
    } else {
        LoadShape { reqs_per_thread: 150, burst_rounds: 60, chaos_reqs: 100 }
    };

    let b = build_benchmark("nell.v1", Scale::Quick);
    let test = b.test("TE").expect("TE split");
    // a deliberately small model: the edge benchmark wants the wire and
    // dispatch cost visible, not buried under per-score kernel work
    let model = RmpiModel::new(
        RmpiConfig { dim: 4, num_layers: 1, hop: 1, max_subgraph_edges: 64, ..RmpiConfig::base() },
        b.num_relations(),
        1,
    );
    // a small pool of distinct queries: enough variety to exercise demuxing,
    // few enough that the subgraph cache stays warm after one pass
    let triples: Vec<Triple> = test.targets.iter().copied().take(24).collect();

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "edge load report, {} triples, {cores} core(s){}",
        triples.len(),
        if smoke { ", smoke shape" } else { "" }
    );

    let make_engine = || {
        let engine = Arc::new(Engine::new(
            model.clone(),
            test.graph.clone(),
            EngineConfig { seed: SEED, cache_capacity: 8192, threads: 1 },
        ));
        engine.score_batch(&triples).expect("cache warmup");
        engine
    };

    // phase 1: closed-loop curves over a NON-batching server, so the
    // oneshot/session comparison isolates the connection path (batching
    // would add its coalescing window to both modes equally)
    println!("closed-loop, batching off:");
    let edge_engine = make_engine();
    let mut edge = start_server(Arc::clone(&edge_engine), false);
    let mut curves = Vec::new();
    let mut rate_at = |mode: &str, threads: usize| {
        let (row, rate) =
            closed_loop_cell(edge.addr(), mode, threads, shape.reqs_per_thread, &triples);
        curves.push(row);
        rate
    };
    let mut oneshot_at_8 = 0.0;
    let mut session_at_8 = 0.0;
    let mut pipelined_at_8 = 0.0;
    for mode in ["oneshot", "session", "pipelined"] {
        for threads in CONCURRENCIES {
            let rate = rate_at(mode, threads);
            if threads == 8 {
                match mode {
                    "oneshot" => oneshot_at_8 = rate,
                    "session" => session_at_8 = rate,
                    _ => pipelined_at_8 = rate,
                }
            }
        }
    }
    let session_speedup = session_at_8 / oneshot_at_8;
    let pipelined_speedup = pipelined_at_8 / oneshot_at_8;
    println!(
        "  speedup at c=8 vs oneshot: session {session_speedup:.2}x, \
         pipelined {pipelined_speedup:.2}x"
    );

    // phase 2: open-loop bursts against a BATCHING server; read the
    // batcher's histograms back out of the engine's registry
    println!("open-loop bursts, batching on (window 1ms, budget 64):");
    let batch_engine = make_engine();
    let mut batching = start_server(Arc::clone(&batch_engine), true);
    let open_loop = open_loop_phase(
        batching.addr(),
        &Arc::clone(batch_engine.stats().registry()),
        shape.burst_rounds,
        &triples,
    );
    batching.shutdown();

    // phase 3: the retry stack over sessions as the wire degrades
    println!("fault-rate dimension, retrying client at c=4:");
    let chaos_rows: Vec<String> = FAULT_RATES
        .iter()
        .map(|&rate| chaos_cell(edge.addr(), rate, shape.chaos_reqs, &triples))
        .collect();
    edge.shutdown();

    let mut out = JsonObject::new();
    out.field_str("bench", "load");
    out.field_u64("cores", cores as u64);
    out.field_bool("smoke", smoke);
    out.field_u64("reqs_per_thread", shape.reqs_per_thread as u64);
    out.field_f64("session_speedup_at_8", session_speedup, 3);
    out.field_f64("pipelined_speedup_at_8", pipelined_speedup, 3);
    out.field_raw("closed_loop", &array(&curves));
    out.field_raw("open_loop", &open_loop);
    out.field_raw("fault_dimension", &array(&chaos_rows));
    let json = format!("{}\n", out.finish());
    std::fs::write("BENCH_load.json", &json).expect("write BENCH_load.json");
    println!("wrote BENCH_load.json");
}
