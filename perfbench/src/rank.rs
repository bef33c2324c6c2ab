//! `rank_routed`: `RANK h r 10` through `serve_router` to two shard replicas
//! over every entity of the `TE(fully)` test graph.
//!
//! Each request fans out to 1,735 cold candidates that share one head; the
//! query pool is wide enough that the working set far exceeds the subgraph
//! cache, so extraction, the empty-subgraph forward (h⁰ + NE), router
//! fan-out and merge, and shard wire bytes do most of the work.

use crate::common::{
    bundle_round_trip, dataset_and_model, nproc, out_dir, timed_setups, us, RunResult, OPEN_SHARE,
};
use crate::gen::{rank_line, rank_pool, replay_sample};
use crate::layers::Layers;
use crate::openloop::{check_phases, measure, Load, Serving};
use crate::replay::Leaves;
use crate::stats::{median, percentile};
use crate::trace::{Replay, SelfTable, Tracer};
use crate::Args;
use rmpi_client::{ClientConfig, Session};
use rmpi_core::{Mode, RmpiModel};
use rmpi_kg::{CsrGraph, EntityId, KnowledgeGraph, RelationId, Triple};
use rmpi_obs::MetricsRegistry;
use rmpi_router::{merge_ranked, serve_router, shard_slices, Router, RouterConfig, RouterHandle};
use rmpi_serve::protocol::format_ranked;
use rmpi_serve::{serve, Engine, EngineConfig, ServerConfig, ServerHandle};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Shard replicas behind the router.
const SHARDS: usize = 2;
/// Top-k asked for.
const K: usize = 10;
/// Distinct queries a run cycles through, one per head-degree stratum: every
/// open-loop request asks a different query, so a run's percentiles rest on
/// 105 queries, not on which few a seed happened to draw, and a query, which
/// leaves ~870 samples per shard in a 4,096-entry cache, is evicted long
/// before it recurs.
const POOL: usize = 128;
/// Offered open-loop rate, RANK/s: about 40% of what two cores sustain at
/// the seed commit — low enough that queueing behind the hardest queries
/// does not multiply the host's own jitter, high enough for 105 samples.
pub const RATE: f64 = 5.0;
/// Closed-loop connections (`nproc` on the seed host).
const CONNS: usize = 2;
/// Requests pipelined per closed-loop connection: the server always has the
/// next request queued, so the rate measures capacity, not client turnaround.
const DEPTH: usize = 4;
/// The closed loop's rate is the median over this many equal windows: about
/// 36 RANKs each, and one burst of host noise moves at most one of them.
const THROUGHPUT_WINDOWS: usize = 3;
/// Traced run: fan-out-only replays (shard calls and merge), enough shard
/// calls for a p90 with ten samples beyond it.
const FAN_REPLAYS: usize = 50;
/// Traced run: full top-down replays, down to every candidate's forward.
const CHAIN_REPLAYS: usize = 8;
/// Traced run: how often each layer of a top-down replay is called; the
/// median stands for the request, which keeps the thin layers' self times
/// (small differences of large numbers) out of the run-to-run noise.
const LAYER_REPS: usize = 3;
/// Traced run: every n-th candidate is also extracted and transformed alone.
const DETAIL_EVERY: usize = 8;

/// Two replicas, the router and its front end, plus what the checks need.
pub(crate) struct Fleet {
    model: RmpiModel,
    graph: KnowledgeGraph,
    targets: Vec<Triple>,
    engines: Vec<Arc<Engine>>,
    servers: Vec<ServerHandle>,
    router: Arc<Router>,
    front: RouterHandle,
    candidates: Vec<u32>,
}

/// The set-up's warm-up query: fixed, so every seed's set-up does the same
/// work, and excluded from the measured pool.
fn warmup_query(targets: &[Triple]) -> (u32, u32) {
    (targets[0].head.0, targets[0].relation.0)
}

/// The run's query pool, stratified by the head's degree in the test graph.
fn query_pool(fleet: &Fleet, seed: u64) -> Vec<(u32, u32)> {
    rank_pool(&fleet.targets, POOL, seed, warmup_query(&fleet.targets), |h| {
        fleet.graph.degree(EntityId(h))
    })
}

pub(crate) fn build() -> Fleet {
    let (bench, model) = dataset_and_model();
    let model = bundle_round_trip(&model, &out_dir());
    let test = bench.test(crate::common::TEST_SPLIT).expect("TE(fully) split");
    let graph = test.graph.clone();
    let per_shard = (nproc() / SHARDS).max(1);
    let engines: Vec<Arc<Engine>> = (0..SHARDS)
        .map(|_| {
            Arc::new(Engine::with_registry(
                model.clone(),
                graph.clone(),
                EngineConfig::default().with_threads(per_shard),
                Arc::new(MetricsRegistry::new()),
            ))
        })
        .collect();
    let servers: Vec<ServerHandle> = engines
        .iter()
        .map(|e| serve(Arc::clone(e), ServerConfig::default()).expect("shard replica"))
        .collect();
    let candidates: Vec<u32> = graph.present_entities().iter().map(|e| e.0).collect();
    let cfg = RouterConfig::new(servers.iter().map(|s| s.addr()).collect(), candidates.clone());
    let router = Arc::new(Router::with_registry(cfg, Arc::new(MetricsRegistry::new())));
    let front = serve_router(Arc::clone(&router)).expect("router front end");
    // warm-up: sessions, shard histograms and lazy statics, with a fixed
    // query that the pool never draws
    let session =
        Session::connect(front.addr(), &ClientConfig::default()).expect("warm-up session");
    session.request(&rank_line(warmup_query(&test.targets), K)).expect("warm-up RANK");
    drop(session);
    Fleet {
        model,
        graph,
        targets: test.targets.clone(),
        engines,
        servers,
        router,
        front,
        candidates,
    }
}

pub fn run(args: &Args) -> RunResult {
    let (fleet, setups) = timed_setups(args, "rank_routed", build);
    let tracer = Tracer::new(args.trace);
    let pool = query_pool(&fleet, args.seed);
    let open_secs = args.seconds * OPEN_SHARE;
    let n_open = (RATE * open_secs).round().max(1.0) as usize;
    let lines: Vec<String> = (0..n_open).map(|i| rank_line(pool[i % pool.len()], K)).collect();
    let next = |i: usize| rank_line(pool[(n_open + i) % pool.len()], K);
    let load = Load {
        addr: fleet.front.addr(),
        open: &lines,
        rate: RATE,
        closed: Duration::from_secs_f64(args.seconds - open_secs),
        conns: CONNS,
        depth: DEPTH,
        next: &next,
    };
    let m = measure(&load, &tracer, &|| Serving::read(&fleet.engines, Some(&fleet.router)));

    // output checks: every routed top-k against an in-process reference
    // engine over the same bundle, byte for byte
    let reference = Engine::with_registry(
        fleet.model.clone(),
        fleet.graph.clone(),
        EngineConfig::default().with_threads(nproc()),
        Arc::new(MetricsRegistry::new()),
    );
    let expected: HashMap<(u32, u32), String> = pool
        .iter()
        .map(|&(h, r)| {
            let ranked =
                reference.rank_tails(EntityId(h), RelationId(r), K).expect("reference rank");
            ((h, r), format_ranked(&ranked))
        })
        .collect();
    drop(reference);
    let checked = check_phases(&m.sent, &m.closed, THROUGHPUT_WINDOWS, &|i| {
        expected[&pool[i % pool.len()]].clone()
    });

    println!(
        "workload rank_routed seed={} seconds={} rate={RATE}/s shards={SHARDS} candidates={} pool={} closed loop: {DEPTH} pipelined on each of {CONNS} connections",
        args.seed,
        args.seconds,
        fleet.candidates.len(),
        pool.len()
    );
    let mut result = m.report(&checked, &setups, load.closed, 1.0, "ranks");
    if args.trace {
        let mut layers = m.layers(&checked);
        trace_replay(&fleet, &pool, args.seed, &tracer, &mut layers);
        crate::write_spans(&tracer, "rank_routed", args.seed);
        result.metrics = layers.metrics();
    }
    result
}

/// A shard session per replica, used by the replay to call shards directly.
fn shard_sessions(fleet: &Fleet) -> Vec<Session> {
    fleet
        .servers
        .iter()
        .map(|s| Session::connect(s.addr(), &ClientConfig::default()).expect("shard session"))
        .collect()
}

fn clear_caches(fleet: &Fleet) {
    for e in &fleet.engines {
        e.clear_cache();
    }
}

/// Score each slice on its own shard concurrently, as the router does (a
/// `DEADLINE`-hinted `SCORE` carrying the router's end-to-end budget);
/// returns each call's time (µs) and scores, and the request + reply payload
/// bytes of all slices.
fn call_shards(
    sessions: &[Session],
    budget: Duration,
    slices: &[Vec<(u32, u32, u32)>],
    tracer: &Tracer,
    request: u64,
    parent: Option<usize>,
) -> (Vec<(f64, Vec<f32>, usize)>, u64) {
    let calls: Vec<(f64, Vec<f32>, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter()
            .zip(slices)
            .map(|(session, slice)| {
                scope.spawn(move || {
                    let (scores, d, id) =
                        tracer.time("session.score_batch", request, parent, || {
                            session.score_batch_deadline(slice, budget)
                        });
                    (us(d), scores.expect("shard call"), id)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("shard call thread")).collect()
    });
    let mut bytes = 0u64;
    for (slice, (_, scores, _)) in slices.iter().zip(&calls) {
        let request_line: usize = "SCORE".len()
            + slice.iter().map(|(h, r, t)| format!(" {h} {r} {t}").len()).sum::<usize>();
        let reply_line: usize =
            "OK".len() + scores.iter().map(|s| 1 + s.to_string().len()).sum::<usize>();
        bytes += (request_line + 1 + reply_line + 1) as u64;
    }
    (calls, bytes)
}

/// Replay a seeded sample of queries layer by layer: the fan-out alone many
/// times, then the whole stack top-down a few times.
fn trace_replay(
    fleet: &Fleet,
    pool: &[(u32, u32)],
    seed: u64,
    tracer: &Tracer,
    layers: &mut Layers,
) {
    let sessions = shard_sessions(fleet);
    let front =
        Session::connect(fleet.front.addr(), &ClientConfig::default()).expect("front session");
    let csr = CsrGraph::from_graph(&fleet.graph);
    let budget = fleet.router.config().deadline;
    let slices_of = |(h, r): (u32, u32)| -> Vec<Vec<(u32, u32, u32)>> {
        shard_slices(&fleet.candidates, SHARDS)
            .iter()
            .map(|s| s.iter().map(|&t| (h, r, t)).collect())
            .collect()
    };
    let mut shard_calls: Vec<f64> = Vec::new();
    let mut skews: Vec<f64> = Vec::new();
    let mut merges: Vec<f64> = Vec::new();
    let mut wire: Vec<f64> = Vec::new();
    for j in 0..FAN_REPLAYS {
        let q = pool[j % pool.len()];
        let request = 1_000_000 + j as u64;
        let slices = slices_of(q);
        clear_caches(fleet);
        let (calls, bytes) = call_shards(&sessions, budget, &slices, tracer, request, None);
        let t: Vec<f64> = calls.iter().map(|c| c.0).collect();
        shard_calls.extend(&t);
        skews.push(
            t.iter().copied().fold(f64::MIN, f64::max) - t.iter().copied().fold(f64::MAX, f64::min),
        );
        wire.push(bytes as f64);
        let entries: Vec<(u32, f32)> = slices
            .iter()
            .zip(&calls)
            .flat_map(|(slice, c)| slice.iter().map(|&(_, _, t)| t).zip(c.1.iter().copied()))
            .collect();
        let (_, d, _) =
            tracer.time("router.merge_ranked", request, None, || merge_ranked(entries, K));
        merges.push(us(d));
    }

    let mut routers: Vec<f64> = Vec::new();
    let mut clients: Vec<f64> = Vec::new();
    let mut fronts: Vec<f64> = Vec::new();
    let mut per_target: Vec<f64> = Vec::new();
    let mut leaves = Leaves::default();
    let mut table = SelfTable::default();
    let per_shard = (nproc() / SHARDS).max(1) as f64;
    let model = &fleet.model;
    for (n, &i) in replay_sample(pool.len(), CHAIN_REPLAYS, seed).iter().enumerate() {
        let q = pool[i];
        let request = n as u64;
        let slices = slices_of(q);
        let triples: Vec<Vec<Triple>> = slices
            .iter()
            .map(|s| s.iter().map(|&(h, r, t)| Triple::new(h, r, t)).collect())
            .collect();
        // each layer runs LAYER_REPS times from a cold cache; its median
        // stands for the request
        let (mut full, mut router) = (Vec::new(), Vec::new());
        let mut call_t: Vec<Vec<f64>> = vec![Vec::new(); SHARDS];
        let mut engine_t: Vec<Vec<f64>> = vec![Vec::new(); SHARDS];
        let mut served: Vec<Vec<f32>> = Vec::new();
        let mut engine_spans: Vec<Option<usize>> = vec![None; SHARDS];
        for _ in 0..LAYER_REPS {
            clear_caches(fleet);
            let (reply, d, root) =
                tracer.time("client.request", request, None, || front.request(&rank_line(q, K)));
            reply.expect("replayed RANK");
            full.push(us(d));
            clear_caches(fleet);
            let (ranked, d, router_span) =
                tracer.time("router.rank", request, Some(root), || fleet.router.rank(q.0, q.1, K));
            ranked.expect("replayed Router::rank");
            router.push(us(d));
            clear_caches(fleet);
            let (calls, _) =
                call_shards(&sessions, budget, &slices, tracer, request, Some(router_span));
            // the engines run one after the other on this long-lived thread:
            // a fresh thread per call would pay for cold allocator arenas the
            // replicas' own threads no longer pay for
            let engines: Vec<(f64, usize)> = (0..SHARDS)
                .map(|j| {
                    clear_caches(fleet);
                    let (scores, d, id) =
                        tracer.time("engine.score_batch", request, Some(calls[j].2), || {
                            fleet.engines[j].score_batch(&triples[j])
                        });
                    let scores = scores.expect("replayed Engine::score_batch");
                    assert_eq!(
                        scores, calls[j].1,
                        "in-process scores equal the shard's wire scores"
                    );
                    (us(d), id)
                })
                .collect();
            for j in 0..SHARDS {
                call_t[j].push(calls[j].0);
                engine_t[j].push(engines[j].0);
                engine_spans[j].get_or_insert(engines[j].1);
            }
            shard_calls.extend(calls.iter().map(|c| c.0));
            served = calls.into_iter().map(|c| c.1).collect();
        }
        let mut branches = Vec::with_capacity(SHARDS);
        for j in 0..SHARDS {
            let prepare = |t: Triple| model.prepare_eval_sample(&csr, t, 0);
            let (leaf_sum, scores) = leaves.run(
                model,
                &csr,
                &triples[j],
                Mode::Eval,
                &prepare,
                DETAIL_EVERY,
                tracer,
                request,
                engine_spans[j],
            );
            assert_eq!(scores, served[j], "replayed forward passes equal the served scores");
            let (call, engine) = (median(&call_t[j]), median(&engine_t[j]));
            fronts.push(call - engine);
            per_target.push(engine / triples[j].len() as f64);
            branches.push(vec![
                ("serve.front", call),
                ("serve.engine", engine),
                ("subgraph+core", leaf_sum / per_shard),
            ]);
        }
        clients.push(median(&full));
        routers.push(median(&router));
        table.add(&Replay {
            top: vec![("client+router.front", median(&full)), ("router", median(&router))],
            branches,
        });
    }
    skews.extend_from_slice(table.skews());

    layers.client_rtt_us_p50 = median(&clients);
    layers.router_rank_us_p50 = median(&routers);
    layers.router_shard_call_us_p50 = percentile(&shard_calls, 0.50);
    layers.router_shard_call_us_p90 = percentile(&shard_calls, 0.90);
    layers.router_shard_skew_us_p50 = median(&skews);
    layers.router_merge_us_p50 = median(&merges);
    layers.router_wire_bytes_per_op = crate::stats::mean(&wire);
    layers.serve_front_us_p50 = median(&fronts);
    layers.serve_engine_us_per_target = median(&per_target);
    layers.subgraph_prepare_us_p50 = median(&leaves.prepare);
    layers.subgraph_extract_us_p50 = median(&leaves.extract);
    layers.subgraph_relview_us_p50 = median(&leaves.relview);
    layers.subgraph_empty_share = leaves.empty as f64 / leaves.count() as f64;
    layers.core_forward_us_p50 = median(&leaves.forward);
    layers.trace_unaccounted_share = table.unaccounted_share();
    println!("  replay: {FAN_REPLAYS} fan-out replays, {CHAIN_REPLAYS} top-down replays, {} candidates, {} shard calls", leaves.count(), shard_calls.len());
    table.print();
}
