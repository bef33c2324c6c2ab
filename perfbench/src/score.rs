//! `score_hot`: `SCORE` requests of 8 triples drawn from a seeded 2,000-triple
//! hot set (`TE(fully)` positives plus corrupted tails) to one replica.
//!
//! The hot set fits the engine's 4,096-entry subgraph cache and is scored
//! once during set-up, so every measured request is a cache hit: only the
//! forward pass, the micro-batcher and the front end work. Extraction and the
//! router do almost nothing here — this is the bypass workload for head-ball,
//! top-k and router changes, and the main stage for forward, batching and
//! front-end changes.

use crate::common::{
    bundle_round_trip, dataset_and_model, nproc, out_dir, timed_setups, us, RunResult, OPEN_SHARE,
};
use crate::gen::{hot_set, replay_sample, score_line, score_request};
use crate::layers::Layers;
use crate::openloop::{check_phases, measure, Load, Serving};
use crate::replay::Leaves;
use crate::stats::median;
use crate::trace::{Replay, SelfTable, Tracer};
use crate::Args;
use rmpi_client::{ClientConfig, Session};
use rmpi_core::{Mode, RmpiModel};
use rmpi_kg::{CsrGraph, KnowledgeGraph, Triple};
use rmpi_obs::MetricsRegistry;
use rmpi_serve::protocol::format_scores;
use rmpi_serve::{serve, Engine, EngineConfig, ServerConfig, ServerHandle};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Distinct triples in the hot set (below the 4,096-entry cache).
const HOT: usize = 2000;
/// Triples per SCORE request.
const PER_REQUEST: usize = 8;
/// Offered open-loop rate, SCORE/s: well below what the replica sustains, so
/// the open loop measures latency rather than a queue.
pub const RATE: f64 = 250.0;
/// Closed-loop connections (`nproc` on the seed host).
const CONNS: usize = 2;
/// Requests pipelined per closed-loop connection: the server always has the
/// next request queued, so the rate measures capacity, not client turnaround.
const DEPTH: usize = 4;
/// The closed loop's rate is the median over this many equal windows (one
/// per second of the default run): a burst of host noise that lasts less
/// than half the phase does not move it.
const THROUGHPUT_WINDOWS: usize = 9;
/// Traced run: requests replayed top-down.
const REPLAYS: usize = 200;

/// One replica over the `TE(fully)` graph, plus the hot set.
pub(crate) struct Replica {
    model: RmpiModel,
    graph: KnowledgeGraph,
    engine: Arc<Engine>,
    server: ServerHandle,
    hot: Vec<Triple>,
}

pub(crate) fn build(seed: u64) -> Replica {
    let (bench, model) = dataset_and_model();
    let model = bundle_round_trip(&model, &out_dir());
    let test = bench.test(crate::common::TEST_SPLIT).expect("TE(fully) split");
    let graph = test.graph.clone();
    let engine = Arc::new(Engine::with_registry(
        model.clone(),
        graph.clone(),
        EngineConfig::default().with_threads(nproc()),
        Arc::new(MetricsRegistry::new()),
    ));
    let server = serve(Arc::clone(&engine), ServerConfig::default()).expect("replica");
    let hot = hot_set(&test.targets, &graph.present_entities(), HOT, seed);
    // warm-up: the whole hot set through the wire fills the subgraph cache
    let session =
        Session::connect(server.addr(), &ClientConfig::default()).expect("warm-up session");
    let lines: Vec<String> = hot.chunks(PER_REQUEST).map(score_line).collect();
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    for reply in session.request_many(&refs) {
        reply.expect("warm-up SCORE");
    }
    drop(session);
    Replica { model, graph, engine, server, hot }
}

pub fn run(args: &Args) -> RunResult {
    let (replica, setups) = timed_setups(args, "score_hot", || build(args.seed));
    let tracer = Tracer::new(args.trace);
    let hot = &replica.hot;
    let request = |i: usize| score_request(hot, PER_REQUEST, args.seed, i);
    let open_secs = args.seconds * OPEN_SHARE;
    let n_open = (RATE * open_secs).round().max(1.0) as usize;
    let lines: Vec<String> = (0..n_open).map(|i| score_line(&request(i))).collect();
    let next = |i: usize| score_line(&request(n_open + i));
    let load = Load {
        addr: replica.server.addr(),
        open: &lines,
        rate: RATE,
        closed: Duration::from_secs_f64(args.seconds - open_secs),
        conns: CONNS,
        depth: DEPTH,
        next: &next,
    };
    let engines = [Arc::clone(&replica.engine)];
    let m = measure(&load, &tracer, &|| Serving::read(&engines, None));

    // output checks: every served score against an in-process reference
    // engine over the same bundle, bit for bit (compared as wire text, whose
    // shortest round-trip formatting is exact)
    let reference = Engine::with_registry(
        replica.model.clone(),
        replica.graph.clone(),
        EngineConfig::default().with_threads(nproc()),
        Arc::new(MetricsRegistry::new()),
    );
    let scores = reference.score_batch(hot).expect("reference scores");
    drop(reference);
    let truth: HashMap<Triple, f32> = hot.iter().copied().zip(scores).collect();
    let expect =
        |i: usize| format_scores(&request(i).iter().map(|t| truth[t]).collect::<Vec<f32>>());
    let checked = check_phases(&m.sent, &m.closed, THROUGHPUT_WINDOWS, &expect);

    println!(
        "workload score_hot seed={} seconds={} rate={RATE}/s hot={} per_request={PER_REQUEST} closed loop: {DEPTH} pipelined on each of {CONNS} connections",
        args.seed,
        args.seconds,
        hot.len()
    );
    let mut result = m.report(&checked, &setups, load.closed, PER_REQUEST as f64, "scores");
    if args.trace {
        let mut layers = m.layers(&checked);
        trace_replay(&replica, &request, n_open, args.seed, &tracer, &mut layers);
        crate::write_spans(&tracer, "score_hot", args.seed);
        result.metrics = layers.metrics();
    }
    result
}

/// Replay a seeded sample of the open-loop requests top-down: the wire round
/// trip, the engine in process, then each triple's forward pass.
fn trace_replay(
    replica: &Replica,
    request: &dyn Fn(usize) -> Vec<Triple>,
    n_open: usize,
    seed: u64,
    tracer: &Tracer,
    layers: &mut Layers,
) {
    let session =
        Session::connect(replica.server.addr(), &ClientConfig::default()).expect("replay session");
    let csr = CsrGraph::from_graph(&replica.graph);
    let model = &replica.model;
    let prepare = |t: Triple| model.prepare_eval_sample(&csr, t, 0);
    let workers = nproc().min(PER_REQUEST) as f64;
    let mut fronts = Vec::new();
    let mut rtts = Vec::new();
    let mut per_target = Vec::new();
    let mut leaves = Leaves::default();
    let mut table = SelfTable::default();
    for &i in &replay_sample(n_open, REPLAYS, seed) {
        let triples = request(i);
        let id = i as u64;
        let (reply, d_rtt, root) =
            tracer.time("client.request", id, None, || session.request(&score_line(&triples)));
        reply.expect("replayed SCORE");
        rtts.push(us(d_rtt));
        let (scores, d_engine, engine_span) =
            tracer.time("engine.score_batch", id, Some(root), || {
                replica.engine.score_batch(&triples)
            });
        let scores = scores.expect("replayed Engine::score_batch");
        let (_, leaf_scores) = leaves.run(
            model,
            &csr,
            &triples,
            Mode::Eval,
            &prepare,
            1,
            tracer,
            id,
            Some(engine_span),
        );
        assert_eq!(scores, leaf_scores, "replayed forward passes equal the engine's scores");
        // the cached path skips preparation: only the forward passes sit
        // under the engine, spread over its workers
        let forward_sum: f64 = leaves.forward[leaves.forward.len() - triples.len()..].iter().sum();
        fronts.push(us(d_rtt) - us(d_engine));
        per_target.push(us(d_engine) / triples.len() as f64);
        table.add(&Replay {
            top: vec![
                ("client+serve.front", us(d_rtt)),
                ("serve.engine", us(d_engine)),
                ("core.forward", forward_sum / workers),
            ],
            branches: Vec::new(),
        });
    }
    layers.client_rtt_us_p50 = median(&rtts);
    layers.serve_front_us_p50 = median(&fronts);
    layers.serve_engine_us_per_target = median(&per_target);
    layers.subgraph_prepare_us_p50 = median(&leaves.prepare);
    layers.subgraph_extract_us_p50 = median(&leaves.extract);
    layers.subgraph_relview_us_p50 = median(&leaves.relview);
    layers.subgraph_empty_share = leaves.empty as f64 / leaves.count() as f64;
    layers.core_forward_us_p50 = median(&leaves.forward);
    layers.trace_unaccounted_share = table.unaccounted_share();
    println!("  replay: {} requests top-down, {} triples", fronts.len(), leaves.count());
    table.print();
}
