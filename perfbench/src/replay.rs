//! The bottom of the top-down replay: per-target sample preparation and the
//! forward pass, timed one call at a time through their public entry
//! points (`prepare_eval_sample` / `prepare_sample`, `enclosing_subgraph`,
//! `RelViewGraph::from_subgraph` + `PruningSchedule::new`, `score_sample`).

use crate::common::us;
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rmpi_core::{Mode, RmpiConfig, RmpiModel, SampleInput};
use rmpi_kg::{GraphAccess, Triple};
use rmpi_subgraph::{enclosing_subgraph, PruningSchedule, RelViewGraph, Subgraph};
use std::hint::black_box;
use std::time::Instant;

/// Per-target timings collected over a replay, in microseconds.
#[derive(Clone, Debug, Default)]
pub struct Leaves {
    /// Whole sample preparation per target.
    pub prepare: Vec<f64>,
    /// `score_sample` per target.
    pub forward: Vec<f64>,
    /// `enclosing_subgraph` alone (every `detail_every`-th target).
    pub extract: Vec<f64>,
    /// Relation view plus pruning schedule alone (same targets).
    pub relview: Vec<f64>,
    /// Targets whose enclosing subgraph was empty.
    pub empty: usize,
}

impl Leaves {
    /// Prepare and score every target in `targets`, one call at a time;
    /// every `detail_every`-th target is also extracted and transformed
    /// separately (after the edge budget `mode` implies). Returns the summed prepare + forward time (µs) and the
    /// scores, in target order.
    #[allow(clippy::too_many_arguments)]
    pub fn run<G: GraphAccess + ?Sized>(
        &mut self,
        model: &RmpiModel,
        graph: &G,
        targets: &[Triple],
        mode: Mode,
        prepare: &dyn Fn(Triple) -> SampleInput,
        detail_every: usize,
        tracer: &Tracer,
        request: u64,
        parent: Option<usize>,
    ) -> (f64, Vec<f32>) {
        let mut sum = 0.0;
        let mut scores = Vec::with_capacity(targets.len());
        let cfg = model.config();
        for (i, &t) in targets.iter().enumerate() {
            let (sample, d_prep, _) =
                tracer.time("subgraph.prepare", request, parent, || prepare(t));
            let (score, d_fwd, _) =
                tracer.time("core.score_sample", request, parent, || model.score_sample(&sample));
            self.prepare.push(us(d_prep));
            self.forward.push(us(d_fwd));
            self.empty += usize::from(sample.enclosing_empty);
            sum += us(d_prep) + us(d_fwd);
            scores.push(score);
            if detail_every > 0 && i % detail_every == 0 {
                let t0 = Instant::now();
                let mut sg = black_box(enclosing_subgraph(graph, t, cfg.hop));
                let t1 = Instant::now();
                edge_budget(&mut sg, cfg, mode, u64::from(t.head.0) << 32 | u64::from(t.tail.0));
                let t1b = Instant::now();
                let rv = RelViewGraph::from_subgraph(&sg);
                black_box(PruningSchedule::new(&rv, cfg.num_layers));
                let t2 = Instant::now();
                tracer.record("subgraph.enclosing_subgraph", request, parent, t0, t1);
                tracer.record("subgraph.relview", request, parent, t1b, t2);
                self.extract.push(us(t1 - t0));
                self.relview.push(us(t2 - t1b));
            }
        }
        (sum, scores)
    }

    /// Targets replayed.
    pub fn count(&self) -> usize {
        self.prepare.len()
    }
}

/// The edge budget sample preparation applies between extraction and the
/// relation view — edge dropout in training, then uniform downsampling to
/// `max_subgraph_edges` — so the relation view is timed on an input of the
/// size the model really sees (the budget itself is not timed).
fn edge_budget(sg: &mut Subgraph, cfg: &RmpiConfig, mode: Mode, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    if mode == Mode::Train && cfg.edge_dropout > 0.0 {
        sg.triples.retain(|_| !rng.gen_bool(cfg.edge_dropout));
    }
    if sg.triples.len() > cfg.max_subgraph_edges {
        sg.triples.shuffle(&mut rng);
        sg.triples.truncate(cfg.max_subgraph_edges);
        sg.triples.sort_unstable();
    }
}
