//! A seeded end-to-end and layer-traced benchmark of RMPI's fully inductive
//! serving and training paths. See `perfbench/README.md` for the workloads,
//! the metric table and how to run it.

pub mod common;
pub mod gen;
pub mod json;
pub mod layers;
pub mod openloop;
pub mod rank;
pub mod replay;
pub mod score;
pub mod stats;
pub mod steady;
pub mod trace;
pub mod train;

use std::time::Instant;

/// The workloads, in their default order.
pub const WORKLOADS: [&str; 3] = ["rank_routed", "score_hot", "train_fully"];

/// One workload run's arguments.
pub struct Args {
    /// Seeds every generated input.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// When the process started (the first set-up is timed from here).
    pub process_start: Instant,
}

/// Run one workload by name.
pub fn run_workload(name: &str, args: &Args) -> Option<common::RunResult> {
    match name {
        "rank_routed" => Some(rank::run(args)),
        "score_hot" => Some(score::run(args)),
        "train_fully" => Some(train::run(args)),
        _ => None,
    }
}

/// Set workload `name` up as a run does, print [`common::SETUP_DONE`] and
/// exit: the child-process side of [`common::timed_setups`].
pub fn setup_only(name: &str, seed: u64) -> ! {
    let ready = || -> ! {
        println!("{}", common::SETUP_DONE);
        let _ = std::io::Write::flush(&mut std::io::stdout());
        // the servers' threads end with the process
        std::process::exit(0)
    };
    match name {
        "rank_routed" => {
            let _fleet = rank::build();
            ready()
        }
        "score_hot" => {
            let _replica = score::build(seed);
            ready()
        }
        _ => {
            let _start = train::build(seed);
            ready()
        }
    }
}

/// Write a traced run's spans, one JSON object per line, under the run's
/// output directory.
pub fn write_spans(tracer: &trace::Tracer, workload: &str, seed: u64) {
    let dir = common::out_dir();
    let path = dir.join(format!("spans-{workload}-{seed}.jsonl"));
    match std::fs::create_dir_all(&dir).and_then(|()| tracer.write_jsonl(&path)) {
        Ok(()) => println!("  spans: {} written to {}", tracer.len(), path.display()),
        Err(e) => eprintln!("warning: could not write spans to {}: {e}", path.display()),
    }
}
