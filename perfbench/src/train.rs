//! `train_fully`: `Trainer` on the `nell.v1.v3` training graph with the
//! served model's configuration, a fixed epochs × samples budget per
//! repetition, `nproc` threads, validation on and checkpointing off.
//!
//! It uses the same encoder and message-passing layers as serving, but on a
//! tape, with backward and Adam writes beside the reads, and with uncached
//! extraction under edge dropout — so a serving-only fast path that slows
//! training shows here.

use crate::common::{
    cpu_jiffies, dataset_and_model, ms, nproc, param_digest, peak_rss_mib, ratio, steal_share,
    timed_setups, us, Process, RunResult, SumCount,
};
use crate::gen::replay_sample;
use crate::layers::{EndToEnd, Layers};
use crate::replay::Leaves;
use crate::stats::{median, tail_report, windowed_percentile};
use crate::trace::{span_cost_us, Tracer};
use crate::Args;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rmpi_core::sample::prepare_sample;
use rmpi_core::trainer::{TrainEvent, Trainer};
use rmpi_core::{Mode, RmpiModel, TrainConfig};
use rmpi_datasets::Benchmark;
use rmpi_kg::{CsrGraph, Triple};
use std::cell::RefCell;
use std::time::Instant;

/// Epochs per repetition.
const EPOCHS: usize = 2;
/// Training samples per epoch.
const SAMPLES_PER_EPOCH: usize = 800;
/// Validation triples scored per epoch.
const VALID_SAMPLES: usize = 100;
/// Training samples of the set-up's warm-up repetition.
const WARMUP_SAMPLES: usize = 64;
/// Traced run: training targets whose preparation is replayed.
const REPLAYS: usize = 400;

fn config(seed: u64, epochs: usize, samples: usize, valid: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        max_samples_per_epoch: samples,
        max_valid_samples: valid,
        seed,
        threads: nproc(),
        ..TrainConfig::default()
    }
}

/// The dataset and the initial model every repetition starts from.
pub(crate) struct Start {
    bench: Benchmark,
    model: RmpiModel,
}

pub(crate) fn build(seed: u64) -> Start {
    let (bench, model) = dataset_and_model();
    let mut warm = model.clone();
    let t = &bench.train;
    Trainer::new(config(seed, 1, WARMUP_SAMPLES, 16))
        .train(&mut warm, &t.graph, &t.targets, &t.valid);
    Start { bench, model }
}

/// One repetition's outcome.
struct Rep {
    wall_s: f64,
    samples: u64,
    digest: u64,
    finite: bool,
    faults: usize,
    /// Batch step times (ms), excluding each epoch's first batch.
    steps_ms: Vec<f64>,
    phases: Phases,
}

/// Trainer phase histograms over one repetition.
#[derive(Clone, Copy, Default)]
struct Phases {
    extract: SumCount,
    forward: SumCount,
    backward: SumCount,
    optim: SumCount,
    validation: SumCount,
}

fn read_phases() -> Phases {
    let g = rmpi_obs::global();
    Phases {
        extract: SumCount::read(g, "core.extract.us"),
        forward: SumCount::read(g, "trainer.forward.us"),
        backward: SumCount::read(g, "trainer.backward.us"),
        optim: SumCount::read(g, "trainer.optim_step.us"),
        validation: SumCount::read(g, "trainer.validation.us"),
    }
}

impl Phases {
    fn since(self, b: Phases) -> Phases {
        Phases {
            extract: self.extract.since(b.extract),
            forward: self.forward.since(b.forward),
            backward: self.backward.since(b.backward),
            optim: self.optim.since(b.optim),
            validation: self.validation.since(b.validation),
        }
    }

    fn add(self, o: Phases) -> Phases {
        Phases {
            extract: self.extract + o.extract,
            forward: self.forward + o.forward,
            backward: self.backward + o.backward,
            optim: self.optim + o.optim,
            validation: self.validation + o.validation,
        }
    }
}

fn repetition(start: &Start, seed: u64, tracer: &Tracer, index: u64) -> Rep {
    let mut model = start.model.clone();
    let t = &start.bench.train;
    let samples_counter = rmpi_obs::global().counter("trainer.samples.count");
    let samples_before = samples_counter.get();
    let phases_before = read_phases();
    let steps: RefCell<Vec<f64>> = RefCell::new(Vec::new());
    let last: RefCell<Option<Instant>> = RefCell::new(None);
    let faults: RefCell<usize> = RefCell::new(0);
    let t0 = Instant::now();
    let report = Trainer::new(config(seed, EPOCHS, SAMPLES_PER_EPOCH, VALID_SAMPLES))
        .on_event(|ev| match ev {
            TrainEvent::BatchEnd { .. } => {
                let now = Instant::now();
                if let Some(prev) = last.replace(Some(now)) {
                    steps.borrow_mut().push(ms(now - prev));
                    tracer.record("trainer.batch", index, None, prev, now);
                }
            }
            // the next epoch's first batch also carries this validation
            TrainEvent::EpochEnd { .. } => *last.borrow_mut() = None,
            TrainEvent::NonFinite { .. }
            | TrainEvent::BatchFailed { .. }
            | TrainEvent::Aborted { .. } => {
                *faults.borrow_mut() += 1;
            }
            _ => {}
        })
        .train(&mut model, &t.graph, &t.targets, &t.valid);
    let wall = t0.elapsed();
    tracer.record("trainer.train", index, None, t0, t0 + wall);
    Rep {
        wall_s: wall.as_secs_f64(),
        samples: samples_counter.get() - samples_before,
        digest: param_digest(&model),
        finite: report.epoch_losses.iter().all(|l| l.is_finite()),
        faults: faults.into_inner() + report.skipped_batches,
        steps_ms: steps.into_inner(),
        phases: read_phases().since(phases_before),
    }
}

pub fn run(args: &Args) -> RunResult {
    let (start, setups) = timed_setups(args, "train_fully", || build(args.seed));
    let tracer = Tracer::new(args.trace);
    let process_before = Process::read();
    let jiffies = cpu_jiffies();
    let measure_start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < 2 || measure_start.elapsed().as_secs_f64() < args.seconds {
        reps.push(repetition(&start, args.seed, &tracer, reps.len() as u64));
    }
    let measured = measure_start.elapsed();
    let process = Process::read().since(process_before);
    let rss = peak_rss_mib();
    let steal = steal_share(jiffies);
    let live_spans = tracer.len();

    // output checks: one seed, one result — every repetition must end on the
    // same parameters, with finite losses and no dropped batch
    let digest = reps[0].digest;
    let same = reps.iter().all(|r| r.digest == digest);
    let finite = reps.iter().all(|r| r.finite);
    let faults: usize = reps.iter().map(|r| r.faults).sum();
    let per_rep = (EPOCHS * SAMPLES_PER_EPOCH) as u64;
    let attempted = per_rep * reps.len() as u64;
    let trained: u64 = reps.iter().map(|r| r.samples).sum();
    let failed = attempted.saturating_sub(trained);

    let steps: Vec<f64> = reps.iter().flat_map(|r| r.steps_ms.iter().copied()).collect();
    let rates: Vec<f64> = reps.iter().map(|r| r.samples as f64 / r.wall_s).collect();
    let e2e = EndToEnd {
        setup_s: median(&setups),
        p50_ms: windowed_percentile(&steps, 0.50),
        p90_ms: windowed_percentile(&steps, 0.90),
        throughput_per_s: median(&rates),
        peak_rss_mib: rss,
    };
    println!(
        "workload train_fully seed={} seconds={} epochs={EPOCHS} samples/epoch={SAMPLES_PER_EPOCH} valid={VALID_SAMPLES} threads={}",
        args.seed,
        args.seconds,
        nproc()
    );
    println!(
        "  repetitions={} attempted={attempted} trained={trained} failed={failed}",
        reps.len()
    );
    println!("  setup_s={:.4} (median of {:?})", e2e.setup_s, setups);
    println!("  batch step {}", tail_report(&steps, 0.50));
    println!("  batch step {}", tail_report(&steps, 0.90));
    println!(
        "  throughput_per_s={:.1} samples/s (median of {} repetitions)",
        e2e.throughput_per_s,
        reps.len()
    );
    println!("  peak_rss_mib={rss:.1}  host cpu steal={:.2}%", steal * 100.0);
    println!(
        "  final-parameter digest={digest:016x} identical_across_repetitions={same} losses_finite={finite} faults={faults}"
    );
    if !same {
        eprintln!(
            "training digests differ across repetitions: {:x?}",
            reps.iter().map(|r| r.digest).collect::<Vec<_>>()
        );
    }

    let mut result = RunResult {
        correct: same && finite && faults == 0 && failed == 0,
        attempted,
        failed,
        metrics: e2e.metrics(),
    };
    if args.trace {
        let phases = reps.iter().fold(Phases::default(), |acc, r| acc.add(r.phases));
        let wall_us: f64 = reps.iter().map(|r| r.wall_s * 1e6).sum();
        let threads = nproc() as f64;
        // what the trainer's own phase timers cover of its wall time; the
        // rest (gradient folding, shuffling, per-run set-up) is unaccounted
        let covered = (phases.forward.sum + phases.backward.sum) as f64 / threads
            + phases.optim.sum as f64
            + phases.validation.sum as f64;
        let mut layers = Layers {
            subgraph_edges_per_op: ratio(
                process.extract_edges as f64,
                process.extract.count as f64,
            ),
            core_train_extract_us_mean: phases.extract.mean(),
            core_train_forward_us_mean: phases.forward.mean(),
            core_train_backward_us_mean: phases.backward.mean(),
            core_train_optim_step_us_mean: phases.optim.mean(),
            autograd_flops_per_op: ratio(process.flops as f64, trained as f64),
            autograd_bytes_per_op: ratio(process.bytes as f64, trained as f64),
            runtime_pool_busy_share: ratio(process.pool_busy.sum as f64, us(measured) * threads),
            trace_unaccounted_share: ratio((wall_us - covered).max(0.0), wall_us),
            trace_overhead_pct: 100.0 * live_spans as f64 * span_cost_us() / us(measured),
            ..Layers::default()
        };
        trace_replay(&start, args.seed, &tracer, &mut layers);
        crate::write_spans(&tracer, "train_fully", args.seed);
        result.metrics = layers.metrics();
    }
    result
}

/// Replay training-mode preparation (edge dropout on) and the forward pass
/// for a seeded sample of training targets.
fn trace_replay(start: &Start, seed: u64, tracer: &Tracer, layers: &mut Layers) {
    let t = &start.bench.train;
    let csr = CsrGraph::from_graph(&t.graph);
    let model = &start.model;
    let cfg = *model.config();
    let prepare = |target: Triple| {
        let mut rng = StdRng::seed_from_u64(
            seed ^ (u64::from(target.head.0) << 20) ^ u64::from(target.tail.0),
        );
        prepare_sample(&csr, target, &cfg, Mode::Train, &mut rng)
    };
    let picks: Vec<Triple> =
        replay_sample(t.targets.len(), REPLAYS, seed).iter().map(|&i| t.targets[i]).collect();
    let mut leaves = Leaves::default();
    leaves.run(model, &csr, &picks, Mode::Train, &prepare, 1, tracer, u64::MAX, None);
    layers.subgraph_prepare_us_p50 = median(&leaves.prepare);
    layers.subgraph_extract_us_p50 = median(&leaves.extract);
    layers.subgraph_relview_us_p50 = median(&leaves.relview);
    layers.subgraph_empty_share = leaves.empty as f64 / leaves.count() as f64;
    layers.core_forward_us_p50 = median(&leaves.forward);
    println!("  replay: {} training targets prepared (edge dropout on) and scored", leaves.count());
}
