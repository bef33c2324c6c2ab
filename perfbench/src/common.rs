//! What every workload shares: the dataset and model, the bundle round trip,
//! process counters, and the run's result.

use crate::Args;
use rmpi_core::{RelationInit, RmpiConfig, RmpiModel, ScoringModel};
use rmpi_datasets::{build_benchmark, Benchmark, Scale};
use rmpi_obs::MetricsRegistry;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Table III's fully inductive pair.
pub const DATASET: &str = "nell.v1.v3";
/// Its test graph: unseen entities *and* unseen relations.
pub const TEST_SPLIT: &str = "TE(fully)";
/// Schema TransE vectors at the `--full` harness settings.
pub const SCHEMA_DIM: usize = 300;
/// Schema TransE epochs at the `--full` harness settings.
pub const SCHEMA_EPOCHS: usize = 200;
/// Schema TransE seed used by the experiment harness.
pub const SCHEMA_SEED: u64 = 17;
/// Model weights seed: weights do not change the work per request, so they
/// are fixed rather than drawn from the workload seed.
pub const MODEL_SEED: u64 = 1;
/// Set-ups per run, one in the run's own process and the rest in fresh
/// child processes; `setup_s` is their median.
pub const SETUPS: usize = 7;
/// Share of `--seconds` given to the open-loop phase (the rest is closed).
pub const OPEN_SHARE: f64 = 0.7;

/// RMPI-NE-TA, dim 32, schema-enhanced initialisation (Eq. 10).
pub fn model_config() -> RmpiConfig {
    RmpiConfig { dim: 32, ne: true, ta: true, init: RelationInit::Schema, ..RmpiConfig::default() }
}

/// The dataset and a freshly initialised schema-init model: the set-up work
/// every workload starts with.
pub fn dataset_and_model() -> (Benchmark, RmpiModel) {
    let bench = build_benchmark(DATASET, Scale::Full);
    let onto = rmpi_eval::onto::schema_vectors(&bench, SCHEMA_DIM, SCHEMA_EPOCHS, SCHEMA_SEED);
    let model = RmpiModel::with_schema_vectors(model_config(), onto, MODEL_SEED);
    (bench, model)
}

/// Save `model` as a bundle file and load it back through the production
/// load path; the file is removed once loaded.
pub fn bundle_round_trip(model: &RmpiModel, dir: &Path) -> RmpiModel {
    std::fs::create_dir_all(dir).expect("create the benchmark's scratch directory");
    let path = dir.join(format!("model-{}.bundle", std::process::id()));
    rmpi_serve::save_bundle_file(&path, model, &[]).expect("save bundle");
    let bundle = rmpi_serve::load_bundle_file(&path).expect("load bundle");
    let _ = std::fs::remove_file(&path);
    bundle.model
}

/// Where runs write scratch files and spans, relative to the checkout root.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

/// Scoring-pool threads the host offers (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host CPU time stolen by the hypervisor, as a share of all CPU time since
/// `since` (a `(steal, total)` jiffies reading from [`cpu_jiffies`]); printed
/// beside each run so a slow run on a busy host can be told apart.
pub fn steal_share(since: (u64, u64)) -> f64 {
    let now = cpu_jiffies();
    ratio((now.0 - since.0) as f64, (now.1 - since.1) as f64)
}

/// `(steal, total)` jiffies from the first line of `/proc/stat`.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// A stable digest of every parameter (names and exact bits), for comparing
/// training results across repetitions and commits.
pub fn param_digest(model: &RmpiModel) -> u64 {
    let store = model.param_store();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for id in store.ids() {
        eat(store.name(id).as_bytes());
        for x in store.value(id).data() {
            eat(&x.to_bits().to_le_bytes());
        }
    }
    h
}

/// Sum and count of a registry histogram (never its bucketed percentiles).
#[derive(Clone, Copy, Debug, Default)]
pub struct SumCount {
    /// Sum of recorded values.
    pub sum: u64,
    /// Number of recorded values.
    pub count: u64,
}

impl SumCount {
    /// Read `name` from `registry`.
    pub fn read(registry: &MetricsRegistry, name: &str) -> SumCount {
        let h = registry.histogram(name);
        SumCount { sum: h.sum(), count: h.count() }
    }

    /// What was recorded since `before`.
    pub fn since(self, before: SumCount) -> SumCount {
        SumCount { sum: self.sum - before.sum, count: self.count - before.count }
    }

    /// Mean of what was recorded (0 when nothing was).
    pub fn mean(self) -> f64 {
        ratio(self.sum as f64, self.count as f64)
    }
}

impl std::ops::Add for SumCount {
    type Output = SumCount;

    fn add(self, o: SumCount) -> SumCount {
        SumCount { sum: self.sum + o.sum, count: self.count + o.count }
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Process-wide counters the layers record into, read before and after the
/// measured phases.
#[derive(Clone, Copy, Debug, Default)]
pub struct Process {
    /// `rmpi_autograd::counters` FLOPs.
    pub flops: u64,
    /// `rmpi_autograd::counters` bytes.
    pub bytes: u64,
    /// `core.extract.edges`.
    pub extract_edges: u64,
    /// `core.extract.us` (one record per prepared sample).
    pub extract: SumCount,
    /// `pool.shard_busy.us`.
    pub pool_busy: SumCount,
}

impl Process {
    /// Read the process-wide counters now.
    pub fn read() -> Process {
        let k = rmpi_autograd::counters::snapshot();
        let g = rmpi_obs::global();
        Process {
            flops: k.flops,
            bytes: k.bytes,
            extract_edges: g.counter("core.extract.edges").get(),
            extract: SumCount::read(g, "core.extract.us"),
            pool_busy: SumCount::read(g, "pool.shard_busy.us"),
        }
    }

    /// What was recorded since `before`.
    pub fn since(self, before: Process) -> Process {
        Process {
            flops: self.flops - before.flops,
            bytes: self.bytes - before.bytes,
            extract_edges: self.extract_edges - before.extract_edges,
            extract: self.extract.since(before.extract),
            pool_busy: self.pool_busy.since(before.pool_busy),
        }
    }
}

/// What a set-up process prints once it is ready for its first request.
pub const SETUP_DONE: &str = "setup done";

/// Time `SETUPS` complete set-ups of `workload` and keep the first. The
/// first runs in this process, timed from process start; each of the others
/// runs in a fresh child process (this executable with `--setup-only 1`),
/// timed from spawning it until it reports [`SETUP_DONE`]. So every set-up
/// pays the once-per-process costs: loading the executable, lazy statics,
/// metric handles, a cold heap.
pub fn timed_setups<F>(args: &Args, workload: &str, build: impl FnOnce() -> F) -> (F, Vec<f64>) {
    let fixture = build();
    let mut times = vec![args.process_start.elapsed().as_secs_f64()];
    let exe = std::env::current_exe().expect("locate the benchmark executable");
    for _ in 1..SETUPS {
        let t0 = Instant::now();
        let mut child = Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string(), "--setup-only", "1"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("start a set-up process");
        let mut ready = false;
        for line in BufReader::new(child.stdout.take().expect("piped stdout")).lines() {
            if line.expect("read the set-up process's output") == SETUP_DONE {
                times.push(t0.elapsed().as_secs_f64());
                ready = true;
                break;
            }
        }
        let status = child.wait().expect("wait for the set-up process");
        assert!(ready && status.success(), "set-up process failed: {status}");
    }
    (fixture, times)
}

/// One operation class's outcome counts within a phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ops {
    /// Operations sent.
    pub attempted: u64,
    /// Answered and checked.
    pub ok: u64,
    /// `ERR`, timeout, `partial` or output mismatch.
    pub failed: u64,
}

/// How one reply compares with the reference answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Check {
    /// Byte-identical to the reference.
    Match,
    /// An `OK` answer that differs from the reference: wrong output.
    Mismatch,
    /// `ERR`, a `partial` answer, or no reply at all: a failed operation.
    Failed,
}

/// Compare a reply line (`None`: none arrived) with the expected line.
pub fn check_reply(reply: Option<&str>, want: &str) -> Check {
    match reply {
        Some(r) if r == want => Check::Match,
        Some(r) if r.starts_with("OK") && !r.starts_with("OK partial") => Check::Mismatch,
        _ => Check::Failed,
    }
}

impl Ops {
    /// Count one checked reply; returns whether it was an output mismatch.
    pub fn count(&mut self, check: Check) -> bool {
        match check {
            Check::Match => self.ok += 1,
            Check::Mismatch | Check::Failed => self.failed += 1,
        }
        check == Check::Mismatch
    }
}

/// A named metric with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Shorthand for a [`Metric`].
pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted over all phases.
    pub attempted: u64,
    /// Operations failed over all phases.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The result line: one JSON object with exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit the measurement has. A non-finite value
/// is a bug in the benchmark, not a measurement: it fails the run rather
/// than being printed as some number.
pub fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v:?}")
}

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in a duration, as a float.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
