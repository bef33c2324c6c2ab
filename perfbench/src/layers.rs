//! The benchmark's metric sets, in `BENCHMARK.json` order: the end-to-end
//! metrics a user sees (untraced runs) and the per-layer metrics of the
//! traced run. A workload that does not pass through a layer reports that
//! layer's metrics as 0.

use crate::common::{metric, Metric};

/// End-to-end metrics, measured with tracing off.
#[derive(Clone, Debug, Default)]
pub struct EndToEnd {
    /// Median of the set-ups' process-start-to-first-timed-request times.
    pub setup_s: f64,
    /// Open-loop median latency (training: median batch step time).
    pub p50_ms: f64,
    /// Open-loop 90th-percentile latency (training: batch step time).
    pub p90_ms: f64,
    /// Closed-loop ranks/s, scores/s or training samples/s.
    pub throughput_per_s: f64,
    /// Peak resident set size of the run.
    pub peak_rss_mib: f64,
}

impl EndToEnd {
    /// As named metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("setup_s", "s", self.setup_s),
            metric("p50_ms", "ms", self.p50_ms),
            metric("p90_ms", "ms", self.p90_ms),
            metric("throughput_per_s", "1/s", self.throughput_per_s),
            metric("peak_rss_mib", "MiB", self.peak_rss_mib),
        ]
    }
}

/// Per-layer metrics of the traced run, grouped by module.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    // rmpi-client
    pub client_rtt_us_p50: f64,
    // rmpi-router
    pub router_rank_us_p50: f64,
    pub router_shard_call_us_p50: f64,
    pub router_shard_call_us_p90: f64,
    pub router_shard_skew_us_p50: f64,
    pub router_merge_us_p50: f64,
    pub router_wire_bytes_per_op: f64,
    pub router_hedges: f64,
    pub router_partial_responses: f64,
    // rmpi-serve
    pub serve_front_us_p50: f64,
    pub serve_batch_size_mean: f64,
    pub serve_batch_wait_us_mean: f64,
    pub serve_queue_wait_us_mean: f64,
    pub serve_engine_us_per_target: f64,
    pub serve_cache_hit_ratio: f64,
    pub serve_cache_hits: f64,
    pub serve_cache_misses: f64,
    // rmpi-subgraph
    pub subgraph_prepare_us_p50: f64,
    pub subgraph_extract_us_p50: f64,
    pub subgraph_relview_us_p50: f64,
    pub subgraph_edges_per_op: f64,
    pub subgraph_empty_share: f64,
    // rmpi-core
    pub core_forward_us_p50: f64,
    pub core_train_extract_us_mean: f64,
    pub core_train_forward_us_mean: f64,
    pub core_train_backward_us_mean: f64,
    pub core_train_optim_step_us_mean: f64,
    // rmpi-autograd
    pub autograd_flops_per_op: f64,
    pub autograd_bytes_per_op: f64,
    // rmpi-runtime
    pub runtime_pool_busy_share: f64,
    // harness
    pub gen_lag_ms_max: f64,
    pub trace_unaccounted_share: f64,
    pub trace_overhead_pct: f64,
}

impl Layers {
    /// As named metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("client.rtt_us.p50", "us", self.client_rtt_us_p50),
            metric("router.rank_us.p50", "us", self.router_rank_us_p50),
            metric("router.shard_call_us.p50", "us", self.router_shard_call_us_p50),
            metric("router.shard_call_us.p90", "us", self.router_shard_call_us_p90),
            metric("router.shard_skew_us.p50", "us", self.router_shard_skew_us_p50),
            metric("router.merge_us.p50", "us", self.router_merge_us_p50),
            metric("router.wire_bytes_per_op", "bytes", self.router_wire_bytes_per_op),
            metric("router.hedges", "count", self.router_hedges),
            metric("router.partial_responses", "count", self.router_partial_responses),
            metric("serve.front_us.p50", "us", self.serve_front_us_p50),
            metric("serve.batch_size.mean", "count", self.serve_batch_size_mean),
            metric("serve.batch_wait_us.mean", "us", self.serve_batch_wait_us_mean),
            metric("serve.queue_wait_us.mean", "us", self.serve_queue_wait_us_mean),
            metric("serve.engine_us_per_target", "us", self.serve_engine_us_per_target),
            metric("serve.cache_hit_ratio", "ratio", self.serve_cache_hit_ratio),
            metric("serve.cache_hits", "count", self.serve_cache_hits),
            metric("serve.cache_misses", "count", self.serve_cache_misses),
            metric("subgraph.prepare_us.p50", "us", self.subgraph_prepare_us_p50),
            metric("subgraph.extract_us.p50", "us", self.subgraph_extract_us_p50),
            metric("subgraph.relview_us.p50", "us", self.subgraph_relview_us_p50),
            metric("subgraph.edges_per_op", "count", self.subgraph_edges_per_op),
            metric("subgraph.empty_share", "ratio", self.subgraph_empty_share),
            metric("core.forward_us.p50", "us", self.core_forward_us_p50),
            metric("core.train.extract_us.mean", "us", self.core_train_extract_us_mean),
            metric("core.train.forward_us.mean", "us", self.core_train_forward_us_mean),
            metric("core.train.backward_us.mean", "us", self.core_train_backward_us_mean),
            metric("core.train.optim_step_us.mean", "us", self.core_train_optim_step_us_mean),
            metric("autograd.flops_per_op", "count", self.autograd_flops_per_op),
            metric("autograd.bytes_per_op", "bytes", self.autograd_bytes_per_op),
            metric("runtime.pool_busy_share", "ratio", self.runtime_pool_busy_share),
            metric("gen.lag_ms.max", "ms", self.gen_lag_ms_max),
            metric("trace.unaccounted_share", "ratio", self.trace_unaccounted_share),
            metric("trace.overhead_pct", "%", self.trace_overhead_pct),
        ]
    }
}
