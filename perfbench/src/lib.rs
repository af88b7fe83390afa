//! The repository benchmark.
//!
//! Three workloads drive the library through its public APIs — a
//! paper-scale batch solve (`batch-paper`), a repair-bound durable shard
//! (`serve-repair`) and a publish-bound front door (`serve-publish`, not
//! gated) — check the outputs, and report end-to-end metrics. A traced run
//! replays the same generated inputs with spans around each layer's entry
//! points and reports per-layer metrics instead. See `README.md` in this
//! directory.

#![forbid(unsafe_code)]

pub mod batch;
pub mod gen;
pub mod machine;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;

use report::Outcome;
use std::path::PathBuf;

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct Params {
    /// Seed every input is drawn from.
    pub seed: u64,
    /// Length of the measured phase, in seconds.
    pub seconds: f64,
    /// Directory for durable shard state and span files.
    pub state_dir: PathBuf,
    /// Test-suite sizes instead of the benchmark's.
    pub smoke: bool,
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One SB solve at |F| = 5,000, |O| = 100k.
    BatchPaper,
    /// Two in-memory 100 × 50k shards behind the TCP front door (run by
    /// hand; not gated by `BENCHMARK.json`).
    ServePublish,
    /// One durable 500 × 20k shard behind the TCP front door.
    ServeRepair,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::BatchPaper,
        Workload::ServePublish,
        Workload::ServeRepair,
    ];

    /// Name as given to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchPaper => "batch-paper",
            Workload::ServePublish => "serve-publish",
            Workload::ServeRepair => "serve-repair",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Client threads the workload's load uses.
    pub fn client_threads(self) -> usize {
        match self {
            Workload::BatchPaper => 1,
            Workload::ServePublish | Workload::ServeRepair => 2,
        }
    }

    /// Client connections the workload's load uses.
    pub fn client_connections(self) -> usize {
        match self {
            Workload::BatchPaper => 0,
            Workload::ServePublish | Workload::ServeRepair => 2,
        }
    }
}

/// End-to-end metrics that `BENCHMARK.json` gates, reported with tracing
/// off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ack_capacity_per_s", "1/s"),
    ("recover_s", "s"),
];

/// End-to-end latencies: printed with their sample counts, left out of the
/// result line. On a two-vCPU virtual machine shared with other tenants, a
/// drift in the machine's speed passes through open-loop queueing and moves
/// them by 2–5× from run to run, beyond the largest bound a gated metric
/// may carry.
pub const UNGATED: [(&str, &str); 4] = [
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("ack_p50_us", "us"),
    ("ack_p99_us", "us"),
];

/// Per-layer metrics, reported by the traced run. A layer that does no work
/// on a workload reports 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("rtree.build_s", "s"),
    ("rtree.pages", "count"),
    ("skyline.bbs_s", "s"),
    ("skyline.size", "count"),
    ("topk.list_accesses", "count"),
    ("core.sb.loops", "count"),
    ("core.sb.searches", "count"),
    ("core.sb.cpu_over_wall", "ratio"),
    ("storage.object_page_reads", "count"),
    ("storage.buffer_hit_ratio", "ratio"),
    ("wal.append_us.p50", "us"),
    ("wal.fsync_us.p50", "us"),
    ("wal.fsync_us.p99", "us"),
    ("wal.bytes_per_ack", "B"),
    ("wal.checkpoint_ms.mean", "ms"),
    ("engine.new_s", "s"),
    ("engine.apply_object_us.p50", "us"),
    ("engine.apply_object_us.p99", "us"),
    ("engine.apply_function_us.p50", "us"),
    ("engine.apply_function_us.p90", "us"),
    ("engine.repair_rounds_per_op", "ratio"),
    ("engine.object_io_per_op", "ratio"),
    ("engine.export_us.p50", "us"),
    ("engine.view_us.p50", "us"),
    ("engine.restore_s", "s"),
    ("service.ack_inproc_us.p50", "us"),
    ("service.ack_inproc_us.p90", "us"),
    ("service.read_inproc_us.p50", "us"),
    ("service.ops_per_publication", "ratio"),
    ("service.rejected_ops", "count"),
    ("net.ack_overhead_us.p50", "us"),
    ("net.read_overhead_us.p50", "us"),
    ("net.protocol_errors", "count"),
    ("net.admission_rejects", "count"),
    ("bench.sched_lag_us.p99", "us"),
    ("bench.achieved_over_offered", "ratio"),
    ("trace.unattributed_ack_share", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Per-layer values gathered by a traced run.
#[derive(Debug, Clone)]
pub struct Layers {
    values: Vec<(&'static str, &'static str, Option<f64>)>,
}

impl Default for Layers {
    fn default() -> Self {
        Self {
            values: PER_LAYER.iter().map(|&(n, u)| (n, u, None)).collect(),
        }
    }
}

impl Layers {
    /// Sets a per-layer value. Panics on a name missing from [`PER_LAYER`],
    /// which is a bug in this benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .iter_mut()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        slot.2 = Some(value);
    }

    /// Sets a per-layer percentile when the sample supports it; an empty
    /// sample leaves the layer idle (0), and a sample too small for the
    /// percentile leaves the metric out and notes it.
    pub fn set_percentile(&mut self, out: &mut Outcome, name: &str, sample: &[f64], q: f64) {
        if sample.is_empty() {
            return;
        }
        match stats::percentile(&stats::sorted(sample.to_vec()), q) {
            Some(p) => {
                self.set(name, p.value);
                out.note(format!("{name}: n={} beyond={}", p.samples, p.beyond));
            }
            None => {
                out.note(format!("{name}: not reported, {} samples", sample.len()));
                self.values.retain(|(n, _, _)| *n != name);
            }
        }
    }

    /// Moves every value into the outcome's metrics; unset ones report 0.
    pub fn into_outcome(self, out: &mut Outcome) {
        for (name, unit, value) in self.values {
            let basis = if value.is_some() {
                "traced"
            } else {
                "layer idle"
            };
            out.metric(name, value.unwrap_or(0.0), unit, basis);
        }
    }
}

/// Runs one workload; `Err` is a set-up failure (nothing was measured).
pub fn run(workload: Workload, params: &Params, traced: bool) -> Result<Outcome, String> {
    let mut layers = Layers::default();
    let mut out = match workload {
        Workload::BatchPaper => {
            let shape = if params.smoke {
                batch::SMOKE
            } else {
                batch::PAPER
            };
            if traced {
                batch::run_traced(shape, params, &mut layers)
            } else {
                batch::run(shape, params)
            }
        }
        Workload::ServePublish | Workload::ServeRepair => {
            let shape = serve::shape(workload, params.smoke);
            if traced {
                serve::run_traced(&shape, params, &mut layers)?
            } else {
                serve::run(&shape, params)?
            }
        }
    };
    if traced {
        layers.into_outcome(&mut out);
    }
    Ok(out)
}

/// Writes a traced run's spans under the state directory and notes where.
pub fn write_spans(params: &Params, workload: &str, tracer: &trace::Tracer, out: &mut Outcome) {
    let path = params
        .state_dir
        .join(format!("spans-{workload}-{}.tsv", params.seed));
    match tracer.write_tsv(&path) {
        Ok(()) => out.note(format!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(e) => out.note(format!("spans: not written ({e})")),
    }
}

/// Notes, per span name, the count, median self time and total self time.
pub fn self_time_notes(tracer: &trace::Tracer, out: &mut Outcome) {
    let own = trace::self_times(tracer.spans());
    let mut by_name: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for (span, ns) in tracer.spans().iter().zip(own) {
        by_name.entry(span.name).or_default().push(ns as f64 / 1e3);
    }
    out.note("self time by span: name count p50_us total_ms");
    for (name, selfs) in by_name {
        out.note(format!(
            "  {name:<22} {:>7} {:>12.1} {:>12.1}",
            selfs.len(),
            stats::median(&selfs).unwrap_or(0.0),
            selfs.iter().sum::<f64>() / 1e3
        ));
    }
}
