//! `batch-paper`: the paper's own experiment, one SB solve at its Table 2
//! defaults. The solver stack (core, skyline, topk, rtree, storage) does all
//! the work; the serving layers do none.

use crate::gen::Population;
use crate::machine::{peak_rss_mb, process_cpu_s};
use crate::report::Outcome;
use crate::stats::mean;
use crate::trace::{span_cost_ns, Tracer};
use crate::{Layers, Params};
use pref_assign::{
    sb, verify_stable, Assignment, AssignmentResult, AssignmentView, FunctionId, Problem, SbOptions,
};
use pref_rtree::RecordId;
use std::time::{Duration, Instant};

/// Size of the batch problem.
#[derive(Debug, Clone, Copy)]
pub struct BatchShape {
    /// |F|.
    pub functions: usize,
    /// |O|.
    pub objects: usize,
}

/// The paper's default: |F| = 5,000 functions, |O| = 100k objects.
pub const PAPER: BatchShape = BatchShape {
    functions: 5_000,
    objects: 100_000,
};

/// A shape small enough for the test suite.
pub const SMOKE: BatchShape = BatchShape {
    functions: 60,
    objects: 3_000,
};

/// Seconds of `--seconds` per solve. A paper-scale solve takes about this
/// long, and the solve count must not depend on the machine's speed, or a
/// run would flip between two and three solves.
const SECONDS_PER_SOLVE: f64 = 10.0;
/// Set-ups per measurement window.
const WINDOW_SETUPS: usize = 2;
/// Timed blocks of point reads of the solved matching per run.
const READ_BLOCKS: usize = 4_000;
/// Point reads per timed block: one read takes tens of nanoseconds, too
/// close to the clock's own cost to time alone.
const READS_PER_BLOCK: usize = 32;
/// Rebuilds of the read view per measurement window. One takes a few
/// milliseconds, so a window of them alone would cover only a moment of
/// the run; windows after every solve and at the end spread them over it.
const WINDOW_VIEWS: usize = 60;
/// R-tree LRU buffer, as a share of the tree (the paper's default).
const BUFFER_FRACTION: f64 = 0.02;

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The read view of a solved matching, over every function and object.
struct ViewInputs {
    functions: Vec<FunctionId>,
    objects: Vec<RecordId>,
}

impl ViewInputs {
    fn new(problem: &Problem) -> Self {
        Self {
            functions: problem.functions().iter().map(|f| f.id).collect(),
            objects: problem.objects().iter().map(|o| o.id).collect(),
        }
    }

    fn build(&self, assignment: &Assignment) -> Result<AssignmentView, String> {
        AssignmentView::from_assignment(self.functions.clone(), self.objects.clone(), assignment)
            .map_err(|e| format!("view rebuild failed: {e:?}"))
    }
}

/// One measurement window: [`WINDOW_SETUPS`] set-ups and [`WINDOW_VIEWS`]
/// rebuilds of the read view of `assignment`, each timed on its own.
fn window(
    population: &Population,
    views: &ViewInputs,
    assignment: &Assignment,
    setups: &mut Vec<f64>,
    rebuilds: &mut Vec<f64>,
) -> Result<(), String> {
    for _ in 0..WINDOW_SETUPS {
        let t = Instant::now();
        let problem = population.problem();
        let tree = problem.build_tree(None, BUFFER_FRACTION);
        setups.push(secs(t.elapsed()));
        std::hint::black_box((problem, tree));
    }
    for _ in 0..WINDOW_VIEWS {
        let t = Instant::now();
        let view = views.build(assignment)?;
        rebuilds.push(secs(t.elapsed()));
        std::hint::black_box(view);
    }
    Ok(())
}

/// The measured run: one solve per [`SECONDS_PER_SOLVE`] of `--seconds` (at
/// least one), each on a fresh problem and tree and each followed by a
/// measurement window, then the correctness checks and a last window.
pub fn run(shape: BatchShape, params: &Params) -> Outcome {
    let population = Population::generate(params.seed, 0, shape.functions, shape.objects);
    let views = ViewInputs::new(&population.problem());
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut round_setups = Vec::new();
    let mut solves = Vec::new();
    let mut rebuilds = Vec::new();
    let mut results: Vec<AssignmentResult> = Vec::new();
    let rounds = ((params.seconds / SECONDS_PER_SOLVE) as usize).max(1);
    for _ in 0..rounds {
        let t = Instant::now();
        let problem = population.problem();
        let mut tree = problem.build_tree(None, BUFFER_FRACTION);
        round_setups.push(secs(t.elapsed()));
        let t = Instant::now();
        let result = sb(&problem, &mut tree, &SbOptions::default());
        solves.push(secs(t.elapsed()));
        drop((problem, tree));
        if let Err(e) = window(
            &population,
            &views,
            &result.assignment,
            &mut setups,
            &mut rebuilds,
        ) {
            out.check("read_view", false, e);
            return out;
        }
        results.push(result);
    }
    // Timings are means over samples spread across the run: the machine's
    // speed moves between spells, and a median jumps from one spell's speed
    // to another's as their shares shift, where a mean moves with them.
    let solve_s = mean(&solves).expect("at least one solve");
    setups.extend(&round_setups);
    out.attempted = solves.len() as u64;
    out.metric(
        "solve_s",
        solve_s,
        "s",
        format!("mean of {} solves", solves.len()),
    );

    // Every user's request is acknowledged when its batch returns: the wait
    // is the set-up plus the solve of that batch, for all |F| users at once.
    let mut ack_waits = Vec::with_capacity(solves.len() * shape.functions);
    for (setup, solve) in round_setups.iter().zip(&solves) {
        ack_waits.extend(std::iter::repeat_n((setup + solve) * 1e6, shape.functions));
    }
    out.percentile("ack_p50_us", &ack_waits, 0.50, "us");
    out.percentile("ack_p99_us", &ack_waits, 0.99, "us");

    // Correctness, outside the timed region.
    let problem = population.problem();
    let first = &results[0].assignment;
    let expected = problem.expected_pairs();
    let sizes_ok = results
        .iter()
        .all(|r| r.assignment.len() as u64 == expected);
    out.check(
        "expected_pairs",
        sizes_ok,
        format!("every solve has {expected} pairs"),
    );
    let canonical = first.canonical();
    let same = results
        .iter()
        .all(|r| r.assignment.canonical() == canonical);
    out.check(
        "solves_agree",
        same,
        format!("{} solves, one matching", results.len()),
    );
    let stable = verify_stable(&problem, first);
    out.check(
        "verify_stable",
        stable.is_ok(),
        stable.map_or_else(|e| e.to_string(), |()| "no blocking pair".to_string()),
    );
    drop(problem);

    let view = match window(&population, &views, first, &mut setups, &mut rebuilds)
        .and_then(|()| views.build(first))
    {
        Ok(view) => view,
        Err(e) => {
            out.check("read_view", false, e);
            return out;
        }
    };
    let setup_s = mean(&setups).expect("at least one set-up");
    out.metric(
        "setup_s",
        setup_s,
        "s",
        format!("mean of {} set-ups", setups.len()),
    );
    out.metric(
        "ack_capacity_per_s",
        shape.functions as f64 / (setup_s + solve_s),
        "1/s",
        "users acknowledged per second of batch",
    );
    out.metric(
        "recover_s",
        mean(&rebuilds).expect("rebuilds"),
        "s",
        format!(
            "mean of {} read-view rebuilds from the solved pairs, in {} windows",
            rebuilds.len(),
            rounds + 1
        ),
    );
    out.note(format!("solve_s samples in run order: {solves:.4?}"));
    out.note(format!("setup_s samples in run order: {setups:.4?}"));
    let window_means: Vec<f64> = rebuilds.chunks(WINDOW_VIEWS).filter_map(mean).collect();
    out.note(format!(
        "recover_s window means in run order: {window_means:.5?}"
    ));
    let functions = &views.functions;
    let mut g = crate::gen::SplitMix::new(params.seed, 0x4ead);
    let mut reads = Vec::with_capacity(READ_BLOCKS);
    let mut missing = 0u64;
    for _ in 0..READ_BLOCKS {
        let block: Vec<FunctionId> = (0..READS_PER_BLOCK)
            .map(|_| functions[g.below(functions.len())])
            .collect();
        let t = Instant::now();
        let found = block
            .iter()
            .filter(|&&f| {
                view.objects_of(f)
                    .is_some_and(|mut objs| objs.next().is_some())
            })
            .count();
        let elapsed = t.elapsed();
        let misses = (READS_PER_BLOCK - found) as u64;
        missing += misses;
        reads.push(if misses == 0 {
            elapsed.as_nanos() as f64 / 1e3 / READS_PER_BLOCK as f64
        } else {
            f64::INFINITY
        });
    }
    let total_reads = (READ_BLOCKS * READS_PER_BLOCK) as u64;
    out.attempted += total_reads;
    out.failed += missing;
    out.check(
        "reads_found",
        missing == 0,
        format!("{missing} of {total_reads} reads missed"),
    );
    out.percentile("read_p50_us", &reads, 0.50, "us");
    out.percentile("read_p99_us", &reads, 0.99, "us");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB", "VmHWM at exit");
    out
}

/// The traced run: one set-up and one solve under spans, plus a BBS skyline
/// on a tree of its own, with the solver's counters.
pub fn run_traced(shape: BatchShape, params: &Params, layers: &mut Layers) -> Outcome {
    let population = Population::generate(params.seed, 0, shape.functions, shape.objects);
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let setup = tracer.open("setup", None, 0);
    let problem = tracer.leaf("core.problem", Some(setup), 0, || population.problem());
    let mut tree = tracer.leaf("rtree.build", Some(setup), 0, || {
        problem.build_tree(None, BUFFER_FRACTION)
    });
    tracer.close(setup);
    let mut bbs_tree = problem.build_tree(None, BUFFER_FRACTION);
    let skyline = tracer.leaf("skyline.bbs", None, 0, || {
        pref_skyline::compute_skyline_bbs(&mut bbs_tree)
    });
    let cpu_before = process_cpu_s();
    let solve = tracer.open("core.sb", None, 0);
    let result = sb(&problem, &mut tree, &SbOptions::default());
    tracer.close(solve);
    let cpu = process_cpu_s() - cpu_before;
    let solve_wall = tracer.spans()[solve].duration_ns() as f64 / 1e9;
    out.attempted = 1;

    let expected = problem.expected_pairs();
    out.check(
        "expected_pairs",
        result.assignment.len() as u64 == expected,
        format!("{} of {expected} pairs", result.assignment.len()),
    );
    let stable = verify_stable(&problem, &result.assignment);
    out.check(
        "verify_stable",
        stable.is_ok(),
        stable.map_or_else(|e| e.to_string(), |()| "no blocking pair".to_string()),
    );

    let m = &result.metrics;
    layers.set("rtree.build_s", tracer.durations_us("rtree.build")[0] / 1e6);
    layers.set("rtree.pages", tree.num_pages() as f64);
    layers.set("skyline.bbs_s", tracer.durations_us("skyline.bbs")[0] / 1e6);
    layers.set("skyline.size", skyline.len() as f64);
    layers.set("topk.list_accesses", m.aux_io.io_accesses() as f64);
    layers.set("core.sb.loops", m.loops as f64);
    layers.set("core.sb.searches", m.searches as f64);
    layers.set("core.sb.cpu_over_wall", cpu / solve_wall);
    layers.set(
        "storage.object_page_reads",
        m.object_io.physical_reads as f64,
    );
    layers.set("storage.buffer_hit_ratio", m.object_io.hit_ratio());
    let spans = tracer.spans().len() as f64;
    let wall = epoch.elapsed().as_secs_f64();
    layers.set("trace.overhead", spans * span_cost_ns() / 1e9 / wall);
    crate::self_time_notes(&tracer, &mut out);
    crate::write_spans(params, "batch-paper", &tracer, &mut out);
    out
}
