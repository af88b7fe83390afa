//! engine_bench — incremental repair vs. full recompute under update streams.
//!
//! For every workload cell (object distribution × update-rate) the harness
//! builds an initial problem, feeds a deterministic arrival/departure stream
//! through a long-lived [`AssignmentEngine`], and after **every** update also
//! re-solves the current snapshot from scratch with the batch SB solver
//! (fresh R-tree, fresh BBS). It compares the two matchings canonically — any
//! divergence is a correctness bug and fails the process — and accumulates
//! both sides' object-tree I/O and wall time into `BENCH_engine.json`.
//!
//! A separate **churn-soak** cell drives a long 50%-churn object stream
//! through two engines — compaction enabled (default) vs. tombstone-only —
//! verifying canonical oracle equality after every update and measuring
//! whether the R-tree and the per-update object I/O stay bounded as the
//! stream ages. It fails the process if the compacting engine's index grows
//! beyond a constant factor of the live population or if late-stream
//! per-update I/O degrades versus the early stream.
//!
//! An **ack-latency** cell drives a removal-heavy stream through an engine
//! that compacts inline on the ack path vs. a deferred-compaction twin whose
//! debt is drained between acks (the shard writer's background-compactor
//! split). It reports per-update ack percentiles for both and fails the
//! process if the deferred engine ever compacts inside a timed ack, if the
//! inline engine never compacts at all, or if the matchings diverge.
//!
//! A **construction** cell times `AssignmentEngine::new()` and `restore()`
//! next to the SB solve they are built on (100×5k in `--smoke`, 1000×50k
//! otherwise). Wall time is reported, not gated; the gates are machine
//! independent: construction runs zero repair rounds, and both engines'
//! matchings equal SB's canonically.
//!
//! Usage: `engine_bench [--smoke] [--out <path>]`
//!
//! CI runs `--smoke` as a gate: non-zero exit on oracle divergence, on an
//! unstable engine matching, if incremental repair fails to strictly
//! undercut the recompute baseline's total update-phase I/O in any cell, or
//! if construction repairs or diverges from SB.

#![forbid(unsafe_code)]

use pref_assign::{oracle, sb, verify_stable, Problem, SbOptions, SbSolver, Solver};
use pref_bench::percentile_us;
use pref_datagen::{update_stream, ObjectDistribution, UpdateStreamConfig};
use pref_engine::{AssignmentEngine, EngineOptions};
use pref_rtree::RecordId;
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

const DIMS: usize = 3;
const SEED: u64 = 20_090_824; // the paper's VLDB publication date

/// One workload cell of the sweep.
struct Cell {
    distribution: ObjectDistribution,
    num_functions: usize,
    num_objects: usize,
    num_events: usize,
}

/// One measurement row of the emitted JSON.
#[derive(Debug, Clone, Serialize)]
struct BenchRow {
    workload: String,
    num_functions: usize,
    num_objects: usize,
    num_events: usize,
    /// Object-tree I/O of the engine's initial BBS + stabilization.
    engine_initial_io: u64,
    /// Object-tree I/O the engine spent across the whole update stream.
    engine_update_io: u64,
    /// Wall time the engine spent applying the whole update stream.
    engine_update_wall_s: f64,
    /// Summed object-tree I/O of one full SB recompute per update.
    recompute_io: u64,
    /// Summed wall time of one full SB recompute per update (solve only,
    /// index construction excluded — charitable to the baseline).
    recompute_wall_s: f64,
    /// Pairs the engine retracted (departures + repair displacements) across
    /// the engine's lifetime; each retraction is balanced by at most one
    /// re-establishment, so this is the repair-volume measure of the cell.
    pairs_retracted: u64,
    /// `recompute_io / max(engine_update_io, 1)`.
    io_savings_factor: f64,
    /// Engine matched the recompute canonically after every single update.
    matches_oracle: bool,
}

/// The churn-soak measurement: one long 50%-churn stream, compaction
/// enabled vs. tombstone-only.
#[derive(Debug, Clone, Serialize)]
struct ChurnRow {
    workload: String,
    num_functions: usize,
    num_objects: usize,
    num_events: usize,
    /// Live objects at the end of the stream.
    live_objects_end: u64,
    /// R-tree records / nodes at the end, compaction enabled.
    compacted_tree_records: u64,
    compacted_tree_pages: u64,
    /// R-tree records / nodes at the end, tombstone-only (monotonic growth).
    tombstone_tree_records: u64,
    tombstone_tree_pages: u64,
    /// Tombstone ratio of the compacting engine at the end (≤ threshold).
    tombstone_ratio_end: f64,
    compaction_batches: u64,
    physical_deletes: u64,
    /// Freed pages that were resident in the LRU buffer when compaction
    /// dropped them (wired through `PagedStore::free`).
    buffer_invalidations: u64,
    /// Backend page writes / fsyncs on the object tree. The stock bench runs
    /// on the in-memory backend, so both must stay 0 — a regression here
    /// means the hot path started touching a durable backend.
    tree_page_writes: u64,
    tree_sync_calls: u64,
    /// Mean per-update object-tree I/O over the first / last quarter of the
    /// stream (compaction enabled). Boundedness means the last quarter does
    /// not degrade versus the first.
    io_per_update_first_quarter: f64,
    io_per_update_last_quarter: f64,
    /// Engine matched the exact oracle canonically after every update.
    matches_oracle: bool,
}

/// The ack-latency-under-compaction cell: the same removal-heavy stream
/// through an engine that compacts inline on the ack path vs. one that
/// defers compaction (the shard writer's background-compactor mode, drained
/// between acks, outside the timed region).
#[derive(Debug, Clone, Serialize)]
struct AckRow {
    workload: String,
    num_functions: usize,
    num_objects: usize,
    num_events: usize,
    /// Per-update ack latency percentiles, inline compaction (µs).
    inline_ack_p50_us: f64,
    inline_ack_p99_us: f64,
    inline_ack_max_us: f64,
    /// Per-update ack latency percentiles, deferred compaction (µs).
    deferred_ack_p50_us: f64,
    deferred_ack_p99_us: f64,
    deferred_ack_max_us: f64,
    /// Compaction batches the inline engine ran *inside* its ack path
    /// (must be > 0 for the cell to mean anything).
    inline_compaction_batches: u64,
    /// Compaction batches the deferred engine ran inside a timed ack
    /// (gated: must be 0 — that is the whole point of deferral).
    deferred_batches_in_ack_path: u64,
    /// Compaction batches the deferred engine ran in the untimed drain.
    deferred_batches_total: u64,
    /// Both engines agreed canonically after every event.
    matches_inline: bool,
}

/// The construction cell: engine construction and restore against the
/// single SB solve each of them runs.
#[derive(Debug, Clone, Serialize)]
struct ConstructionRow {
    workload: String,
    num_functions: usize,
    num_objects: usize,
    /// Bulk-loading the R-tree (part of `new()` and `restore()`).
    tree_build_s: f64,
    /// SB on a freshly built tree, solve only.
    sb_solve_s: f64,
    /// `AssignmentEngine::new()`: tree build + SB + adopting its result.
    new_s: f64,
    /// `AssignmentEngine::restore()` from the new engine's export.
    restore_s: f64,
    /// Repair rounds run by `new()` / `restore()` (gated: must be 0).
    new_repair_rounds: u64,
    restore_repair_rounds: u64,
    /// Pairs in the matching.
    pairs: usize,
    /// Both engines' matchings equal SB's canonically.
    matches_sb: bool,
}

#[derive(Debug, Clone, Serialize)]
struct BenchReport {
    bench: String,
    scale: String,
    created_unix_s: u64,
    rows: Vec<BenchRow>,
    churn: Vec<ChurnRow>,
    ack: Vec<AckRow>,
    construction: Vec<ConstructionRow>,
}

fn main() {
    let mut smoke = false;
    let mut out = PathBuf::from("BENCH_engine.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => match args.next() {
                Some(path) => out = PathBuf::from(path),
                None => {
                    eprintln!("--out requires a path; try --help");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: engine_bench [--smoke] [--out <path>]");
                return;
            }
            other => {
                eprintln!("unknown option {other}; try --help");
                std::process::exit(2);
            }
        }
    }

    let distributions = [
        ObjectDistribution::Independent,
        ObjectDistribution::Correlated,
        ObjectDistribution::AntiCorrelated,
    ];
    // update-rate sweep: events per stream against a fixed base population
    let (num_functions, num_objects, rates): (usize, usize, &[usize]) = if smoke {
        (40, 800, &[8, 24])
    } else {
        (100, 5_000, &[16, 64, 128])
    };
    let cells: Vec<Cell> = distributions
        .iter()
        .flat_map(|&distribution| {
            rates.iter().map(move |&num_events| Cell {
                distribution,
                num_functions,
                num_objects,
                num_events,
            })
        })
        .collect();

    let mut rows = Vec::new();
    let mut failed = false;

    for cell in &cells {
        let workload = cell.distribution.label().to_string();
        eprintln!(
            "== {} |F|={} |O|={} events={} ==",
            workload, cell.num_functions, cell.num_objects, cell.num_events
        );
        let problem = build_problem(cell);
        let live_objects: Vec<RecordId> = problem.objects().iter().map(|o| o.id).collect();
        let live_functions: Vec<u64> = problem.functions().iter().map(|f| f.id.0 as u64).collect();
        let events = update_stream(
            &UpdateStreamConfig {
                num_events: cell.num_events,
                dims: DIMS,
                distribution: cell.distribution,
                insert_fraction: 0.5,
                object_fraction: 0.7,
                min_objects: 1,
                min_functions: 1,
                max_capacity: 1,
                seed: SEED ^ cell.num_events as u64,
            },
            &live_objects,
            &live_functions,
        );

        let mut engine = AssignmentEngine::new(&problem, &EngineOptions::default()).unwrap();
        let solver = SbSolver::default();
        let mut engine_wall = 0.0f64;
        let mut recompute_io = 0u64;
        let mut recompute_wall = 0.0f64;
        let mut matches = true;
        for (step, event) in events.iter().enumerate() {
            let started = Instant::now();
            engine.apply(event).expect("stream events are valid");
            engine_wall += started.elapsed().as_secs_f64();

            // full recompute baseline on the current snapshot
            let snapshot = engine
                .snapshot_problem()
                .expect("populations stay non-empty");
            let mut tree = snapshot.build_tree(None, 0.02);
            let started = Instant::now();
            let batch = solver.solve(&snapshot, &mut tree);
            recompute_wall += started.elapsed().as_secs_f64();
            recompute_io += batch.metrics.object_io.io_accesses();

            if batch.assignment.canonical() != engine.assignment().canonical() {
                matches = false;
                failed = true;
                eprintln!("!! divergence on {workload} at update #{step} ({event:?})");
            }
            if smoke || step % 16 == 0 || step + 1 == events.len() {
                if let Err(violation) = verify_stable(&snapshot, &engine.assignment()) {
                    matches = false;
                    failed = true;
                    eprintln!("!! unstable on {workload} at update #{step}: {violation}");
                }
            }
        }

        let stats = engine.stats();
        let engine_update_io = engine.update_object_io().io_accesses();
        if engine_update_io >= recompute_io {
            failed = true;
            eprintln!(
                "!! incremental repair did not undercut recompute on {workload}: {engine_update_io} vs {recompute_io}"
            );
        }
        let row = BenchRow {
            workload,
            num_functions: cell.num_functions,
            num_objects: cell.num_objects,
            num_events: cell.num_events,
            engine_initial_io: engine.initial_object_io().io_accesses(),
            engine_update_io,
            engine_update_wall_s: engine_wall,
            recompute_io,
            recompute_wall_s: recompute_wall,
            pairs_retracted: stats.pairs_retracted,
            io_savings_factor: recompute_io as f64 / engine_update_io.max(1) as f64,
            matches_oracle: matches,
        };
        eprintln!(
            "  engine: update_io={} wall={:.4}s | recompute: io={} wall={:.4}s | savings x{:.1}",
            row.engine_update_io,
            row.engine_update_wall_s,
            row.recompute_io,
            row.recompute_wall_s,
            row.io_savings_factor
        );
        rows.push(row);
    }

    let (churn_row, churn_failed) = run_churn_soak(smoke);
    failed |= churn_failed;

    let (ack_row, ack_failed) = run_ack_cell(smoke);
    failed |= ack_failed;

    let (construction_row, construction_failed) = run_construction_cell(smoke);
    failed |= construction_failed;

    let report = BenchReport {
        bench: "engine".to_string(),
        scale: if smoke { "smoke" } else { "default" }.to_string(),
        created_unix_s: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        rows,
        churn: vec![churn_row],
        ack: vec![ack_row],
        construction: vec![construction_row],
    };
    // lint: allow(no-raw-fs) -- bench report output, not durable state
    let file = std::fs::File::create(&out).expect("create bench output file");
    serde_json::to_writer_pretty(std::io::BufWriter::new(file), &report)
        .expect("serialize bench report");
    eprintln!("wrote {}", out.display());

    if failed {
        eprintln!(
            "FAILED: divergence, instability, no I/O savings, or repairing construction (see log above)"
        );
        std::process::exit(1);
    }
}

/// Drives the churn-soak cell: a long 50%-churn object stream through a
/// compacting engine and a tombstone-only twin. Returns the measurement row
/// and whether any gate failed (divergence, instability, unbounded index
/// growth, or late-stream I/O degradation).
fn run_churn_soak(smoke: bool) -> (ChurnRow, bool) {
    let (num_functions, num_objects, num_events) = if smoke {
        (24usize, 320usize, 400usize)
    } else {
        (32, 640, 2_400)
    };
    eprintln!("== churn-soak |F|={num_functions} |O|={num_objects} events={num_events} ==");
    let problem = build_problem(&Cell {
        distribution: ObjectDistribution::Independent,
        num_functions,
        num_objects,
        num_events,
    });
    let live_objects: Vec<RecordId> = problem.objects().iter().map(|o| o.id).collect();
    let live_functions: Vec<u64> = problem.functions().iter().map(|f| f.id.0 as u64).collect();
    let events = update_stream(
        &UpdateStreamConfig {
            num_events,
            dims: DIMS,
            distribution: ObjectDistribution::Independent,
            insert_fraction: 0.5,
            object_fraction: 0.9,
            min_objects: num_objects / 4,
            min_functions: 4,
            max_capacity: 1,
            seed: SEED ^ 0xc4u64,
        },
        &live_objects,
        &live_functions,
    );

    let compacting = EngineOptions::default();
    let tombstoning = EngineOptions {
        compaction_threshold: None,
        ..EngineOptions::default()
    };
    let mut engine = AssignmentEngine::new(&problem, &compacting).unwrap();
    let mut twin = AssignmentEngine::new(&problem, &tombstoning).unwrap();
    let io_start = engine.update_object_io().io_accesses();
    debug_assert_eq!(io_start, 0);

    let mut failed = false;
    let mut matches = true;
    let quarter = num_events / 4;
    let mut io_at_quarter = [0u64; 2]; // io after first quarter, before last
    let mut worst_growth = 0.0f64;
    for (step, event) in events.iter().enumerate() {
        engine.apply(event).expect("stream events are valid");
        twin.apply(event).expect("stream events are valid");

        let snapshot = engine
            .snapshot_problem()
            .expect("populations stay non-empty");
        let canonical = engine.assignment().canonical();
        if canonical != oracle(&snapshot).canonical() {
            matches = false;
            failed = true;
            eprintln!("!! churn-soak oracle divergence at update #{step} ({event:?})");
        }
        if canonical != twin.assignment().canonical() {
            matches = false;
            failed = true;
            eprintln!("!! compaction changed the matching at update #{step} ({event:?})");
        }
        if step % 16 == 0 || step + 1 == events.len() {
            if let Err(violation) = verify_stable(&snapshot, &engine.assignment()) {
                matches = false;
                failed = true;
                eprintln!("!! churn-soak unstable at update #{step}: {violation}");
            }
        }
        let stats = engine.stats();
        worst_growth =
            worst_growth.max(stats.tree_records as f64 / stats.live_objects.max(1) as f64);
        if step + 1 == quarter {
            io_at_quarter[0] = engine.update_object_io().io_accesses();
        }
        if step + 1 == num_events - quarter {
            io_at_quarter[1] = engine.update_object_io().io_accesses();
        }
    }

    let stats = engine.stats();
    let twin_stats = twin.stats();
    let total_io = engine.update_object_io().io_accesses();
    let first_q = io_at_quarter[0] as f64 / quarter as f64;
    let last_q = (total_io - io_at_quarter[1]) as f64 / quarter as f64;

    // gate: the index must stay within a constant factor of the live
    // population at every point of the stream (threshold 0.25 ⇒ ≤ 4/3)
    if worst_growth > 2.0 {
        failed = true;
        eprintln!("!! churn-soak index growth unbounded: peak {worst_growth:.2}x live population");
    }
    // gate: the in-memory backend never writes pages or fsyncs
    if stats.tree_page_writes != 0 || stats.tree_sync_calls != 0 {
        failed = true;
        eprintln!(
            "!! in-memory bench performed durable I/O: {} page writes, {} syncs",
            stats.tree_page_writes, stats.tree_sync_calls
        );
    }
    // gate: per-update I/O must not degrade as the stream ages
    if last_q > 3.0 * first_q + 2.0 {
        failed = true;
        eprintln!(
            "!! churn-soak per-update I/O degraded: first quarter {first_q:.2}, last {last_q:.2}"
        );
    }
    let row = ChurnRow {
        workload: "churn-soak".to_string(),
        num_functions,
        num_objects,
        num_events,
        live_objects_end: stats.live_objects,
        compacted_tree_records: stats.tree_records,
        compacted_tree_pages: stats.tree_pages,
        tombstone_tree_records: twin_stats.tree_records,
        tombstone_tree_pages: twin_stats.tree_pages,
        tombstone_ratio_end: stats.tombstone_ratio(),
        compaction_batches: stats.compaction_batches,
        physical_deletes: stats.physical_deletes,
        buffer_invalidations: engine.total_object_io().buffer_invalidations,
        tree_page_writes: stats.tree_page_writes,
        tree_sync_calls: stats.tree_sync_calls,
        io_per_update_first_quarter: first_q,
        io_per_update_last_quarter: last_q,
        matches_oracle: matches,
    };
    eprintln!(
        "  compacted: {} records / {} pages (peak {:.2}x live) | tombstone-only: {} records / {} pages | io/update first {:.2} last {:.2} | {} deletes in {} batches",
        row.compacted_tree_records,
        row.compacted_tree_pages,
        worst_growth,
        row.tombstone_tree_records,
        row.tombstone_tree_pages,
        row.io_per_update_first_quarter,
        row.io_per_update_last_quarter,
        row.physical_deletes,
        row.compaction_batches
    );
    (row, failed)
}

/// Drives the ack-latency cell: a removal-heavy stream through an inline-
/// compacting engine and a deferred-compaction twin. The twin's compaction
/// debt is drained *between* events, outside the timed region — exactly the
/// shard writer's background-compactor split. Returns the row and whether a
/// gate failed (canonical divergence, compaction inside a deferred ack, or
/// an inline engine that never compacted).
fn run_ack_cell(smoke: bool) -> (AckRow, bool) {
    let (num_functions, num_objects, num_events) = if smoke {
        (24usize, 320usize, 240usize)
    } else {
        (32, 640, 900)
    };
    eprintln!(
        "== ack-under-compaction |F|={num_functions} |O|={num_objects} events={num_events} =="
    );
    let problem = build_problem(&Cell {
        distribution: ObjectDistribution::Independent,
        num_functions,
        num_objects,
        num_events,
    });
    let live_objects: Vec<RecordId> = problem.objects().iter().map(|o| o.id).collect();
    let live_functions: Vec<u64> = problem.functions().iter().map(|f| f.id.0 as u64).collect();
    let events = update_stream(
        &UpdateStreamConfig {
            num_events,
            dims: DIMS,
            distribution: ObjectDistribution::Independent,
            insert_fraction: 0.35, // removal-heavy: keeps the compactor in debt
            object_fraction: 1.0,
            min_objects: num_objects / 5,
            min_functions: 4,
            max_capacity: 1,
            seed: SEED ^ 0xacu64,
        },
        &live_objects,
        &live_functions,
    );

    let inline_opts = EngineOptions {
        compaction_threshold: Some(0.05),
        compaction_batch: 16,
        ..EngineOptions::default()
    };
    let deferred_opts = EngineOptions {
        deferred_compaction: true,
        ..inline_opts.clone()
    };
    let mut inline = AssignmentEngine::new(&problem, &inline_opts).unwrap();
    let mut deferred = AssignmentEngine::new(&problem, &deferred_opts).unwrap();

    let mut failed = false;
    let mut matches = true;
    let mut inline_nanos: Vec<u64> = Vec::with_capacity(num_events);
    let mut deferred_nanos: Vec<u64> = Vec::with_capacity(num_events);
    let mut batches_in_ack_path = 0u64;
    for (step, event) in events.iter().enumerate() {
        let started = Instant::now();
        inline.apply(event).expect("stream events are valid");
        inline_nanos.push(started.elapsed().as_nanos() as u64);

        let batches_before = deferred.stats().compaction_batches;
        let started = Instant::now();
        deferred.apply(event).expect("stream events are valid");
        deferred_nanos.push(started.elapsed().as_nanos() as u64);
        batches_in_ack_path += deferred.stats().compaction_batches - batches_before;

        // the background compactor catches up between acks, untimed
        while deferred.run_compaction_batch() {}

        if inline.assignment().canonical() != deferred.assignment().canonical() {
            matches = false;
            failed = true;
            eprintln!(
                "!! ack cell: deferred compaction changed the matching at #{step} ({event:?})"
            );
        }
    }

    if batches_in_ack_path != 0 {
        failed = true;
        eprintln!(
            "!! deferred engine compacted {batches_in_ack_path} batch(es) inside the ack path"
        );
    }
    let inline_batches = inline.stats().compaction_batches;
    if inline_batches == 0 {
        failed = true;
        eprintln!("!! ack cell never triggered inline compaction — the cell measured nothing");
    }
    inline_nanos.sort_unstable();
    deferred_nanos.sort_unstable();
    let row = AckRow {
        workload: "ack-under-compaction".to_string(),
        num_functions,
        num_objects,
        num_events,
        inline_ack_p50_us: percentile_us(&inline_nanos, 0.50),
        inline_ack_p99_us: percentile_us(&inline_nanos, 0.99),
        inline_ack_max_us: percentile_us(&inline_nanos, 1.0),
        deferred_ack_p50_us: percentile_us(&deferred_nanos, 0.50),
        deferred_ack_p99_us: percentile_us(&deferred_nanos, 0.99),
        deferred_ack_max_us: percentile_us(&deferred_nanos, 1.0),
        inline_compaction_batches: inline_batches,
        deferred_batches_in_ack_path: batches_in_ack_path,
        deferred_batches_total: deferred.stats().compaction_batches,
        matches_inline: matches,
    };
    eprintln!(
        "  inline ack: p50={:.1}us p99={:.1}us max={:.1}us ({} compaction batches on the ack path)",
        row.inline_ack_p50_us,
        row.inline_ack_p99_us,
        row.inline_ack_max_us,
        row.inline_compaction_batches
    );
    eprintln!(
        "  deferred ack: p50={:.1}us p99={:.1}us max={:.1}us ({} batches drained off-path, 0 on-path)",
        row.deferred_ack_p50_us, row.deferred_ack_p99_us, row.deferred_ack_max_us, row.deferred_batches_total
    );
    (row, failed)
}

/// Drives the construction cell: `new()` and `restore()` against one SB
/// solve of the same problem. Returns the row and whether a gate failed
/// (a repair round during construction, or a matching other than SB's).
fn run_construction_cell(smoke: bool) -> (ConstructionRow, bool) {
    let (num_functions, num_objects) = if smoke {
        (100usize, 5_000usize)
    } else {
        (1_000, 50_000)
    };
    eprintln!("== construction |F|={num_functions} |O|={num_objects} ==");
    let problem = build_problem(&Cell {
        distribution: ObjectDistribution::Independent,
        num_functions,
        num_objects,
        num_events: 0,
    });
    let options = EngineOptions::default();

    let started = Instant::now();
    let mut tree = problem.build_tree(options.fanout, options.buffer_fraction);
    let tree_build_s = started.elapsed().as_secs_f64();
    let sb_options = SbOptions {
        threads: options.threads,
        ..SbOptions::default()
    };
    let started = Instant::now();
    let solved = sb(&problem, &mut tree, &sb_options);
    let sb_solve_s = started.elapsed().as_secs_f64();
    drop(tree);

    let started = Instant::now();
    let engine = AssignmentEngine::new(&problem, &options).unwrap();
    let new_s = started.elapsed().as_secs_f64();
    let export = engine.export_snapshot();
    let started = Instant::now();
    let restored = AssignmentEngine::restore(&export, &options).unwrap();
    let restore_s = started.elapsed().as_secs_f64();

    let mut failed = false;
    let want = solved.assignment.canonical();
    let matches_sb =
        engine.assignment().canonical() == want && restored.assignment().canonical() == want;
    if !matches_sb {
        failed = true;
        eprintln!("!! construction: the engine's matching differs from SB's");
    }
    let new_repair_rounds = engine.stats().repair_rounds;
    let restore_repair_rounds = restored.stats().repair_rounds;
    if new_repair_rounds != 0 || restore_repair_rounds != 0 {
        failed = true;
        eprintln!(
            "!! construction ran repair rounds: new() {new_repair_rounds}, restore() {restore_repair_rounds}"
        );
    }
    let row = ConstructionRow {
        workload: "construction".to_string(),
        num_functions,
        num_objects,
        tree_build_s,
        sb_solve_s,
        new_s,
        restore_s,
        new_repair_rounds,
        restore_repair_rounds,
        pairs: solved.assignment.len(),
        matches_sb,
    };
    eprintln!(
        "  tree build {:.3}s + SB solve {:.3}s | new() {:.3}s | restore() {:.3}s | {} pairs, repair rounds {}/{}",
        row.tree_build_s,
        row.sb_solve_s,
        row.new_s,
        row.restore_s,
        row.pairs,
        row.new_repair_rounds,
        row.restore_repair_rounds
    );
    (row, failed)
}

/// Deterministic initial workload (same recipe as `solver_bench`).
fn build_problem(cell: &Cell) -> Problem {
    let functions = pref_datagen::uniform_weight_functions(cell.num_functions, DIMS, SEED ^ 0x00f1);
    let objects = cell
        .distribution
        .generate(cell.num_objects, DIMS, SEED ^ 0x0bad);
    Problem::from_parts(functions, objects).expect("generated workloads are valid")
}
