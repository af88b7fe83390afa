//! The incremental engine: state, update operations and the repair loop.

use pref_assign::{
    sb_with_skyline, Assignment, AssignmentView, FunctionId, ObjectRecord, PreferenceFunction,
    Problem, SbOptions,
};
use pref_datagen::UpdateEvent;
use pref_geom::{Point, ScoreTable, SoaBlock};
use pref_rtree::{DataEntry, NodeEntry, RTree, RecordId};
use pref_skyline::{insert_skyline, update_skyline_filtered, Skyline};
use pref_storage::IoStats;
use pref_sync::WorkStealingPool;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Configuration of an [`AssignmentEngine`].
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// R-tree fanout override (`None` = the page-size derived default).
    pub fanout: Option<usize>,
    /// LRU buffer size as a fraction of the built tree (paper default: 2%).
    /// Must lie in `[0, 1]`.
    pub buffer_fraction: f64,
    /// Tombstone-ratio bound that triggers incremental compaction: when more
    /// than this fraction of the R-tree's records are tombstoned departures,
    /// the engine physically deletes tombstones batch-by-batch until the
    /// ratio is restored. `None` disables compaction (departures stay
    /// logical forever — the pre-compaction behaviour, which grows the index
    /// monotonically under churn). Must lie in `[0, 1]`;
    /// `Some(0.0)` deletes every departure immediately.
    pub compaction_threshold: Option<f64>,
    /// Maximum number of tombstoned records physically deleted per
    /// compaction batch (bounds the work of a single batch; must be ≥ 1).
    pub compaction_batch: usize,
    /// Worker threads for the repair loop's candidate scan. `None` resolves
    /// via [`pref_sync::resolve_threads`] (`PREF_THREADS`, then available
    /// parallelism; always 1 in model-capable builds); `Some(n)` pins `n`
    /// (must be ≥ 1). The matching is canonical-identical at any thread
    /// count — see [`AssignmentEngine::best_candidate`]'s merge contract.
    pub threads: Option<usize>,
    /// When `true`, departures never run compaction inline: the writer's
    /// update path only tombstones, and a caller-driven helper (the serving
    /// tier's background compactor) drains the debt through
    /// [`AssignmentEngine::run_compaction_batch`]. The compaction work and
    /// its outcome are identical — only *who pays* for it changes.
    pub deferred_compaction: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self {
            fanout: None,
            buffer_fraction: 0.02,
            compaction_threshold: Some(0.25),
            compaction_batch: 64,
            threads: None,
            deferred_compaction: false,
        }
    }
}

impl EngineOptions {
    /// Validates the options, returning a description of the first problem.
    pub fn validate(&self) -> Result<(), EngineError> {
        if !self.buffer_fraction.is_finite() || !(0.0..=1.0).contains(&self.buffer_fraction) {
            return Err(EngineError::InvalidOptions(format!(
                "buffer_fraction must lie in [0, 1], got {}",
                self.buffer_fraction
            )));
        }
        if let Some(threshold) = self.compaction_threshold {
            if !threshold.is_finite() || !(0.0..=1.0).contains(&threshold) {
                return Err(EngineError::InvalidOptions(format!(
                    "compaction_threshold must lie in [0, 1], got {threshold}"
                )));
            }
        }
        if self.compaction_batch == 0 {
            return Err(EngineError::InvalidOptions(
                "compaction_batch must be at least 1".into(),
            ));
        }
        if self.threads == Some(0) {
            return Err(EngineError::InvalidOptions(
                "threads must be at least 1 when set".into(),
            ));
        }
        Ok(())
    }
}

/// Errors raised by the engine's update operations.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The arriving object / function does not match the engine's
    /// dimensionality.
    DimensionMismatch {
        /// The engine's dimensionality.
        expected: usize,
        /// The arrival's dimensionality.
        got: usize,
    },
    /// The record id is already registered — alive, or departed but not yet
    /// compacted away. (Rejection of departed ids is best-effort: once
    /// compaction physically deletes a tombstone, its id is forgotten and a
    /// later arrival may legitimately re-use it — the engine purges any
    /// stale pruned-list entry of the predecessor at insertion, so re-use is
    /// safe. `pref_datagen::update_stream` still never re-issues ids.)
    DuplicateObject(RecordId),
    /// The function id is already registered — alive, or departed but its
    /// slot not yet reused (the same best-effort caveat as
    /// [`EngineError::DuplicateObject`] applies).
    DuplicateFunction(FunctionId),
    /// No live object carries this id.
    UnknownObject(RecordId),
    /// No live function carries this id.
    UnknownFunction(FunctionId),
    /// The live population is empty, so no problem snapshot exists.
    EmptyProblem,
    /// The [`EngineOptions`] are invalid (message describes the problem).
    InvalidOptions(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            EngineError::DuplicateObject(id) => write!(f, "duplicate object id {id}"),
            EngineError::DuplicateFunction(id) => write!(f, "duplicate function id {id}"),
            EngineError::UnknownObject(id) => write!(f, "unknown object id {id}"),
            EngineError::UnknownFunction(id) => write!(f, "unknown function id {id}"),
            EngineError::EmptyProblem => write!(f, "the live population is empty"),
            EngineError::InvalidOptions(msg) => write!(f, "invalid engine options: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Counters of the engine's lifetime (cumulative) plus a snapshot of its
/// live state (gauges, filled in by [`AssignmentEngine::stats`]), so the
/// tombstone ratio driving the compaction trigger is observable.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineStats {
    /// Updates applied (all four kinds).
    pub updates: u64,
    /// Object arrivals.
    pub object_inserts: u64,
    /// Object departures.
    pub object_removes: u64,
    /// Function arrivals.
    pub function_inserts: u64,
    /// Function departures.
    pub function_removes: u64,
    /// Pairs established: the pairs construction seeds from the SB solve
    /// plus one per repair round.
    pub pairs_established: u64,
    /// Pairs retracted by departures and repairs.
    pub pairs_retracted: u64,
    /// Repair-loop iterations executed by updates (one per pair the repair
    /// loop establishes). Construction runs zero: its pairs come from SB.
    pub repair_rounds: u64,
    /// Compaction batches executed.
    pub compaction_batches: u64,
    /// Tombstoned records physically deleted from the R-tree by compaction.
    pub physical_deletes: u64,
    /// Gauge: objects currently alive.
    pub live_objects: u64,
    /// Gauge: functions currently alive.
    pub live_functions: u64,
    /// Gauge: departed objects still resident in the R-tree as tombstones.
    pub tombstoned_objects: u64,
    /// Gauge: records currently indexed by the R-tree (live + tombstoned).
    pub tree_records: u64,
    /// Gauge: R-tree nodes (= live pages of the simulated store).
    pub tree_pages: u64,
    /// Gauge: node pages written back to a persistent storage backend (dirty
    /// evictions and flushes). Zero for the default in-memory backend.
    pub tree_page_writes: u64,
    /// Gauge: durability barriers (`fsync`-like) issued by the tree's storage
    /// backend. Zero for the default in-memory backend.
    pub tree_sync_calls: u64,
}

impl EngineStats {
    /// The fraction of R-tree records that are tombstoned departures; the
    /// compaction trigger fires when this exceeds the configured threshold.
    pub fn tombstone_ratio(&self) -> f64 {
        if self.tree_records == 0 {
            0.0
        } else {
            self.tombstoned_objects as f64 / self.tree_records as f64
        }
    }
}

/// One update operation against an engine, with the records fully
/// constructed (capacities included).
///
/// This is THE conversion point from [`UpdateEvent`] stream events to engine
/// updates — [`AssignmentEngine::apply`] and the serving tier's submission
/// path both go through it, so the two can never drift on how an event maps
/// to records.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateOp {
    /// A new object (with its capacity) arrives.
    InsertObject(ObjectRecord),
    /// A live object departs.
    RemoveObject(RecordId),
    /// A new preference function (user, with its capacity) arrives.
    InsertFunction(PreferenceFunction),
    /// A live preference function departs.
    RemoveFunction(FunctionId),
}

impl UpdateOp {
    /// Converts a datagen stream event into an applicable op.
    pub fn from_event(event: &UpdateEvent) -> Self {
        match event {
            UpdateEvent::InsertObject {
                id,
                point,
                capacity,
            } => UpdateOp::InsertObject(
                ObjectRecord::new(id.0, point.clone()).with_capacity(*capacity),
            ),
            UpdateEvent::RemoveObject { id } => UpdateOp::RemoveObject(*id),
            UpdateEvent::InsertFunction {
                id,
                function,
                capacity,
            } => UpdateOp::InsertFunction(
                PreferenceFunction::new(*id as usize, function.clone()).with_capacity(*capacity),
            ),
            UpdateEvent::RemoveFunction { id } => {
                UpdateOp::RemoveFunction(FunctionId(*id as usize))
            }
        }
    }

    /// Applies the op to an engine.
    pub fn apply(&self, engine: &mut AssignmentEngine) -> Result<(), EngineError> {
        match self {
            UpdateOp::InsertObject(object) => engine.insert_object(object.clone()),
            UpdateOp::RemoveObject(id) => engine.remove_object(*id),
            UpdateOp::InsertFunction(function) => engine.insert_function(function.clone()),
            UpdateOp::RemoveFunction(id) => engine.remove_function(*id),
        }
    }
}

/// A coherent export of the engine's live state, taken between updates — the
/// publish hook of the serving tier. One call walks the dense slabs once and
/// returns everything a published snapshot needs: the live populations (full
/// records, so the snapshot can rebuild the [`Problem`] for verification or a
/// restart), the current matching as id-level pairs, and the stats gauges at
/// export time.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    /// The live preference functions (arrival order of their dense slots).
    pub functions: Vec<PreferenceFunction>,
    /// The live objects (arrival order of their dense slots).
    pub objects: Vec<ObjectRecord>,
    /// The stable matching as `(function, object, score)` triples.
    pub pairs: Vec<(FunctionId, RecordId, f64)>,
    /// Engine stats (lifetime counters + gauges) at export time.
    pub stats: EngineStats,
}

impl EngineSnapshot {
    /// The export as a [`Problem`] (full capacities), e.g. for stability
    /// verification or an engine restart. `None` when a population is empty.
    pub fn to_problem(&self) -> Option<Problem> {
        Problem::new(self.functions.clone(), self.objects.clone()).ok()
    }

    /// The export's matching as a compact, allocation-free-queryable
    /// [`AssignmentView`] over the live populations.
    pub fn view(&self) -> AssignmentView {
        AssignmentView::from_pairs(
            self.functions.iter().map(|f| f.id).collect(),
            self.objects.iter().map(|o| o.id).collect(),
            &self.pairs,
        )
        // lint: allow(no-unwrap) -- internal invariant: pairs only ever hold live, unique ids
        .expect("engine pairs reference live ids and live ids are unique")
    }
}

/// Dense per-object state.
#[derive(Debug, Clone)]
struct ObjState {
    record: ObjectRecord,
    remaining: u32,
    alive: bool,
}

/// Dense per-function state.
#[derive(Debug, Clone)]
struct FunState {
    pref: PreferenceFunction,
    remaining: u32,
    alive: bool,
}

/// How the repair loop acquires the object slot of a new pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotKind {
    /// The object has free capacity (it is on the free-pool skyline).
    Free,
    /// The object is saturated: its worst-scoring pair is displaced.
    Steal,
}

/// One candidate repair step.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    fi: usize,
    oi: usize,
    score: f64,
    kind: SlotKind,
}

impl Candidate {
    /// Deterministic preference: higher score, then filling a free slot over
    /// displacing a pair, then lowest function / object index — mirroring the
    /// oracle's greedy consumption order. Two distinct candidates never tie
    /// (their `(fi, oi, kind)` differ), so this is a strict total order and
    /// the overall best does not depend on scan (or thread partition) order.
    fn beats(&self, other: &Candidate) -> bool {
        if self.score != other.score {
            return self.score > other.score;
        }
        if self.kind != other.kind {
            return self.kind == SlotKind::Free;
        }
        (self.fi, self.oi) < (other.fi, other.oi)
    }
}

/// Reusable buffers of the repair loop's candidate scan, rebuilt every round
/// (thresholds and the free pool change with each established pair) without
/// reallocating. The columnar mirrors and the scan lists live behind `Arc`s
/// so the parallel path can hand clones to pool workers without copying; by
/// the time a batch returns every worker clone is dropped, so the next
/// round's [`Arc::make_mut`] reuses the allocations in place.
#[derive(Debug)]
struct RepairScratch {
    /// Per-function admission threshold (see `best_candidate`).
    f_threshold: Vec<f64>,
    /// Worst pair score per object, dense by object index
    /// (`f64::INFINITY` = no pairs). Dense rather than hashed so the
    /// displacement-target scan below iterates in deterministic ascending
    /// object order.
    o_worst: Vec<f64>,
    /// `(dense function index, threshold)` of the functions worth scanning.
    active: Vec<(usize, f64)>,
    /// Columnar mirror of the free-pool skyline points.
    sky_block: Arc<SoaBlock>,
    /// Dense object index of each `sky_block` row.
    sky_ois: Arc<Vec<usize>>,
    /// Columnar mirror of the saturated displacement targets' points.
    steal_block: Arc<SoaBlock>,
    /// `(dense object index, worst pair score)` of each `steal_block` row.
    steal: Arc<Vec<(usize, f64)>>,
    /// Score lane for the serial path.
    scores: Vec<f64>,
}

impl RepairScratch {
    fn new() -> Self {
        Self {
            f_threshold: Vec::new(),
            o_worst: Vec::new(),
            active: Vec::new(),
            sky_block: Arc::new(SoaBlock::new()),
            sky_ois: Arc::new(Vec::new()),
            steal_block: Arc::new(SoaBlock::new()),
            steal: Arc::new(Vec::new()),
            scores: Vec::new(),
        }
    }
}

/// Candidate-scan work (active functions × scan rows) below which the pool
/// is not worth waking: a round of dot products at this size costs less than
/// the batch handshake.
const PARALLEL_WORK_FLOOR: usize = 4096;

/// Scans one function's admissible candidates — free skyline slots, then
/// saturated displacement targets — folding the best into `best` under
/// [`Candidate::beats`]. Shared verbatim by the serial and parallel paths of
/// `best_candidate`, so they cannot drift.
#[allow(clippy::too_many_arguments)]
fn scan_function(
    fi: usize,
    threshold: f64,
    table: &ScoreTable,
    sky_block: &SoaBlock,
    sky_ois: &[usize],
    steal_block: &SoaBlock,
    steal: &[(usize, f64)],
    scores: &mut Vec<f64>,
    best: &mut Option<Candidate>,
) {
    // free slots: the free pool's maxima are on the skyline
    table.score_block(fi, sky_block, scores);
    for (&oi, &score) in sky_ois.iter().zip(scores.iter()) {
        if score <= threshold {
            continue;
        }
        let cand = Candidate {
            fi,
            oi,
            score,
            kind: SlotKind::Free,
        };
        if best.as_ref().is_none_or(|b| cand.beats(b)) {
            *best = Some(cand);
        }
    }
    // saturated slots: displace an object's worst pair
    table.score_block(fi, steal_block, scores);
    for (&(oi, worst), &score) in steal.iter().zip(scores.iter()) {
        if score <= threshold || score <= worst {
            continue;
        }
        let cand = Candidate {
            fi,
            oi,
            score,
            kind: SlotKind::Steal,
        };
        if best.as_ref().is_none_or(|b| cand.beats(b)) {
            *best = Some(cand);
        }
    }
}

/// A long-lived stable-assignment engine.
///
/// Owns the live problem state (functions, objects, capacities), the object
/// R-tree, the maintained skyline of the **free pool** (live objects with
/// unassigned capacity), and the current stable matching. All four update
/// operations re-stabilize incrementally; [`AssignmentEngine::assignment`]
/// always returns a matching that is stable for the current snapshot.
///
/// # Index maintenance strategy
///
/// Arrivals are inserted into the R-tree dynamically
/// ([`RTree::insert_tracked`]); the node splits this causes are patched into
/// the skyline's pruned lists, which keeps the `UpdateSkyline` machinery
/// I/O-optimal and correct across arrivals.
///
/// Departures are *logical* first (tombstoned — zero I/O; departed records
/// are filtered out of the maintenance stream) and *physical* eventually:
/// when the fraction of tombstoned records in the tree exceeds
/// [`EngineOptions::compaction_threshold`], the engine runs incremental
/// compaction — tombstones are physically deleted batch-by-batch
/// ([`RTree::delete_tracked`]), every structural effect of CondenseTree
/// (freed pages, re-inserted orphans, re-insertion splits, MBR shrinks) is
/// patched into the pruned lists (`Skyline::patch_page_delete`), freed pages
/// are invalidated in the LRU buffer by the paged store, the buffer is
/// re-sized to the shrunken tree, and the records' dense slab slots are
/// reclaimed for future arrivals. The matching is never re-solved:
/// compaction only touches the index and the bookkeeping, so the R-tree node
/// count, the pruned lists and the slabs all stay within a constant factor
/// of the live population under indefinite churn.
#[derive(Debug)]
pub struct AssignmentEngine {
    dims: usize,
    objects: Vec<ObjState>,
    obj_index: HashMap<RecordId, usize>,
    functions: Vec<FunState>,
    fun_index: HashMap<FunctionId, usize>,
    tree: RTree,
    skyline: Skyline,
    /// Current matching as `(dense function index, dense object index, score)`.
    pairs: Vec<(usize, usize, f64)>,
    stats: EngineStats,
    /// Tree I/O at the end of construction.
    initial_io: IoStats,
    /// LRU buffer sizing, re-applied after compaction shrinks the tree.
    buffer_fraction: f64,
    /// Compaction trigger (`None` = tombstones are never deleted).
    compaction_threshold: Option<f64>,
    /// Records physically deleted per compaction batch.
    compaction_batch: usize,
    /// Dense indices of departed objects still resident in the R-tree,
    /// oldest departure first (compaction consumes from the front).
    tombstones: VecDeque<usize>,
    /// Dense object slots reclaimed by compaction, reused by arrivals.
    free_obj_slots: Vec<usize>,
    /// Dense function slots of departed functions, reused by arrivals.
    free_fun_slots: Vec<usize>,
    /// When `true`, departures only tombstone; compaction is caller-driven
    /// (see [`AssignmentEngine::run_compaction_batch`]).
    deferred_compaction: bool,
    /// Batch-scoring rows aligned with the dense function slab; rebuilt when
    /// the function set changes (rows of dead slots are never scanned).
    table: ScoreTable,
    /// Worker pool for the repair scan (`None` = serial).
    pool: Option<WorkStealingPool>,
    /// Reusable per-round scan buffers.
    repair: RepairScratch,
}

impl AssignmentEngine {
    /// Builds the engine from an initial problem: bulk-loads the R-tree and
    /// runs one SB solve on it (Section 5's stable loop, with the thread
    /// count of [`EngineOptions::threads`]). The engine adopts SB's matching
    /// and the free-pool skyline SB leaves behind, pruned lists included, so
    /// construction costs one batch solve and runs no repair round. Index
    /// construction is not charged I/O (as in the batch experiments); the
    /// SB solve is, and is reported separately by
    /// [`AssignmentEngine::initial_object_io`].
    pub fn new(problem: &Problem, options: &EngineOptions) -> Result<Self, EngineError> {
        options.validate()?;
        let mut tree = problem.build_tree(options.fanout, options.buffer_fraction);
        let sb_options = SbOptions {
            threads: options.threads,
            ..SbOptions::default()
        };
        let (solved, skyline) = sb_with_skyline(problem, &mut tree, &sb_options);
        let mut objects: Vec<ObjState> = problem
            .objects()
            .iter()
            .map(|o| ObjState {
                record: o.clone(),
                remaining: o.capacity,
                alive: true,
            })
            .collect();
        let obj_index: HashMap<RecordId, usize> = objects
            .iter()
            .enumerate()
            .map(|(i, o)| (o.record.id, i))
            .collect();
        let mut functions: Vec<FunState> = problem
            .functions()
            .iter()
            .map(|f| FunState {
                pref: f.clone(),
                remaining: f.capacity,
                alive: true,
            })
            .collect();
        let fun_index: HashMap<FunctionId, usize> = functions
            .iter()
            .enumerate()
            .map(|(i, f)| (f.pref.id, i))
            .collect();
        let mut pairs = Vec::with_capacity(solved.assignment.len());
        for pair in solved.assignment.pairs() {
            let (fi, oi) = (fun_index[&pair.function], obj_index[&pair.object]);
            functions[fi].remaining -= 1;
            objects[oi].remaining -= 1;
            pairs.push((fi, oi, pair.score));
        }
        // The repair loop establishes pairs in (score desc, fi asc, oi asc)
        // order, and `worst_pair_index` breaks exact-score ties by position:
        // the same order here makes later displacements independent of how
        // the engine was built.
        pairs.sort_by(|a, b| {
            b.2.partial_cmp(&a.2)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
                .then(a.1.cmp(&b.1))
        });
        let mut engine = Self {
            dims: problem.dims(),
            objects,
            obj_index,
            functions,
            fun_index,
            initial_io: tree.stats(),
            tree,
            skyline,
            stats: EngineStats {
                pairs_established: pairs.len() as u64,
                ..EngineStats::default()
            },
            pairs,
            buffer_fraction: options.buffer_fraction,
            compaction_threshold: options.compaction_threshold,
            compaction_batch: options.compaction_batch,
            tombstones: VecDeque::new(),
            free_obj_slots: Vec::new(),
            free_fun_slots: Vec::new(),
            deferred_compaction: options.deferred_compaction,
            table: ScoreTable::from_functions(&[]),
            pool: {
                let threads = pref_sync::resolve_threads(options.threads);
                (threads > 1).then(|| WorkStealingPool::with_threads(threads))
            },
            repair: RepairScratch::new(),
        };
        engine.rebuild_score_table();
        debug_assert!(
            engine.best_candidate().is_none(),
            "SB's matching must be stable under the repair loop's admissibility rule"
        );
        Ok(engine)
    }

    /// Rebuilds an engine from an exported checkpoint — the restore half of
    /// [`AssignmentEngine::export_snapshot`], used by the serving tier's
    /// crash recovery. The live populations are bulk-loaded into a fresh
    /// R-tree and solved once by SB, exactly as [`AssignmentEngine::new`]
    /// does; by the restart-equivalence guarantee (pinned by the
    /// `restart_equivalence` test battery) the resulting canonical matching
    /// is byte-identical to the exporting engine's.
    pub fn restore(
        snapshot: &EngineSnapshot,
        options: &EngineOptions,
    ) -> Result<Self, EngineError> {
        let problem = Problem::new(snapshot.functions.clone(), snapshot.objects.clone())
            .map_err(|_| EngineError::EmptyProblem)?;
        Self::new(&problem, options)
    }

    /// Dimensionality of the engine's problem.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of live objects.
    pub fn num_objects(&self) -> usize {
        self.objects.iter().filter(|o| o.alive).count()
    }

    /// Number of live functions.
    pub fn num_functions(&self) -> usize {
        self.functions.iter().filter(|f| f.alive).count()
    }

    /// Lifetime counters plus the current live/tombstone/index gauges.
    pub fn stats(&self) -> EngineStats {
        let mut stats = self.stats;
        stats.live_objects = self.num_objects() as u64;
        stats.live_functions = self.num_functions() as u64;
        stats.tombstoned_objects = self.tombstones.len() as u64;
        stats.tree_records = self.tree.len() as u64;
        stats.tree_pages = self.tree.num_pages() as u64;
        let io = self.tree.stats();
        stats.tree_page_writes = io.page_writes;
        stats.tree_sync_calls = io.sync_calls;
        stats
    }

    /// The fraction of R-tree records that are tombstoned departures.
    pub fn tombstone_ratio(&self) -> f64 {
        self.stats().tombstone_ratio()
    }

    /// Record ids of the maintained free-pool skyline (observability / test
    /// oracle: must equal a from-scratch skyline of
    /// [`AssignmentEngine::free_pool_records`]).
    pub fn skyline_records(&self) -> Vec<RecordId> {
        self.skyline.records()
    }

    /// The current free pool: live objects with unassigned capacity.
    pub fn free_pool_records(&self) -> Vec<(RecordId, Point)> {
        self.objects
            .iter()
            .filter(|o| o.alive && o.remaining > 0)
            .map(|o| (o.record.id, o.record.point.clone()))
            .collect()
    }

    /// Cumulative object R-tree I/O (construction-time SB solve + all
    /// updates).
    pub fn total_object_io(&self) -> IoStats {
        self.tree.stats()
    }

    /// Object R-tree I/O of the construction-time SB solve (its BBS and
    /// `UpdateSkyline` maintenance).
    pub fn initial_object_io(&self) -> IoStats {
        self.initial_io
    }

    /// Object R-tree I/O spent on updates since construction.
    pub fn update_object_io(&self) -> IoStats {
        self.tree.stats().since(&self.initial_io)
    }

    /// The current stable matching (pairs in establishment order; functions
    /// with spare capacity or an empty pool may be unmatched, exactly as in
    /// the batch solvers).
    pub fn assignment(&self) -> Assignment {
        let mut assignment = Assignment::new();
        for &(fi, oi, score) in &self.pairs {
            assignment.push(
                self.functions[fi].pref.id,
                self.objects[oi].record.id,
                score,
            );
        }
        assignment
    }

    /// Exports the engine's live state in one pass: populations, matching
    /// and stats, taken together so they are mutually consistent. This is
    /// the publish hook of the serving tier — called by a shard's writer
    /// thread after each applied batch, never concurrently with updates
    /// (the engine itself is single-writer).
    pub fn export_snapshot(&self) -> EngineSnapshot {
        let functions: Vec<PreferenceFunction> = self
            .functions
            .iter()
            .filter(|f| f.alive)
            .map(|f| f.pref.clone())
            .collect();
        let objects: Vec<ObjectRecord> = self
            .objects
            .iter()
            .filter(|o| o.alive)
            .map(|o| o.record.clone())
            .collect();
        let pairs: Vec<(FunctionId, RecordId, f64)> = self
            .pairs
            .iter()
            .map(|&(fi, oi, score)| {
                (
                    self.functions[fi].pref.id,
                    self.objects[oi].record.id,
                    score,
                )
            })
            .collect();
        EngineSnapshot {
            functions,
            objects,
            pairs,
            stats: self.stats(),
        }
    }

    /// A [`Problem`] snapshot of the live population (full capacities), e.g.
    /// for oracle comparison or an index rebuild.
    pub fn snapshot_problem(&self) -> Result<Problem, EngineError> {
        let functions: Vec<PreferenceFunction> = self
            .functions
            .iter()
            .filter(|f| f.alive)
            .map(|f| f.pref.clone())
            .collect();
        let objects: Vec<ObjectRecord> = self
            .objects
            .iter()
            .filter(|o| o.alive)
            .map(|o| o.record.clone())
            .collect();
        Problem::new(functions, objects).map_err(|_| EngineError::EmptyProblem)
    }

    /// Applies one [`UpdateEvent`] from a datagen update stream (via the
    /// shared [`UpdateOp`] conversion).
    pub fn apply(&mut self, event: &UpdateEvent) -> Result<(), EngineError> {
        UpdateOp::from_event(event).apply(self)
    }

    /// An object arrives: it is inserted into the R-tree (splits are patched
    /// into the skyline's pruned lists), classified against the maintained
    /// skyline in memory, and the reverse top-1 repair re-establishes only
    /// the pairs it destabilizes.
    pub fn insert_object(&mut self, object: ObjectRecord) -> Result<(), EngineError> {
        if object.point.dims() != self.dims {
            return Err(EngineError::DimensionMismatch {
                expected: self.dims,
                got: object.point.dims(),
            });
        }
        if self.obj_index.contains_key(&object.id) {
            return Err(EngineError::DuplicateObject(object.id));
        }
        // The id may be a re-issue of a compacted departure (the engine
        // forgets compacted ids — remembering them forever would defeat the
        // boundedness compaction buys). Physical deletion removed the
        // predecessor's tree copy, but a pruned list may still hold its data
        // entry; purge it so it cannot resurface under the new bearer's id.
        self.skyline.purge_record(object.id);
        let splits = self
            .tree
            .insert_tracked(object.id, object.point.clone())
            // lint: allow(no-unwrap) -- internal invariant: dimensionality was validated at the API boundary
            .expect("dimensionality was checked");
        for split in &splits {
            // Pre-existing entries that moved to the sibling must stay
            // reachable through the pruned lists; the new point's
            // authoritative copy is classified below, and its duplicate
            // tree-resident copy is dropped by the filtered resume loop.
            self.skyline.patch_page_split(
                split.old_page,
                NodeEntry::Child {
                    mbr: split.new_mbr.clone(),
                    page: split.new_page,
                },
            );
        }
        let state = ObjState {
            remaining: object.capacity,
            record: object,
            alive: true,
        };
        let data = DataEntry::new(state.record.id, state.record.point.clone());
        let oi = match self.free_obj_slots.pop() {
            Some(oi) => {
                self.objects[oi] = state;
                oi
            }
            None => {
                self.objects.push(state);
                self.objects.len() - 1
            }
        };
        self.obj_index.insert(data.record, oi);
        insert_skyline(&mut self.skyline, data);
        self.stats.updates += 1;
        self.stats.object_inserts += 1;
        self.restabilize();
        Ok(())
    }

    /// An object departs: its pairs are retracted (freeing function
    /// capacity), it is tombstoned in the R-tree, the free-pool skyline is
    /// replenished via `UpdateSkyline`, and the stable loop resumes for the
    /// freed functions. When the departure pushes the tombstone ratio over
    /// [`EngineOptions::compaction_threshold`], incremental compaction
    /// physically deletes tombstones until the ratio is restored.
    pub fn remove_object(&mut self, id: RecordId) -> Result<(), EngineError> {
        let oi = match self.obj_index.get(&id) {
            Some(&oi) if self.objects[oi].alive => oi,
            _ => return Err(EngineError::UnknownObject(id)),
        };
        // retract every pair holding the departing object
        let mut i = 0;
        while i < self.pairs.len() {
            if self.pairs[i].1 == oi {
                let (fi, _, _) = self.pairs.swap_remove(i);
                self.functions[fi].remaining += 1;
                self.stats.pairs_retracted += 1;
            } else {
                i += 1;
            }
        }
        self.objects[oi].alive = false;
        self.objects[oi].remaining = 0;
        self.tombstones.push_back(oi);
        if let Some(removed) = self.skyline.remove(id) {
            self.replenish_skyline(vec![removed]);
        }
        self.stats.updates += 1;
        self.stats.object_removes += 1;
        self.restabilize();
        if !self.deferred_compaction {
            self.maybe_compact();
        }
        Ok(())
    }

    /// A function (user) arrives: a reverse top-1 probe over the free pool
    /// and the current pairs finds its best attainable object; the
    /// displacement cascade repairs the rest.
    pub fn insert_function(&mut self, function: PreferenceFunction) -> Result<(), EngineError> {
        if function.function.dims() != self.dims {
            return Err(EngineError::DimensionMismatch {
                expected: self.dims,
                got: function.function.dims(),
            });
        }
        if self.fun_index.contains_key(&function.id) {
            return Err(EngineError::DuplicateFunction(function.id));
        }
        let state = FunState {
            remaining: function.capacity,
            pref: function,
            alive: true,
        };
        let fi = match self.free_fun_slots.pop() {
            Some(fi) => {
                self.functions[fi] = state;
                fi
            }
            None => {
                self.functions.push(state);
                self.functions.len() - 1
            }
        };
        self.fun_index.insert(self.functions[fi].pref.id, fi);
        self.rebuild_score_table();
        self.stats.updates += 1;
        self.stats.function_inserts += 1;
        self.restabilize();
        Ok(())
    }

    /// Re-derives the batch-scoring table from the dense function slab. Only
    /// needed when a slot's weights change (construction and function
    /// arrivals, including slot reuse): departures leave their row in place,
    /// and dead rows are filtered out of every scan.
    fn rebuild_score_table(&mut self) {
        let rows: Vec<pref_geom::LinearFunction> = self
            .functions
            .iter()
            .map(|f| f.pref.function.clone())
            .collect();
        self.table = ScoreTable::from_functions(&rows);
    }

    /// A function departs: its pairs are retracted and the freed objects
    /// return to the free pool (in-memory skyline insertion, no I/O), where
    /// the stable loop re-offers them to the remaining functions. Functions
    /// have no index presence, so their dense slot is reclaimed immediately.
    pub fn remove_function(&mut self, id: FunctionId) -> Result<(), EngineError> {
        let fi = match self.fun_index.get(&id) {
            Some(&fi) if self.functions[fi].alive => fi,
            _ => return Err(EngineError::UnknownFunction(id)),
        };
        let mut i = 0;
        while i < self.pairs.len() {
            if self.pairs[i].0 == fi {
                let (_, oi, _) = self.pairs.swap_remove(i);
                self.free_object_slot(oi);
                self.stats.pairs_retracted += 1;
            } else {
                i += 1;
            }
        }
        self.functions[fi].alive = false;
        self.functions[fi].remaining = 0;
        self.fun_index.remove(&id);
        self.free_fun_slots.push(fi);
        self.stats.updates += 1;
        self.stats.function_removes += 1;
        self.restabilize();
        Ok(())
    }

    /// Returns one unit of an object's capacity to the free pool; an object
    /// coming back from full saturation re-enters the maintained skyline
    /// in memory.
    fn free_object_slot(&mut self, oi: usize) {
        self.objects[oi].remaining += 1;
        if self.objects[oi].alive && self.objects[oi].remaining == 1 {
            let data = DataEntry::new(
                self.objects[oi].record.id,
                self.objects[oi].record.point.clone(),
            );
            insert_skyline(&mut self.skyline, data);
        }
    }

    /// Replenishes the free-pool skyline after removing skyline objects,
    /// filtering departed and saturated records out of the candidate stream.
    fn replenish_skyline(&mut self, removed: Vec<pref_skyline::SkylineObject>) {
        let objects = &self.objects;
        let obj_index = &self.obj_index;
        let drop = |r: RecordId| match obj_index.get(&r) {
            Some(&oi) => !objects[oi].alive || objects[oi].remaining == 0,
            None => true,
        };
        update_skyline_filtered(&mut self.tree, &mut self.skyline, removed, &drop);
    }

    /// `true` when the engine was configured with
    /// [`EngineOptions::deferred_compaction`]: its update path never
    /// compacts, and the owner is expected to drain the debt through
    /// [`AssignmentEngine::run_compaction_batch`].
    pub fn compaction_deferred(&self) -> bool {
        self.deferred_compaction
    }

    /// `true` when the tombstone ratio exceeds the configured threshold —
    /// the trigger condition of [`AssignmentEngine::run_compaction_batch`].
    /// Always `false` when compaction is disabled.
    pub fn compaction_due(&self) -> bool {
        match self.compaction_threshold {
            Some(threshold) => {
                !self.tombstones.is_empty()
                    && self.tombstones.len() as f64 > threshold * self.tree.len() as f64
            }
            None => false,
        }
    }

    /// Runs **one** bounded compaction batch if compaction is due, re-sizing
    /// the LRU buffer to the shrunken tree, and returns whether more debt
    /// remains. This is the caller-driven half of
    /// [`EngineOptions::deferred_compaction`]: a background helper calls it
    /// repeatedly between writer batches, holding the engine for only one
    /// batch's worth of work at a time, until it returns `false`. The
    /// physical deletions, pruned-list patches and slot reclamation are the
    /// same code the inline path runs — only the trigger site differs.
    pub fn run_compaction_batch(&mut self) -> bool {
        if !self.compaction_due() {
            return false;
        }
        self.compact_batch();
        self.tree.set_buffer_fraction(self.buffer_fraction);
        self.compaction_due()
    }

    /// Runs incremental compaction while the tombstone ratio exceeds the
    /// configured threshold. Each batch physically deletes up to
    /// [`EngineOptions::compaction_batch`] tombstones; the loop leaves the
    /// ratio at or below the threshold, so the R-tree's record count stays
    /// within `1 / (1 - threshold)` of the live population.
    fn maybe_compact(&mut self) {
        let Some(threshold) = self.compaction_threshold else {
            return;
        };
        let mut compacted = false;
        while !self.tombstones.is_empty()
            && self.tombstones.len() as f64 > threshold * self.tree.len() as f64
        {
            self.compact_batch();
            compacted = true;
        }
        if compacted {
            // the tree shrank: re-derive the LRU buffer from the live pages
            self.tree.set_buffer_fraction(self.buffer_fraction);
        }
    }

    /// Physically deletes one batch of tombstoned records (oldest departures
    /// first). Every deletion's structural effects — freed pages (also
    /// invalidated in the LRU buffer by the paged store), re-inserted
    /// orphans, re-insertion splits and MBR shrinks — are patched into the
    /// skyline's pruned lists, and the records' dense slab slots are
    /// reclaimed. The matching is untouched: tombstones hold no pairs and
    /// are not on the skyline, so no re-stabilization is needed. The caller
    /// re-sizes the LRU buffer once all batches of the trigger have run.
    fn compact_batch(&mut self) {
        let batch = self.compaction_batch.min(self.tombstones.len());
        for _ in 0..batch {
            let oi = self
                .tombstones
                .pop_front()
                // lint: allow(no-unwrap) -- internal invariant: batch size is computed from the queue length
                .expect("batch size is bounded by the queue length");
            let record = self.objects[oi].record.id;
            let point = self.objects[oi].record.point.clone();
            let outcome = self
                .tree
                .delete_tracked(record, &point)
                // lint: allow(no-unwrap) -- internal invariant: a tombstone is created only for resident records
                .expect("tombstoned records are resident in the object tree");
            self.skyline.patch_page_delete(&outcome);
            self.obj_index.remove(&record);
            self.free_obj_slots.push(oi);
            self.stats.physical_deletes += 1;
        }
        self.stats.compaction_batches += 1;
    }

    /// The incremental stable loop: repeatedly finds the highest-scoring
    /// admissible pair — a function with spare capacity or an upgrade over a
    /// side's worst pair — and establishes it, displacing at most one pair on
    /// each side. Every established pair outscores everything it displaces,
    /// so the loop replays the tail of the greedy trace of Section 3 and
    /// terminates with the matching of the batch solvers.
    ///
    /// The best free object per function is read off the maintained skyline
    /// (the free pool's maxima live there); saturated objects are probed
    /// through the current pairs. Neither probe touches the R-tree — the only
    /// I/O in the repair path is `UpdateSkyline` replenishment when a free
    /// object becomes saturated.
    fn restabilize(&mut self) {
        while let Some(best) = self.best_candidate() {
            self.establish(best);
            self.stats.repair_rounds += 1;
        }
    }

    /// Finds the highest-scoring admissible candidate, or `None` when the
    /// matching is stable.
    ///
    /// The scan is columnar: the free-pool skyline and the saturated
    /// displacement targets are mirrored into [`SoaBlock`]s once per round
    /// (reusable buffers, no per-round allocation in steady state) and every
    /// active function batch-scores them through the [`pref_geom::kernel`]
    /// lane kernels — bit-identical to the scalar
    /// `f.pref.function.score(point)` path. When a pool is configured and
    /// the round's work clears [`PARALLEL_WORK_FLOOR`], the active functions
    /// are partitioned across the workers; [`Candidate::beats`] is a strict
    /// total order, so the per-partition maxima merge to the same unique
    /// overall best the serial scan finds, at any thread count.
    fn best_candidate(&mut self) -> Option<Candidate> {
        // per-function admission threshold: -inf with spare capacity,
        // otherwise the function's worst pair score
        let f_threshold = &mut self.repair.f_threshold;
        f_threshold.clear();
        f_threshold.extend(self.functions.iter().map(|f| {
            if f.alive && f.remaining > 0 {
                f64::NEG_INFINITY
            } else {
                f64::INFINITY
            }
        }));
        // per-object worst pair score (saturated slot displacement targets)
        let o_worst = &mut self.repair.o_worst;
        o_worst.clear();
        o_worst.resize(self.objects.len(), f64::INFINITY);
        for &(fi, oi, score) in &self.pairs {
            if f_threshold[fi] > score {
                f_threshold[fi] = score;
            }
            if score < o_worst[oi] {
                o_worst[oi] = score;
            }
        }
        let sky_block = Arc::make_mut(&mut self.repair.sky_block);
        sky_block.clear();
        let sky_ois = Arc::make_mut(&mut self.repair.sky_ois);
        sky_ois.clear();
        for (record, point) in self.skyline.entry_views() {
            sky_block.push_point(point);
            sky_ois.push(
                *self
                    .obj_index
                    .get(&record)
                    // lint: allow(no-unwrap) -- internal invariant: the skyline only yields registered records
                    .expect("skyline records are registered"),
            );
        }
        // Saturated targets only: an object with free capacity is covered by
        // the skyline path without displacing anyone. Dense ascending object
        // order keeps the scan deterministic (`beats` already makes the
        // outcome order-independent — this keeps the build order replayable
        // too).
        let steal_block = Arc::make_mut(&mut self.repair.steal_block);
        steal_block.clear();
        let steal = Arc::make_mut(&mut self.repair.steal);
        steal.clear();
        for (oi, &worst) in o_worst.iter().enumerate() {
            if worst == f64::INFINITY || self.objects[oi].remaining > 0 {
                continue;
            }
            steal_block.push_point(&self.objects[oi].record.point);
            steal.push((oi, worst));
        }
        // functions worth scanning this round
        let active = &mut self.repair.active;
        active.clear();
        for (fi, f) in self.functions.iter().enumerate() {
            if !f.alive {
                continue;
            }
            let threshold = f_threshold[fi];
            if f.remaining == 0 && threshold == f64::INFINITY {
                // dead weight: saturated with no pairs cannot happen, but a
                // function with capacity 0 pairs and no remaining is inert
                continue;
            }
            active.push((fi, threshold));
        }

        let rows = self.repair.sky_ois.len() + self.repair.steal.len();
        let parallel = self.pool.as_ref().filter(|p| {
            p.threads() > 1
                && self.repair.active.len() > 1
                && self.repair.active.len() * rows >= PARALLEL_WORK_FLOOR
        });
        match parallel {
            Some(pool) => {
                let span = self.repair.active.len().div_ceil(pool.threads());
                let jobs: Vec<_> = self
                    .repair
                    .active
                    .chunks(span)
                    .map(|chunk| {
                        let chunk = chunk.to_vec();
                        let sky_block = Arc::clone(&self.repair.sky_block);
                        let sky_ois = Arc::clone(&self.repair.sky_ois);
                        let steal_block = Arc::clone(&self.repair.steal_block);
                        let steal = Arc::clone(&self.repair.steal);
                        let table = self.table.clone();
                        move || {
                            let mut scores: Vec<f64> = Vec::new();
                            let mut best: Option<Candidate> = None;
                            for &(fi, threshold) in &chunk {
                                scan_function(
                                    fi,
                                    threshold,
                                    &table,
                                    &sky_block,
                                    &sky_ois,
                                    &steal_block,
                                    &steal,
                                    &mut scores,
                                    &mut best,
                                );
                            }
                            best
                        }
                    })
                    .collect();
                let mut best: Option<Candidate> = None;
                for cand in pool.run(jobs).into_iter().flatten() {
                    if best.as_ref().is_none_or(|b| cand.beats(b)) {
                        best = Some(cand);
                    }
                }
                best
            }
            None => {
                let mut best: Option<Candidate> = None;
                for &(fi, threshold) in self.repair.active.iter() {
                    scan_function(
                        fi,
                        threshold,
                        &self.table,
                        &self.repair.sky_block,
                        &self.repair.sky_ois,
                        &self.repair.steal_block,
                        &self.repair.steal,
                        &mut self.repair.scores,
                        &mut best,
                    );
                }
                best
            }
        }
    }

    /// Establishes a candidate pair, displacing the necessary worst pairs.
    fn establish(&mut self, cand: Candidate) {
        // make room on the function side
        if self.functions[cand.fi].remaining == 0 {
            let victim = self
                .worst_pair_index(|&(fi, _, _)| fi == cand.fi)
                // lint: allow(no-unwrap) -- internal invariant: a function at capacity has at least one pair
                .expect("saturated function has pairs");
            let (_, oi, _) = self.pairs.swap_remove(victim);
            self.functions[cand.fi].remaining += 1;
            self.free_object_slot(oi);
            self.stats.pairs_retracted += 1;
        }
        // make room on the object side
        if cand.kind == SlotKind::Steal {
            let victim = self
                .worst_pair_index(|&(_, oi, _)| oi == cand.oi)
                // lint: allow(no-unwrap) -- internal invariant: a stolen object is assigned, so it has a pair
                .expect("stolen object has pairs");
            let (fi, _, _) = self.pairs.swap_remove(victim);
            self.functions[fi].remaining += 1;
            self.objects[cand.oi].remaining += 1;
            self.stats.pairs_retracted += 1;
        }
        // establish
        self.functions[cand.fi].remaining -= 1;
        self.objects[cand.oi].remaining -= 1;
        self.pairs.push((cand.fi, cand.oi, cand.score));
        self.stats.pairs_established += 1;
        if self.objects[cand.oi].remaining == 0 {
            let record = self.objects[cand.oi].record.id;
            if let Some(removed) = self.skyline.remove(record) {
                self.replenish_skyline(vec![removed]);
            }
        }
    }

    /// Index of the minimum-score pair among those matching `filter`
    /// (ties: first in pair order, which is deterministic per run).
    fn worst_pair_index(&self, filter: impl Fn(&(usize, usize, f64)) -> bool) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, pair) in self.pairs.iter().enumerate() {
            if !filter(pair) {
                continue;
            }
            if best.is_none_or(|(_, s)| pair.2 < s) {
                best = Some((i, pair.2));
            }
        }
        best.map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    //! Seeded construction against the from-empty repair loop it replaced.

    use super::*;
    use pref_geom::LinearFunction;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    impl AssignmentEngine {
        /// The from-empty construction that seeding from SB replaced: a BBS
        /// skyline of the engine's tree and the repair loop run from an
        /// empty matching. It resets a seeded engine's matching state, so
        /// only the slabs and the tree are shared with the seeded path.
        fn new_from_empty(problem: &Problem, options: &EngineOptions) -> Result<Self, EngineError> {
            let mut engine = Self::new(problem, options)?;
            engine.pairs.clear();
            for f in &mut engine.functions {
                f.remaining = f.pref.capacity;
            }
            for o in &mut engine.objects {
                o.remaining = o.record.capacity;
            }
            engine.stats = EngineStats::default();
            engine.skyline = pref_skyline::compute_skyline_bbs(&mut engine.tree);
            engine.restabilize();
            engine.initial_io = engine.tree.stats();
            Ok(engine)
        }
    }

    /// One coordinate or raw weight: quantized instances draw from a coarse
    /// grid, so exact score ties and duplicated points are common.
    fn value(rng: &mut StdRng, quantized: bool, grid: &[f64]) -> f64 {
        if quantized {
            grid[rng.gen_range(0..grid.len())]
        } else {
            rng.gen_range(0.01..1.0)
        }
    }

    fn draw_point(rng: &mut StdRng, dims: usize, quantized: bool, pool: &[Point]) -> Point {
        // duplicated points: exact cross-object ties for every function
        if !pool.is_empty() && rng.gen_bool(0.3) {
            return pool[rng.gen_range(0..pool.len())].clone();
        }
        let coords: Vec<f64> = (0..dims)
            .map(|_| value(rng, quantized, &[0.0, 0.25, 0.5, 0.75, 1.0]))
            .collect();
        Point::from_slice(&coords)
    }

    fn draw_function(
        rng: &mut StdRng,
        dims: usize,
        quantized: bool,
        pool: &[Vec<f64>],
    ) -> LinearFunction {
        // duplicated weight vectors: exact cross-function ties on every object
        let weights = if !pool.is_empty() && rng.gen_bool(0.3) {
            pool[rng.gen_range(0..pool.len())].clone()
        } else {
            (0..dims)
                .map(|_| value(rng, quantized, &[1.0, 1.0, 2.0, 3.0]))
                .collect()
        };
        LinearFunction::new(weights).unwrap()
    }

    /// A seeded instance with capacities `1..=4` on both sides, duplicated
    /// points and weight vectors, and (mostly) grid-quantized exact ties.
    fn instance(seed: u64, max_functions: usize, max_objects: usize) -> Problem {
        let mut rng = StdRng::seed_from_u64(seed);
        let dims = rng.gen_range(2..=4);
        let quantized = rng.gen_bool(0.7);
        let mut weights: Vec<Vec<f64>> = Vec::new();
        let functions: Vec<PreferenceFunction> = (0..rng.gen_range(1..=max_functions))
            .map(|i| {
                let f = draw_function(&mut rng, dims, quantized, &weights);
                weights.push(f.weights().to_vec());
                PreferenceFunction::new(i, f).with_capacity(rng.gen_range(1..=4))
            })
            .collect();
        let mut points: Vec<Point> = Vec::new();
        let objects: Vec<ObjectRecord> = (0..rng.gen_range(1..=max_objects))
            .map(|i| {
                let p = draw_point(&mut rng, dims, quantized, &points);
                points.push(p.clone());
                ObjectRecord::new(i as u64, p).with_capacity(rng.gen_range(1..=4))
            })
            .collect();
        Problem::new(functions, objects).unwrap()
    }

    /// A churn stream over `problem`'s ids drawn from the same tie-heavy
    /// distribution; departures never empty a population.
    fn churn(problem: &Problem, seed: u64, len: usize) -> Vec<UpdateOp> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let dims = problem.dims();
        let quantized = rng.gen_bool(0.7);
        let mut objects: Vec<RecordId> = problem.objects().iter().map(|o| o.id).collect();
        let mut points: Vec<Point> = problem.objects().iter().map(|o| o.point.clone()).collect();
        let mut functions: Vec<FunctionId> = problem.functions().iter().map(|f| f.id).collect();
        let mut weights: Vec<Vec<f64>> = problem
            .functions()
            .iter()
            .map(|f| f.function.weights().to_vec())
            .collect();
        let mut next_object = objects.len() as u64 + 1_000;
        let mut next_function = functions.len() + 1_000;
        let mut ops = Vec::with_capacity(len);
        for _ in 0..len {
            let op = match rng.gen_range(0..4) {
                0 => {
                    let p = draw_point(&mut rng, dims, quantized, &points);
                    points.push(p.clone());
                    objects.push(RecordId(next_object));
                    next_object += 1;
                    UpdateOp::InsertObject(
                        ObjectRecord::new(next_object - 1, p).with_capacity(rng.gen_range(1..=4)),
                    )
                }
                1 if objects.len() > 1 => {
                    UpdateOp::RemoveObject(objects.swap_remove(rng.gen_range(0..objects.len())))
                }
                2 => {
                    let f = draw_function(&mut rng, dims, quantized, &weights);
                    weights.push(f.weights().to_vec());
                    functions.push(FunctionId(next_function));
                    next_function += 1;
                    UpdateOp::InsertFunction(
                        PreferenceFunction::new(next_function - 1, f)
                            .with_capacity(rng.gen_range(1..=4)),
                    )
                }
                _ if functions.len() > 1 => UpdateOp::RemoveFunction(
                    functions.swap_remove(rng.gen_range(0..functions.len())),
                ),
                _ => continue,
            };
            ops.push(op);
        }
        ops
    }

    /// The matching in pair order, with exact score bits: equal only when
    /// two engines hold the same pairs in the same order.
    fn ordered_pairs(engine: &AssignmentEngine) -> Vec<(usize, u64, u64)> {
        engine
            .assignment()
            .pairs()
            .iter()
            .map(|p| (p.function.0, p.object.0, p.score.to_bits()))
            .collect()
    }

    fn sorted_skyline(engine: &AssignmentEngine) -> Vec<RecordId> {
        let mut records = engine.skyline_records();
        records.sort_unstable();
        records
    }

    fn assert_same_state(seeded: &AssignmentEngine, unseeded: &AssignmentEngine, what: &str) {
        assert_eq!(
            seeded.assignment().canonical(),
            unseeded.assignment().canonical(),
            "{what}: canonical matchings differ"
        );
        assert_eq!(
            ordered_pairs(seeded),
            ordered_pairs(unseeded),
            "{what}: pair order differs"
        );
        assert_eq!(
            sorted_skyline(seeded),
            sorted_skyline(unseeded),
            "{what}: free-pool skylines differ"
        );
    }

    fn differential(seed: u64, max_functions: usize, max_objects: usize, options: &EngineOptions) {
        let problem = instance(seed, max_functions, max_objects);
        let mut seeded = AssignmentEngine::new(&problem, options).unwrap();
        let mut unseeded = AssignmentEngine::new_from_empty(&problem, options).unwrap();
        assert_same_state(&seeded, &unseeded, &format!("seed {seed}, construction"));
        assert_eq!(
            seeded.assignment().canonical(),
            pref_assign::oracle(&problem).canonical(),
            "seed {seed}: seeded engine diverges from the oracle"
        );
        for (step, op) in churn(&problem, seed, 40).iter().enumerate() {
            op.apply(&mut seeded).unwrap();
            op.apply(&mut unseeded).unwrap();
            assert_same_state(
                &seeded,
                &unseeded,
                &format!("seed {seed}, op #{step} {op:?}"),
            );
            let snapshot = seeded.snapshot_problem().unwrap();
            pref_assign::verify_stable(&snapshot, &seeded.assignment())
                .unwrap_or_else(|v| panic!("seed {seed}, op #{step}: unstable: {v}"));
        }
    }

    #[test]
    fn seeded_construction_matches_the_from_empty_loop_on_tie_heavy_instances() {
        for seed in 0..120u64 {
            differential(seed, 10, 14, &EngineOptions::default());
        }
    }

    #[test]
    fn seeded_construction_matches_the_from_empty_loop_on_multi_level_trees() {
        // fanout 4 with eager compaction: deep trees, so SB's pruned lists
        // hold real node entries and later departures replenish through them
        let options = EngineOptions {
            fanout: Some(4),
            compaction_threshold: Some(0.0),
            ..EngineOptions::default()
        };
        for seed in 500..530u64 {
            differential(seed, 24, 160, &options);
        }
    }

    #[test]
    fn seeded_construction_is_thread_count_independent() {
        for threads in [1usize, 2, 8] {
            let options = EngineOptions {
                threads: Some(threads),
                ..EngineOptions::default()
            };
            for seed in 900..910u64 {
                differential(seed, 24, 160, &options);
            }
        }
    }

    #[test]
    fn construction_runs_no_repair_round() {
        for seed in 0..20u64 {
            let problem = instance(seed, 10, 40);
            let engine = AssignmentEngine::new(&problem, &EngineOptions::default()).unwrap();
            let stats = engine.stats();
            assert_eq!(
                stats.repair_rounds, 0,
                "seed {seed}: new() ran repair rounds"
            );
            assert_eq!(stats.pairs_established, engine.pairs.len() as u64);
            assert!(!engine.pairs.is_empty());

            let restored =
                AssignmentEngine::restore(&engine.export_snapshot(), &EngineOptions::default())
                    .unwrap();
            let stats = restored.stats();
            assert_eq!(
                stats.repair_rounds, 0,
                "seed {seed}: restore() ran repair rounds"
            );
            assert_eq!(stats.pairs_established, restored.pairs.len() as u64);
            assert_eq!(ordered_pairs(&restored), ordered_pairs(&engine));
        }
    }
}
