//! The serving workloads: `serve-publish` (snapshot publication bounds an
//! ack) and `serve-repair` (engine repair, the WAL and checkpoints bound an
//! ack). Both drive a `ShardedService` behind the TCP front door from one
//! process with two client threads — one read connection and one ack
//! connection — at fixed open-loop rates, then measure the ack connection's
//! closed-loop capacity.

use crate::gen::{Ack, Population, Read, Traffic, TENANTS};
use crate::machine::peak_rss_mb;
use crate::report::Outcome;
use crate::stats::{mean, percentile, sorted};
use crate::trace::{span_cost_ns, Tracer};
use crate::{Layers, Params, Workload};
use pref_assign::{sb, verify_stable, FunctionId, Problem, SbOptions};
use pref_engine::{AssignmentEngine, EngineOptions};
use pref_net::{NetClient, NetError, Server, ServerConfig};
use pref_service::{
    DurabilityConfig, FsyncPolicy, ServiceConfig, ServiceReader, ShardDurability, ShardedService,
};
use pref_storage::wal;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A serving workload's shape. Rates are fixed constants, never derived at
/// run time.
#[derive(Debug, Clone, Copy)]
pub struct ServeShape {
    /// Workload name.
    pub name: &'static str,
    /// Shards of the service.
    pub shards: usize,
    /// Seed functions per shard.
    pub functions: usize,
    /// Seed objects per shard.
    pub objects: usize,
    /// Offered acks per second on the ack connection.
    pub ack_per_s: f64,
    /// Offered reads per second on the read connection.
    pub read_per_s: f64,
    /// Back-to-back acks of the capacity phase.
    pub capacity_acks: usize,
    /// `Some(k)`: durable shards, fsync on every ack, checkpoint every `k`
    /// logged batches. `None`: in-memory shards.
    pub checkpoint_every: Option<u64>,
}

/// Two in-memory shards of 100 × 50k. Export and view of 50k objects per
/// ack dominate; repair is cheap. Not gated by `BENCHMARK.json`: at 60 acks/s
/// the ack connection runs half to two-thirds busy on a two-core machine,
/// and its latency tails spread too far between seeds to carry a bound.
pub const PUBLISH: ServeShape = ServeShape {
    name: "serve-publish",
    shards: 2,
    functions: 100,
    objects: 50_000,
    ack_per_s: 60.0,
    read_per_s: 2_000.0,
    capacity_acks: 1_000,
    checkpoint_every: None,
};

/// One durable shard of 500 × 20k. Repair of 500 functions, the WAL fsync
/// and checkpoints dominate; publication is cheap. At 30 s, each of the
/// [`SEGMENTS`] segments logs 240 open-loop and 120 capacity acks, a
/// multiple of `checkpoint_every`, so every recovery starts from a fresh
/// checkpoint and its cost does not hang on which ops a replay meets.
pub const REPAIR: ServeShape = ServeShape {
    name: "serve-repair",
    shards: 1,
    functions: 500,
    objects: 20_000,
    ack_per_s: 40.0,
    read_per_s: 500.0,
    capacity_acks: 600,
    checkpoint_every: Some(180),
};

/// Test-suite sizes of [`PUBLISH`].
pub const PUBLISH_SMOKE: ServeShape = ServeShape {
    functions: 12,
    objects: 600,
    capacity_acks: 30,
    ..PUBLISH
};

/// Test-suite sizes of [`REPAIR`].
pub const REPAIR_SMOKE: ServeShape = ServeShape {
    functions: 20,
    objects: 500,
    capacity_acks: 30,
    checkpoint_every: Some(8),
    ..REPAIR
};

/// The shape of a serving workload.
pub fn shape(workload: Workload, smoke: bool) -> ServeShape {
    match (workload, smoke) {
        (Workload::ServeRepair, false) => REPAIR,
        (Workload::ServeRepair, true) => REPAIR_SMOKE,
        (_, false) => PUBLISH,
        (_, true) => PUBLISH_SMOKE,
    }
}

/// Segments the measured traffic is cut into. The service stops after
/// each, and a measurement window runs over its state.
const SEGMENTS: usize = 5;
/// From-scratch SB solves per measurement window. A solve takes a fifth of
/// a recovery, so a window affords more of them.
const WINDOW_SOLVES: usize = 4;
/// Recoveries per measurement window.
const WINDOW_RECOVERIES: usize = 2;

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

fn ctx<E: std::fmt::Display>(context: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{context}: {e}")
}

/// Engine options of every shard. Repair runs on one thread, so a shard
/// writer holds one of the two cores and the client and connection threads
/// share the other, instead of all of them contending for both.
fn engine_options() -> EngineOptions {
    EngineOptions {
        threads: Some(1),
        ..EngineOptions::default()
    }
}

/// SB options of the re-solve, single-threaded for the same reason.
fn sb_options() -> SbOptions {
    SbOptions {
        threads: Some(1),
        ..SbOptions::default()
    }
}

fn config(shape: &ServeShape, dir: &Path) -> ServiceConfig {
    ServiceConfig {
        engine: engine_options(),
        durability: shape.checkpoint_every.map(|k| DurabilityConfig {
            dir: dir.to_path_buf(),
            fsync: FsyncPolicy::Always,
            checkpoint_every: k,
        }),
        ..ServiceConfig::default()
    }
}

fn reset_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

/// A run's generated inputs and derived sizes.
struct Inputs {
    populations: Vec<Population>,
    problems: Vec<Problem>,
    open_acks: usize,
    reads: usize,
}

impl Inputs {
    fn new(shape: &ServeShape, params: &Params) -> Self {
        let populations: Vec<Population> = (0..shape.shards)
            .map(|s| {
                Population::generate(params.seed, 1 + s as u64, shape.functions, shape.objects)
            })
            .collect();
        let problems = populations.iter().map(Population::problem).collect();
        Self {
            populations,
            problems,
            open_acks: (shape.ack_per_s * params.seconds).round() as usize,
            reads: (shape.read_per_s * params.seconds).round() as usize,
        }
    }

    fn traffic(&self, shape: &ServeShape, params: &Params, route: &[usize]) -> Traffic {
        Traffic::generate(
            params.seed,
            &self.populations,
            route,
            self.open_acks + shape.capacity_acks,
            self.reads,
        )
    }
}

fn route_of(service: &ShardedService) -> Vec<usize> {
    (0..TENANTS as u64)
        .map(|t| service.shard_of_key(t))
        .collect()
}

/// Why a request failed.
#[derive(Debug, Clone, Copy)]
enum Failure {
    NotFound,
    Protocol,
    Admission,
}

fn net_failure(e: NetError) -> Failure {
    if e.is_admission_reject() {
        Failure::Admission
    } else {
        Failure::Protocol
    }
}

/// Latencies and failures of one request stream.
#[derive(Debug, Default)]
struct Sample {
    /// Latency from the request's due time, in µs; a failed request is
    /// infinite, so it misses every limit.
    latency_us: Vec<f64>,
    /// How late the generator sent each request, in µs.
    lag_us: Vec<f64>,
    not_found: u64,
    protocol_errors: u64,
    admission_rejects: u64,
}

impl Sample {
    fn with_capacity(n: usize) -> Self {
        Sample {
            latency_us: Vec::with_capacity(n),
            lag_us: Vec::with_capacity(n),
            ..Sample::default()
        }
    }

    fn failed(&self) -> u64 {
        self.not_found + self.protocol_errors + self.admission_rejects
    }

    /// Adds a later stream's requests to this one.
    fn append(&mut self, later: Sample) {
        self.latency_us.extend(later.latency_us);
        self.lag_us.extend(later.lag_us);
        self.not_found += later.not_found;
        self.protocol_errors += later.protocol_errors;
        self.admission_rejects += later.admission_rejects;
    }
}

/// Sleeps until shortly before `deadline`, then spins the rest, so the
/// timer's wake-up slack (about 50 µs) stays out of the latencies without
/// the generator spinning long enough to take a core from the server.
fn wait_until(deadline: Instant) {
    const SPIN: Duration = Duration::from_micros(60);
    let now = Instant::now();
    if deadline > now + SPIN {
        std::thread::sleep(deadline - now - SPIN);
    }
    while Instant::now() < deadline {
        std::hint::spin_loop();
    }
}

/// Sends `n` requests. With an interval, request `i` is due at
/// `start + i · interval` (open loop) and is timed from then; without one,
/// each is sent when the previous returns (closed loop).
fn drive(
    n: usize,
    start: Instant,
    interval: Option<Duration>,
    mut send: impl FnMut(usize) -> Result<(), Failure>,
) -> Sample {
    let mut s = Sample::with_capacity(n);
    for i in 0..n {
        let due = match interval {
            Some(every) => {
                let due = start + every * i as u32;
                wait_until(due);
                due
            }
            None => Instant::now(),
        };
        let sent = Instant::now();
        let result = send(i);
        let done = Instant::now();
        s.lag_us.push(us(sent - due));
        match result {
            Ok(()) => s.latency_us.push(us(done - due)),
            Err(f) => {
                match f {
                    Failure::NotFound => s.not_found += 1,
                    Failure::Protocol => s.protocol_errors += 1,
                    Failure::Admission => s.admission_rejects += 1,
                }
                s.latency_us.push(f64::INFINITY);
            }
        }
    }
    s
}

fn interval(per_s: f64) -> Duration {
    Duration::from_secs_f64(1.0 / per_s)
}

/// Request ids of reads start here, so reads and acks never share one.
const READ_REQUEST_BASE: u64 = 1 << 32;

fn net_read(client: &mut NetClient, read: &Read) -> Result<(), Failure> {
    let reply = client
        .assignment_of(read.tenant, read.function)
        .map_err(net_failure)?;
    if reply.found {
        Ok(())
    } else {
        Err(Failure::NotFound)
    }
}

fn net_ack(
    client: &mut NetClient,
    ack: &Ack,
    trace: Option<(&mut Tracer, u64)>,
) -> Result<(), Failure> {
    let batch = std::slice::from_ref(&ack.op);
    match trace {
        None => {
            client.update(ack.tenant, batch).map_err(net_failure)?;
            client.flush(ack.tenant).map_err(net_failure)
        }
        Some((t, request)) => {
            let root = t.open("ack", None, request);
            let update = t.leaf("net.update", Some(root), request, || {
                client.update(ack.tenant, batch)
            });
            let flush = update.and_then(|()| {
                t.leaf("net.flush", Some(root), request, || {
                    client.flush(ack.tenant)
                })
            });
            t.close(root);
            flush.map_err(net_failure)
        }
    }
}

/// Results of one open-loop phase over the socket.
struct SocketPhase {
    reads: Sample,
    acks: Sample,
    wall_s: f64,
}

/// One read connection on a second thread and the ack connection on this
/// one, both open loop from a common start.
fn socket_open_loop(
    server: &Server,
    ack_client: &mut NetClient,
    shape: &ServeShape,
    reads: &[Read],
    acks: &[Ack],
    tracers: Option<(&mut Tracer, &mut Tracer)>,
) -> Result<SocketPhase, String> {
    let mut read_client = NetClient::connect(server.local_addr()).map_err(ctx("connect"))?;
    let start = Instant::now() + Duration::from_millis(20);
    let (read_tracer, ack_tracer) = match tracers {
        Some((r, a)) => (Some(r), Some(a)),
        None => (None, None),
    };
    let (reads, acks) = std::thread::scope(|scope| {
        let reader = scope.spawn(move || {
            let mut tracer = read_tracer;
            drive(
                reads.len(),
                start,
                Some(interval(shape.read_per_s)),
                |i| match tracer.as_mut() {
                    None => net_read(&mut read_client, &reads[i]),
                    Some(t) => t.leaf("net.read", None, READ_REQUEST_BASE + i as u64, || {
                        net_read(&mut read_client, &reads[i])
                    }),
                },
            )
        });
        let mut tracer = ack_tracer;
        let acks = drive(acks.len(), start, Some(interval(shape.ack_per_s)), |i| {
            net_ack(
                ack_client,
                &acks[i],
                tracer.as_mut().map(|t| (&mut **t, i as u64)),
            )
        });
        (reader.join().expect("reader thread"), acks)
    });
    Ok(SocketPhase {
        reads,
        acks,
        wall_s: secs(start.elapsed()),
    })
}

/// One shard's matching in canonical form.
type Matching = Vec<(usize, u64, u64)>;

/// Every shard's canonical matching, in shard order.
type Canonical = Vec<Matching>;

/// Checks each shard's final snapshot and returns (problem, canonical
/// matching) per shard, plus the ops the shards rejected.
type FinalState = (Vec<Problem>, Canonical, u64);

fn final_state(
    service: &ShardedService,
    out: &mut Outcome,
    phase: &str,
) -> Result<FinalState, String> {
    let mut problems = Vec::new();
    let mut canonical = Vec::new();
    for i in 0..service.num_shards() {
        let snap = service.shard(i).map_err(ctx("shard"))?.latest();
        let verdict = snap.verify();
        out.check(
            &format!("{phase}.shard{i}.snapshot_verify"),
            verdict.is_ok(),
            verdict.map_or_else(
                |e| e.to_string(),
                |()| {
                    format!(
                        "{} pairs stable at version {}",
                        snap.num_pairs(),
                        snap.version()
                    )
                },
            ),
        );
        problems.push(
            snap.to_problem()
                .ok_or("final snapshot has an empty population")?,
        );
        canonical.push(snap.view().canonical());
    }
    for i in 0..service.num_shards() {
        if let Some(why) = service
            .shard(i)
            .map_err(ctx("shard"))?
            .stats()
            .last_rejection
        {
            out.note(format!("{phase}.shard{i}: last rejected op {why}"));
        }
    }
    Ok((problems, canonical, service.stats().rejected()))
}

fn canonical_of(service: &ShardedService) -> Result<Canonical, String> {
    (0..service.num_shards())
        .map(|i| {
            service
                .shard(i)
                .map(|s| s.latest().view().canonical())
                .map_err(ctx("shard"))
        })
        .collect()
}

fn count_failures(out: &mut Outcome, phase: &str, samples: &[&Sample], rejected: u64) {
    let not_found: u64 = samples.iter().map(|s| s.not_found).sum();
    let failed: u64 = samples.iter().map(|s| s.failed()).sum::<u64>() + rejected;
    out.attempted += samples
        .iter()
        .map(|s| s.latency_us.len() as u64)
        .sum::<u64>();
    out.failed += failed;
    out.check(
        &format!("{phase}.reads_found"),
        not_found == 0,
        format!("{not_found} reads of seed functions missed"),
    );
    out.note(format!(
        "{phase}: failed={failed} (protocol={} admission={} rejected_ops={rejected} not_found={not_found})",
        samples.iter().map(|s| s.protocol_errors).sum::<u64>(),
        samples.iter().map(|s| s.admission_rejects).sum::<u64>(),
    ));
}

/// The service's state at a stop: each shard's problem and canonical
/// matching, which every recovery must land on and every re-solve must
/// equal.
struct State {
    problems: Vec<Problem>,
    canonical: Canonical,
}

/// Timings gathered by the measurement windows of a run.
#[derive(Default)]
struct Timings {
    setups: Vec<f64>,
    solves: Vec<f64>,
    recoveries: Vec<f64>,
    windows: usize,
}

/// Service configurations of a run: the serving one, and one whose
/// directory the windows' set-ups use, so they leave the serving state be.
struct Configs {
    serve: ServiceConfig,
    setup: ServiceConfig,
}

/// A service plus front door started over `problems` in `config`'s
/// directory, cleared first; returns the server and the time both took.
fn start(problems: &[Problem], config: &ServiceConfig) -> Result<(Server, f64), String> {
    if let Some(durability) = &config.durability {
        reset_dir(&durability.dir)?;
    }
    let problems = problems.to_vec();
    let t = Instant::now();
    let service = ShardedService::start(problems, config).map_err(ctx("start"))?;
    let server = Server::start(service, &ServerConfig::default()).map_err(ctx("server start"))?;
    Ok((server, secs(t.elapsed())))
}

/// One measurement window over a stopped service's `state`. It times one
/// set-up of the state in a directory of its own, [`WINDOW_SOLVES`]
/// from-scratch single-threaded SB solves of every shard's problem (summed
/// over the shards), and [`WINDOW_RECOVERIES`] recoveries —
/// `ShardedService::recover` from the shard directories when durable,
/// otherwise a restart from the published snapshots. Each solve must equal
/// the engine's matching and each recovery must land on it. The last
/// recovered service is returned, to serve the next segment.
fn window(
    shape: &ServeShape,
    configs: &Configs,
    state: &State,
    label: &str,
    timings: &mut Timings,
    out: &mut Outcome,
) -> Result<ShardedService, String> {
    let (server, setup) = start(&state.problems, &configs.setup)?;
    timings.setups.push(setup);
    let service = server.stop().map_err(ctx("server stop"))?;
    service.shutdown().map_err(ctx("shutdown"))?;
    timings.windows += 1;

    for rep in 0..WINDOW_SOLVES {
        let mut total = 0.0;
        for (shard, (problem, engine)) in state.problems.iter().zip(&state.canonical).enumerate() {
            let mut tree = problem.build_tree(None, 0.02);
            let t = Instant::now();
            let result = sb(problem, &mut tree, &sb_options());
            total += secs(t.elapsed());
            if rep == 0 {
                out.check(
                    &format!("serve.{label}.shard{shard}.sb_equals_engine"),
                    result.assignment.canonical() == *engine,
                    format!("{} pairs", result.assignment.len()),
                );
            }
        }
        timings.solves.push(total);
    }

    let mut serving: Option<ShardedService> = None;
    for rep in 0..WINDOW_RECOVERIES {
        // One service at a time, so the peak memory does not depend on
        // which of them overlap.
        if let Some(service) = serving.take() {
            service.shutdown().map_err(ctx("shutdown"))?;
        }
        let problems = shape
            .checkpoint_every
            .is_none()
            .then(|| state.problems.clone());
        let t = Instant::now();
        let service = match problems {
            None => ShardedService::recover(&configs.serve),
            Some(problems) => ShardedService::start(problems, &configs.serve),
        }
        .map_err(ctx("recover"))?;
        timings.recoveries.push(secs(t.elapsed()));
        out.check(
            &format!("serve.{label}.recovery{rep}"),
            canonical_of(&service)? == state.canonical,
            "lands on the canonical matching of every shard",
        );
        serving = Some(service);
    }
    Ok(serving.expect("every window recovers"))
}

/// Length of the `seg`-th of [`SEGMENTS`] near-equal parts of `len` items.
fn part(len: usize, seg: usize) -> usize {
    len * (seg + 1) / SEGMENTS - len * seg / SEGMENTS
}

/// The measured run (tracing off). The service starts over the seed
/// problems, and a measurement window runs over the seed state. The traffic
/// then runs in [`SEGMENTS`] segments — an open-loop part followed by a part
/// of the capacity phase — and after each the service stops, its state is
/// checked, and a measurement window runs over it; the window's last
/// recovered service serves the next segment. The windows' set-ups,
/// solves and recoveries thus span the whole run, not a few seconds of it,
/// and a slow or fast spell of a shared machine moves only a few of them.
pub fn run(shape: &ServeShape, params: &Params) -> Result<Outcome, String> {
    let inputs = Inputs::new(shape, params);
    let dir = state_dir(shape, params);
    let configs = Configs {
        serve: config(shape, &dir.join("serve")),
        setup: config(shape, &dir.join("setup")),
    };
    let mut out = Outcome::default();
    let mut timings = Timings::default();

    let (server, setup) = start(&inputs.problems, &configs.serve)?;
    timings.setups.push(setup);
    let service = server.stop().map_err(ctx("server stop"))?;
    let route = route_of(&service);
    let seed = State {
        problems: inputs.problems.clone(),
        canonical: canonical_of(&service)?,
    };
    service.shutdown().map_err(ctx("shutdown"))?;
    let mut service = window(shape, &configs, &seed, "seed", &mut timings, &mut out)?;

    let traffic = inputs.traffic(shape, params, &route);
    let capacity_acks = traffic.acks.len() - inputs.open_acks;
    let mut next_read = 0;
    let mut next_ack = 0;
    let mut reads = Sample::with_capacity(traffic.reads.len());
    let mut acks = Sample::with_capacity(inputs.open_acks);
    let mut cap = Sample::with_capacity(capacity_acks);
    let mut rejected = 0;
    let mut open_wall_s = 0.0;
    let mut lag_p99_us = Vec::with_capacity(SEGMENTS);
    for seg in 0..SEGMENTS {
        let server =
            Server::start(service, &ServerConfig::default()).map_err(ctx("server start"))?;
        let mut ack_client = NetClient::connect(server.local_addr()).map_err(ctx("connect"))?;
        // Each shard must see its update stream in order, so a segment's
        // acks are the stream's next ones: its share of the open loop, then
        // its share of the capacity phase.
        let read_len = part(traffic.reads.len(), seg);
        let open_len = part(inputs.open_acks, seg);
        let capacity_len = part(capacity_acks, seg);
        let (open, capacity) =
            traffic.acks[next_ack..next_ack + open_len + capacity_len].split_at(open_len);
        let phase = socket_open_loop(
            &server,
            &mut ack_client,
            shape,
            &traffic.reads[next_read..next_read + read_len],
            open,
            None,
        )?;
        next_read += read_len;
        next_ack += open_len + capacity_len;
        cap.append(drive(capacity.len(), Instant::now(), None, |i| {
            net_ack(&mut ack_client, &capacity[i], None)
        }));
        drop(ack_client);
        open_wall_s += phase.wall_s;
        lag_p99_us.extend(percentile(&sorted(phase.reads.lag_us.clone()), 0.99).map(|p| p.value));
        reads.append(phase.reads);
        acks.append(phase.acks);

        let stopped = server.stop().map_err(ctx("server stop"))?;
        let label = format!("segment{seg}");
        let (problems, canonical, segment_rejected) = final_state(&stopped, &mut out, &label)?;
        rejected += segment_rejected;
        stopped.shutdown().map_err(ctx("shutdown"))?;
        let state = State {
            problems,
            canonical,
        };
        service = window(shape, &configs, &state, &label, &mut timings, &mut out)?;
    }
    service.shutdown().map_err(ctx("shutdown"))?;
    count_failures(&mut out, "serve", &[&reads, &acks, &cap], rejected);

    let windows = timings.windows;
    // Timings are means over samples spread across the run. The machine's
    // speed moves between spells; a median jumps from one spell's speed to
    // another's as their shares shift, where a mean moves with the shares.
    out.metric(
        "setup_s",
        mean(&timings.setups).expect("set-ups"),
        "s",
        format!(
            "mean of {} service + server starts, one per window plus the first",
            timings.setups.len()
        ),
    );
    out.percentile("read_p50_us", &reads.latency_us, 0.50, "us");
    out.percentile("read_p99_us", &reads.latency_us, 0.99, "us");
    out.percentile("ack_p50_us", &acks.latency_us, 0.50, "us");
    out.percentile("ack_p99_us", &acks.latency_us, 0.99, "us");
    // Back to back, each ack's latency is the time it held the connection,
    // so the rate is the acks over their latencies' sum.
    out.metric(
        "ack_capacity_per_s",
        cap.latency_us.len() as f64 * 1e6 / cap.latency_us.iter().sum::<f64>(),
        "1/s",
        format!("{capacity_acks} back-to-back acks, {SEGMENTS} runs of them"),
    );
    out.note(format!(
        "open loop: {open_wall_s:.1} s in {SEGMENTS} segments, offered {} reads/s + {} acks/s, \
         generator lag p99 by segment {lag_p99_us:.1?} us",
        shape.read_per_s, shape.ack_per_s,
    ));
    out.metric(
        "solve_s",
        mean(&timings.solves).expect("solves"),
        "s",
        format!(
            "mean of {} single-threaded SB solves, {WINDOW_SOLVES} in each of {windows} windows",
            timings.solves.len()
        ),
    );
    out.metric(
        "recover_s",
        mean(&timings.recoveries).expect("recoveries"),
        "s",
        format!(
            "mean of {} {}, {WINDOW_RECOVERIES} in each of {windows} windows",
            timings.recoveries.len(),
            match shape.checkpoint_every {
                Some(_) => "ShardedService::recover",
                None => "restarts from the published snapshots",
            }
        ),
    );
    for (name, sample) in [
        ("setup_s", &timings.setups),
        ("solve_s", &timings.solves),
        ("recover_s", &timings.recoveries),
    ] {
        out.note(format!("{name} samples in run order: {sample:.4?}"));
    }
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB", "VmHWM at exit");
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}

fn state_dir(shape: &ServeShape, params: &Params) -> PathBuf {
    params
        .state_dir
        .join(format!("{}-{}", shape.name, std::process::id()))
}

/// The traced run. Three phases replay the same generated traffic:
/// 1. the socket phase, open loop over TCP for half of `--seconds`, with
///    client spans `net.update`, `net.flush` (under one `ack` span per ack)
///    and `net.read`;
/// 2. the same traffic in process against a `ShardedService`, no socket;
/// 3. a layer replay of every ack through the writer's order of public
///    calls — `log_batch`, `sync_for_ack`, `UpdateOp::apply`,
///    `export_snapshot`, `maybe_checkpoint`, `EngineSnapshot::view` — one
///    `ack` span per batch.
pub fn run_traced(
    shape: &ServeShape,
    params: &Params,
    layers: &mut Layers,
) -> Result<Outcome, String> {
    let inputs = Inputs::new(shape, params);
    let dir = state_dir(shape, params);
    let config = config(shape, &dir);
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);

    // Phase 1: socket.
    reset_dir(&dir)?;
    let service = ShardedService::start(inputs.problems.clone(), &config).map_err(ctx("start"))?;
    let route = route_of(&service);
    let traffic = inputs.traffic(shape, params, &route);
    let half_acks = inputs.open_acks / 2;
    let half_reads = inputs.reads / 2;
    let server = Server::start(service, &ServerConfig::default()).map_err(ctx("server start"))?;
    let mut ack_client = NetClient::connect(server.local_addr()).map_err(ctx("connect"))?;
    let mut read_tracer = tracer.sibling();
    let mut ack_tracer = tracer.sibling();
    let socket = socket_open_loop(
        &server,
        &mut ack_client,
        shape,
        &traffic.reads[..half_reads],
        &traffic.acks[..half_acks],
        Some((&mut read_tracer, &mut ack_tracer)),
    )?;
    drop(ack_client);
    let socket_spans = read_tracer.spans().len() + ack_tracer.spans().len();
    // Service times (send to reply), free of the open loop's client-side
    // wait, so the socket and in-process phases compare like for like.
    let socket_ack_us = ack_tracer.durations_us("ack");
    let socket_read_us = read_tracer.durations_us("net.read");
    tracer.absorb(read_tracer);
    tracer.absorb(ack_tracer);
    let service = server.stop().map_err(ctx("server stop"))?;
    let (_, _, socket_rejected) = final_state(&service, &mut out, "socket")?;
    service.shutdown().map_err(ctx("shutdown"))?;
    count_failures(
        &mut out,
        "socket",
        &[&socket.reads, &socket.acks],
        socket_rejected,
    );

    // Phase 2: in process.
    reset_dir(&dir)?;
    let service = ShardedService::start(inputs.problems.clone(), &config).map_err(ctx("start"))?;
    let inproc = inproc_open_loop(
        &service,
        shape,
        &traffic.reads[..half_reads],
        &traffic.acks[..half_acks],
        &mut tracer,
    );
    let (_, _, inproc_rejected) = final_state(&service, &mut out, "inproc")?;
    let stats = service.stats();
    let publications: u64 = stats.shards.iter().map(|s| s.published_version - 1).sum();
    service.shutdown().map_err(ctx("shutdown"))?;
    count_failures(
        &mut out,
        "inproc",
        &[&inproc.reads, &inproc.acks],
        inproc_rejected,
    );

    // Phase 3: layer replay of every ack.
    reset_dir(&dir)?;
    let replay = layer_replay(shape, &inputs, &traffic, &dir, &mut tracer, &mut out)?;
    let _ = std::fs::remove_dir_all(&dir);

    // Per-layer metrics.
    let p50 = |s: &[f64]| percentile(&sorted(s.to_vec()), 0.5).map(|p| p.value);
    let socket_ack = p50(&socket_ack_us).unwrap_or(f64::NAN);
    let socket_read = p50(&socket_read_us).unwrap_or(f64::NAN);
    let inproc_ack = p50(&inproc.ack_us).unwrap_or(f64::NAN);
    let inproc_read = p50(&inproc.read_us).unwrap_or(f64::NAN);
    layers.set("rtree.pages", replay.tree_pages as f64);
    layers.set("storage.object_page_reads", replay.io.physical_reads as f64);
    layers.set("storage.buffer_hit_ratio", replay.io.hit_ratio());
    let ops = traffic.acks.len() as f64;
    let stage = |name: &str| tracer.durations_us(name);
    if shape.checkpoint_every.is_some() {
        layers.set_percentile(&mut out, "wal.append_us.p50", &stage("wal.append"), 0.5);
        layers.set_percentile(&mut out, "wal.fsync_us.p50", &stage("wal.fsync"), 0.5);
        layers.set_percentile(&mut out, "wal.fsync_us.p99", &stage("wal.fsync"), 0.99);
        layers.set("wal.bytes_per_ack", replay.wal_bytes as f64 / ops);
        if let Some(m) = mean(&replay.checkpoint_ms) {
            layers.set("wal.checkpoint_ms.mean", m);
            out.note(format!(
                "wal.checkpoint_ms.mean: {} checkpoints",
                replay.checkpoint_ms.len()
            ));
        }
    }
    layers.set("engine.new_s", replay.new_s);
    layers.set_percentile(
        &mut out,
        "engine.apply_object_us.p50",
        &replay.apply_object_us,
        0.5,
    );
    layers.set_percentile(
        &mut out,
        "engine.apply_object_us.p99",
        &replay.apply_object_us,
        0.99,
    );
    layers.set_percentile(
        &mut out,
        "engine.apply_function_us.p50",
        &replay.apply_function_us,
        0.5,
    );
    layers.set_percentile(
        &mut out,
        "engine.apply_function_us.p90",
        &replay.apply_function_us,
        0.9,
    );
    layers.set(
        "engine.repair_rounds_per_op",
        replay.repair_rounds as f64 / ops,
    );
    layers.set(
        "engine.object_io_per_op",
        replay.io.io_accesses() as f64 / ops,
    );
    layers.set_percentile(
        &mut out,
        "engine.export_us.p50",
        &stage("engine.export"),
        0.5,
    );
    layers.set_percentile(&mut out, "engine.view_us.p50", &stage("engine.view"), 0.5);
    layers.set("engine.restore_s", replay.restore_s);
    layers.set_percentile(&mut out, "service.ack_inproc_us.p50", &inproc.ack_us, 0.5);
    layers.set_percentile(&mut out, "service.ack_inproc_us.p90", &inproc.ack_us, 0.9);
    layers.set_percentile(&mut out, "service.read_inproc_us.p50", &inproc.read_us, 0.5);
    layers.set(
        "service.ops_per_publication",
        half_acks as f64 / publications.max(1) as f64,
    );
    layers.set(
        "service.rejected_ops",
        (socket_rejected + inproc_rejected) as f64,
    );
    layers.set("net.ack_overhead_us.p50", socket_ack - inproc_ack);
    layers.set("net.read_overhead_us.p50", socket_read - inproc_read);
    layers.set(
        "net.protocol_errors",
        (socket.reads.protocol_errors + socket.acks.protocol_errors) as f64,
    );
    layers.set(
        "net.admission_rejects",
        (socket.reads.admission_rejects + socket.acks.admission_rejects) as f64,
    );
    let lags: Vec<f64> = socket
        .reads
        .lag_us
        .iter()
        .chain(&socket.acks.lag_us)
        .copied()
        .collect();
    layers.set_percentile(&mut out, "bench.sched_lag_us.p99", &lags, 0.99);
    layers.set(
        "bench.achieved_over_offered",
        (half_reads + half_acks) as f64 / socket.wall_s / (shape.read_per_s + shape.ack_per_s),
    );

    // Stage shares of an ack, from the layer replay.
    const STAGES: [&str; 6] = [
        "wal.append",
        "wal.fsync",
        "engine.apply",
        "engine.export",
        "wal.checkpoint",
        "engine.view",
    ];
    let mut stage_p50_sum = 0.0;
    let mut means = Vec::new();
    for name in STAGES {
        let d = stage(name);
        if let (Some(p), Some(m)) = (p50(&d), mean(&d)) {
            stage_p50_sum += p;
            means.push((name, m));
        }
    }
    layers.set(
        "trace.unattributed_ack_share",
        1.0 - stage_p50_sum / socket_ack,
    );
    let socket_wall_us = socket.wall_s * 1e6;
    layers.set(
        "trace.overhead",
        socket_spans as f64 * span_cost_ns() / 1e3 / socket_wall_us,
    );
    let publish: f64 = means
        .iter()
        .filter(|(n, _)| *n == "engine.export" || *n == "engine.view")
        .map(|(_, m)| m)
        .sum();
    let total: f64 = means.iter().map(|(_, m)| m).sum();
    let mut ranked: Vec<(String, f64)> = means
        .iter()
        .filter(|(n, _)| *n != "engine.export" && *n != "engine.view")
        .map(|(n, m)| (n.to_string(), *m))
        .collect();
    ranked.push(("export+view".to_string(), publish));
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    out.note(format!(
        "ack stages by mean time: {}",
        ranked
            .iter()
            .map(|(n, m)| format!("{n} {m:.0} us ({:.0}%)", 100.0 * m / total))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.note(format!("largest ack stage: {}", ranked[0].0));
    crate::self_time_notes(&tracer, &mut out);
    crate::write_spans(params, shape.name, &tracer, &mut out);
    Ok(out)
}

/// Open-loop reads and acks against a `ShardedService` in process, with the
/// service time (span duration) of each.
struct InprocPhase {
    reads: Sample,
    acks: Sample,
    read_us: Vec<f64>,
    ack_us: Vec<f64>,
}

fn inproc_read(reader: &mut ServiceReader, read: &Read) -> Result<(), Failure> {
    match reader.snapshot(read.shard) {
        Ok(snap)
            if snap
                .assignment_of(FunctionId(read.function as usize))
                .is_some() =>
        {
            Ok(())
        }
        Ok(_) => Err(Failure::NotFound),
        Err(_) => Err(Failure::Protocol),
    }
}

fn inproc_open_loop(
    service: &ShardedService,
    shape: &ServeShape,
    reads: &[Read],
    acks: &[Ack],
    tracer: &mut Tracer,
) -> InprocPhase {
    let mut read_tracer = tracer.sibling();
    let mut ack_tracer = tracer.sibling();
    let mut reader = service.reader();
    let start = Instant::now() + Duration::from_millis(20);
    let (reads, acks) = std::thread::scope(|scope| {
        let read_tracer = &mut read_tracer;
        let handle = scope.spawn(move || {
            drive(reads.len(), start, Some(interval(shape.read_per_s)), |i| {
                read_tracer.leaf("service.read", None, READ_REQUEST_BASE + i as u64, || {
                    inproc_read(&mut reader, &reads[i])
                })
            })
        });
        let acks = drive(acks.len(), start, Some(interval(shape.ack_per_s)), |i| {
            let ack = &acks[i];
            let request = i as u64;
            let root = ack_tracer.open("ack", None, request);
            let submitted = ack_tracer.leaf("service.submit_batch", Some(root), request, || {
                service.submit_batch(ack.shard, vec![ack.op.clone()])
            });
            let flushed = submitted.and_then(|()| {
                ack_tracer.leaf("service.flush_shard", Some(root), request, || {
                    service.flush_shard(ack.shard)
                })
            });
            ack_tracer.close(root);
            flushed.map_err(|_| Failure::Protocol)
        });
        (handle.join().expect("reader thread"), acks)
    });
    let read_us = read_tracer.durations_us("service.read");
    let ack_us = ack_tracer.durations_us("ack");
    tracer.absorb(read_tracer);
    tracer.absorb(ack_tracer);
    InprocPhase {
        reads,
        acks,
        read_us,
        ack_us,
    }
}

/// What the layer replay measured besides its spans.
struct Replay {
    new_s: f64,
    restore_s: f64,
    apply_object_us: Vec<f64>,
    apply_function_us: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    wal_bytes: u64,
    repair_rounds: u64,
    io: pref_storage::IoStats,
    tree_pages: u64,
}

fn segment_len(dur: &ShardDurability) -> u64 {
    std::fs::metadata(wal::segment_path(dur.dir(), dur.last_checkpoint_seq()))
        .map_or(0, |m| m.len())
}

/// Replays every ack through the shard writer's order of public calls, on
/// one engine (and WAL, when durable) per shard.
fn layer_replay(
    shape: &ServeShape,
    inputs: &Inputs,
    traffic: &Traffic,
    dir: &Path,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<Replay, String> {
    let options = engine_options();
    let mut engines = Vec::with_capacity(shape.shards);
    let mut baseline_rounds = Vec::with_capacity(shape.shards);
    let mut wals = Vec::with_capacity(shape.shards);
    let mut replay = Replay {
        new_s: 0.0,
        restore_s: 0.0,
        apply_object_us: Vec::new(),
        apply_function_us: Vec::new(),
        checkpoint_ms: Vec::new(),
        wal_bytes: 0,
        repair_rounds: 0,
        io: pref_storage::IoStats::default(),
        tree_pages: 0,
    };
    for (i, problem) in inputs.problems.iter().enumerate() {
        let span = tracer.open("engine.new", None, i as u64);
        let engine = AssignmentEngine::new(problem, &options).map_err(ctx("engine"))?;
        tracer.close(span);
        replay.new_s += tracer.spans()[span].duration_ns() as f64 / 1e9;
        if let Some(k) = shape.checkpoint_every {
            let export = engine.export_snapshot();
            let wal = ShardDurability::create(
                &dir.join(format!("shard-{i}")),
                FsyncPolicy::Always,
                k,
                &export.functions,
                &export.objects,
            )
            .map_err(ctx("wal create"))?;
            wals.push(Some(wal));
        } else {
            wals.push(None);
        }
        baseline_rounds.push(engine.stats().repair_rounds);
        engines.push(engine);
    }
    let mut rejected = 0u64;
    for (i, ack) in traffic.acks.iter().enumerate() {
        let request = i as u64;
        let engine = &mut engines[ack.shard];
        let wal = &mut wals[ack.shard];
        let batch = std::slice::from_ref(&ack.op);
        let root = tracer.open("ack", None, request);
        if let Some(w) = wal.as_mut() {
            let before = segment_len(w);
            tracer
                .leaf("wal.append", Some(root), request, || w.log_batch(batch))
                .map_err(ctx("wal append"))?;
            tracer
                .leaf("wal.fsync", Some(root), request, || w.sync_for_ack())
                .map_err(ctx("wal fsync"))?;
            replay.wal_bytes += segment_len(w).saturating_sub(before);
        }
        let span = tracer.open("engine.apply", Some(root), request);
        let applied = ack.op.apply(engine);
        tracer.close(span);
        let apply_us = tracer.spans()[span].duration_ns() as f64 / 1e3;
        if ack.is_object_op() {
            replay.apply_object_us.push(apply_us);
        } else {
            replay.apply_function_us.push(apply_us);
        }
        rejected += u64::from(applied.is_err());
        let export = tracer.leaf("engine.export", Some(root), request, || {
            engine.export_snapshot()
        });
        if let Some(w) = wal.as_mut() {
            let span = tracer.open("wal.checkpoint", Some(root), request);
            let written = w
                .maybe_checkpoint(&export.functions, &export.objects)
                .map_err(ctx("checkpoint"))?;
            tracer.close(span);
            if written.is_some() {
                replay
                    .checkpoint_ms
                    .push(tracer.spans()[span].duration_ns() as f64 / 1e6);
            }
        }
        let view = tracer.leaf("engine.view", Some(root), request, || export.view());
        tracer.close(root);
        drop((export, view));
    }
    out.attempted += traffic.acks.len() as u64;
    out.failed += rejected;
    out.check(
        "replay.ops_applied",
        rejected == 0,
        format!("{rejected} ops rejected"),
    );
    for (i, engine) in engines.iter().enumerate() {
        let export = engine.export_snapshot();
        let view = export.view();
        let problem = export
            .to_problem()
            .ok_or("replayed shard has an empty population")?;
        let verdict = verify_stable(&problem, &view.to_assignment());
        out.check(
            &format!("replay.shard{i}.verify_stable"),
            verdict.is_ok(),
            verdict.map_or_else(|e| e.to_string(), |()| format!("{} pairs", view.len())),
        );
        let span = tracer.open("engine.restore", None, i as u64);
        let restored = AssignmentEngine::restore(&export, &options).map_err(ctx("restore"))?;
        tracer.close(span);
        replay.restore_s += tracer.spans()[span].duration_ns() as f64 / 1e9;
        out.check(
            &format!("replay.shard{i}.restore_equals_export"),
            restored.export_snapshot().view().canonical() == view.canonical(),
            "canonical matching",
        );
        let stats = engine.stats();
        replay.repair_rounds += stats.repair_rounds - baseline_rounds[i];
        replay.tree_pages += stats.tree_pages;
        replay.io.merge(&engine.update_object_io());
    }
    Ok(replay)
}
