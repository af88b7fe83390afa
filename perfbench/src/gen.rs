//! Seeded inputs. Every workload input comes from here, as a function of the
//! run's `--seed` alone (plus, for serving traffic, the service's
//! tenant-to-shard routing table, itself a fixed function of the shard
//! count), so the same seed gives byte-identical problems and batches.

use pref_assign::Problem;
use pref_datagen::{update_stream, ObjectDistribution, UpdateStreamConfig};
use pref_engine::UpdateOp;
use pref_geom::{LinearFunction, Point};
use pref_rtree::RecordId;
use std::collections::HashSet;

/// Dimensionality of every workload (the paper's default).
pub const DIMS: usize = 4;
/// Tenants the serving traffic is spread over.
pub const TENANTS: usize = 64;
/// Zipf skew of the tenant draw: tenant `k` has weight `1 / (k + 1)^s`.
pub const ZIPF_S: f64 = 1.1;
/// Share of update ops that touch objects (the rest touch functions).
pub const OBJECT_FRACTION: f64 = 0.85;
/// Share of update ops that are arrivals (the rest are departures).
pub const INSERT_FRACTION: f64 = 0.5;

/// splitmix64: derives independent sub-seeds and drives the traffic draws.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for one purpose (`stream`) of one run seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        g.next_u64();
        g
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// One assignment problem's raw inputs: uniform-weight functions with ids
/// `0..functions` and independent objects with ids `0..objects`.
#[derive(Debug, Clone, PartialEq)]
pub struct Population {
    /// Preference functions, id = position.
    pub functions: Vec<LinearFunction>,
    /// Objects with their record ids.
    pub objects: Vec<(RecordId, Point)>,
}

impl Population {
    /// Draws a population; `part` separates the shards of one run.
    pub fn generate(seed: u64, part: u64, functions: usize, objects: usize) -> Self {
        let mut g = SplitMix::new(seed, 0x9090 + part);
        Self {
            functions: pref_datagen::uniform_weight_functions(functions, DIMS, g.next_u64()),
            objects: ObjectDistribution::Independent.generate(objects, DIMS, g.next_u64()),
        }
    }

    /// The validated problem (the timed part of a batch set-up).
    pub fn problem(&self) -> Problem {
        Problem::from_parts(self.functions.clone(), self.objects.clone())
            .expect("generated populations are valid problems")
    }

    /// Bytes that pin every generated value (weights and coordinates as
    /// raw `f64` bits).
    pub fn fingerprint(&self, out: &mut Vec<u8>) {
        for f in &self.functions {
            push_f64s(out, f.weights());
        }
        for (id, p) in &self.objects {
            out.extend_from_slice(&id.0.to_le_bytes());
            push_f64s(out, p.coords());
        }
    }
}

fn push_f64s(out: &mut Vec<u8>, values: &[f64]) {
    for v in values {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// One acknowledged update: a one-op batch on a tenant, routed to `shard`.
#[derive(Debug, Clone, PartialEq)]
pub struct Ack {
    /// Frame tenant (rate-limit identity and routing key).
    pub tenant: u64,
    /// Shard the tenant routes to.
    pub shard: usize,
    /// The op, taken in order from the shard's update stream.
    pub op: UpdateOp,
}

impl Ack {
    /// True for an object arrival or departure.
    pub fn is_object_op(&self) -> bool {
        matches!(
            self.op,
            UpdateOp::InsertObject(_) | UpdateOp::RemoveObject(_)
        )
    }
}

/// One point read of a seed function that the update stream never removes,
/// so the read must find it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Read {
    /// Frame tenant.
    pub tenant: u64,
    /// Shard the tenant routes to.
    pub shard: usize,
    /// Function id to look up.
    pub function: u64,
}

/// A serving run's traffic, in send order.
#[derive(Debug, Clone, PartialEq)]
pub struct Traffic {
    /// Acks: the open-loop ones first, then the capacity phase's.
    pub acks: Vec<Ack>,
    /// Reads of the open-loop phase.
    pub reads: Vec<Read>,
}

impl Traffic {
    /// Draws `acks` acks and `reads` reads for shards of the given
    /// populations. `route[t]` is the shard tenant `t` routes to.
    ///
    /// Acks draw a Zipf tenant and take the next op of that tenant's shard's
    /// update stream, so each shard sees its stream in order. Reads draw a
    /// Zipf tenant and a seed function of its shard that the stream never
    /// removes.
    pub fn generate(
        seed: u64,
        populations: &[Population],
        route: &[usize],
        acks: usize,
        reads: usize,
    ) -> Self {
        assert_eq!(route.len(), TENANTS, "one route per tenant");
        let cdf = zipf_cdf(TENANTS, ZIPF_S);
        let mut g = SplitMix::new(seed, 0xacc5);
        let tenants: Vec<usize> = (0..acks).map(|_| zipf(&cdf, &mut g)).collect();
        let mut streams = Vec::with_capacity(populations.len());
        let mut survivors = Vec::with_capacity(populations.len());
        for (shard, pop) in populations.iter().enumerate() {
            let events = tenants.iter().filter(|&&t| route[t] == shard).count();
            let live_objects: Vec<RecordId> = pop.objects.iter().map(|(id, _)| *id).collect();
            let live_functions: Vec<u64> = (0..pop.functions.len() as u64).collect();
            let config = UpdateStreamConfig {
                num_events: events,
                dims: DIMS,
                distribution: ObjectDistribution::Independent,
                insert_fraction: INSERT_FRACTION,
                object_fraction: OBJECT_FRACTION,
                min_objects: live_objects.len() / 2,
                min_functions: live_functions.len() / 2,
                max_capacity: 1,
                seed: SplitMix::new(seed, 0x5700 + shard as u64).next_u64(),
            };
            let ops: Vec<UpdateOp> = update_stream(&config, &live_objects, &live_functions)
                .iter()
                .map(UpdateOp::from_event)
                .collect();
            let removed: HashSet<u64> = ops
                .iter()
                .filter_map(|op| match op {
                    UpdateOp::RemoveFunction(f) => Some(f.0 as u64),
                    _ => None,
                })
                .collect();
            survivors.push(
                live_functions
                    .into_iter()
                    .filter(|f| !removed.contains(f))
                    .collect::<Vec<u64>>(),
            );
            streams.push(ops.into_iter());
        }
        let acks = tenants
            .into_iter()
            .map(|t| {
                let shard = route[t];
                let op = streams[shard].next().expect("stream sized to its tenants");
                Ack {
                    tenant: t as u64,
                    shard,
                    op,
                }
            })
            .collect();
        assert!(
            route.iter().any(|&s| !survivors[s].is_empty()),
            "some shard must keep a seed function to read"
        );
        let mut g = SplitMix::new(seed, 0x4ead);
        let reads = (0..reads)
            .map(|_| loop {
                let t = zipf(&cdf, &mut g);
                let alive = &survivors[route[t]];
                if !alive.is_empty() {
                    break Read {
                        tenant: t as u64,
                        shard: route[t],
                        function: alive[g.below(alive.len())],
                    };
                }
            })
            .collect();
        Self { acks, reads }
    }

    /// Bytes that pin every generated batch and read: each ack's tenant,
    /// shard and WAL encoding, then each read.
    pub fn fingerprint(&self, out: &mut Vec<u8>) {
        for ack in &self.acks {
            out.extend_from_slice(&ack.tenant.to_le_bytes());
            out.extend_from_slice(&(ack.shard as u64).to_le_bytes());
            out.extend_from_slice(&pref_service::encode_batch(std::slice::from_ref(&ack.op)));
        }
        for read in &self.reads {
            out.extend_from_slice(&read.tenant.to_le_bytes());
            out.extend_from_slice(&(read.shard as u64).to_le_bytes());
            out.extend_from_slice(&read.function.to_le_bytes());
        }
    }
}

fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

fn zipf(cdf: &[f64], g: &mut SplitMix) -> usize {
    let u = g.unit();
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}
