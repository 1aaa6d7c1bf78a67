//! Deterministic sharded validation: the per-publication-point subtree
//! walks of [`Validator::run`] become independent shard units executed
//! by a seeded work-stealing scheduler, with a canonical merge that
//! makes the N-shard output **byte-identical** to the sequential walk.
//!
//! # How determinism survives parallelism
//!
//! This module owns the walk's *order* and its *executor*, nothing
//! else: what happens to one publication point is the same `seed` →
//! `admit` → `process` → `finish` stages the depth-first driver calls,
//! handed one fresh fragment per point as their sinks. The sharded walk
//! is cold — it has no memo cache, so no cache decision, no `settle`
//! and no `close`; those belong to [`Validator::run_incremental`]
//! alone.
//!
//! The walk proceeds in *waves*: the frontier of pending publication
//! points at one depth. Each wave runs in three steps:
//!
//! 1. **Canonical-order `admit` (coordinator).** The frontier is sorted
//!    by its [DFS key](#dfs-keys) and every point is admitted — depth
//!    guard, then directory load — by the coordinator, one at a time,
//!    in that order. Transport traffic is therefore a pure function of
//!    the world — independent of the shard count — so seeded fault dice
//!    are consumed identically whether the walk runs on 1 shard or 8.
//! 2. **Sharded `process` (workers).** Decode, signature verification,
//!    manifest/CRL checks, and resource containment — the expensive
//!    part — run on `shards` worker threads. Slots are assigned to
//!    shards by a fixed-seed hash (`splitmix64(seed, wave, slot)`); an
//!    idle worker steals from the back of a neighbour's deque. Each
//!    item produces a self-contained *fragment* (its slice of the
//!    run), so racing workers never touch shared output.
//! 3. **Canonical merge (coordinator).** Children join the next
//!    frontier and fragments are stitched back in ascending DFS-key
//!    order — the exact order the sequential LIFO walk processes
//!    items. Scheduling jitter can change *which worker* computes a
//!    fragment, never *where* the fragment lands.
//!
//! # DFS keys
//!
//! Every work item carries a path key `Vec<u32>`: a child queued at
//! push-rank `r` of `n` extends its parent's key with `n-1-r`, the
//! accepted trust anchors being the children of the empty key.
//! Ascending lexicographic order over these keys is exactly the order
//! `Validator::run`'s LIFO queue pops items (parents before children,
//! later-pushed siblings first), so concatenating fragments in key
//! order reproduces every order-sensitive output vector byte for byte.
//!
//! # Equivalence guarantees
//!
//! - `run_sharded(N)` ≡ `run_sharded(M)` for all N, M — always,
//!   including under seeded faults, because I/O order and merge order
//!   are both shard-count independent.
//! - `run_sharded(N)` ≡ [`Validator::run`] over order-insensitive
//!   sources ([`DirectSource`](crate::DirectSource), or a fault-free
//!   network): the wave walk loads directories in a different *order*
//!   than the depth-first walk, which only matters to transports whose
//!   answers depend on request ordering.
//!
//! Timing data (per-shard busy time, steal counts) is inherently
//! nondeterministic; it lives only in the returned [`ShardStats`] and
//! is **never** emitted into trace events, which must stay replayable
//! byte for byte.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

use rpki_objects::TrustAnchorLocator;
use serde::Serialize;

use crate::source::ObjectSource;
use crate::validation::{Job, Sinks, ValidationRun, Validator, WorkItem};

/// How a sharded walk distributes work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ShardPlan {
    /// Number of shard workers (clamped to ≥ 1).
    pub shards: usize,
}

impl ShardPlan {
    /// A plan with `shards` workers.
    pub fn new(shards: usize) -> Self {
        ShardPlan { shards: shards.max(1) }
    }
}

/// Seed of the shard-assignment hash. It decides which shard initially
/// owns which item and nothing else: the merged output is the same for
/// every value, so it is not an option.
const ASSIGN_SEED: u64 = 0x5eed_cafe;

/// What one sharded walk did.
///
/// The deterministic fields (`shards`, `waves`, `items`, `assigned`)
/// are a pure function of the world and the plan. The timing fields
/// (`busy_ns`, `critical_path_ns`, `processed`, `steals`) are
/// wall-clock measurements and vary run to run — they are returned
/// here for benchmarking but deliberately kept out of trace events.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct ShardStats {
    /// Worker count the walk ran with.
    pub shards: usize,
    /// Frontier waves executed (= deepest processed depth + 1).
    pub waves: u64,
    /// Publication-point items processed across all waves.
    pub items: u64,
    /// Items initially assigned to each shard by the seeded hash
    /// (before stealing) — deterministic.
    pub assigned: Vec<u64>,
    /// Items each worker actually processed (own plus stolen).
    pub processed: Vec<u64>,
    /// Items that ran on a different shard than assigned.
    pub steals: u64,
    /// Per-shard busy time, nanoseconds, summed over waves.
    pub busy_ns: Vec<u64>,
    /// Total busy time across all shards (the sequential CPU cost of
    /// the sharded stage).
    pub busy_total_ns: u64,
    /// Sum over waves of the *maximum* per-shard busy time in that
    /// wave: the schedule's critical path. With perfect balance this
    /// approaches `busy_total_ns / shards`.
    pub critical_path_ns: u64,
}

impl ShardStats {
    /// The schedule's load-balance speedup: total busy time divided by
    /// the critical path. This is the factor by which the sharded
    /// stage beats the sequential walk *given one core per shard* —
    /// it measures the quality of the work distribution independently
    /// of how many physical cores the host happens to have.
    pub fn model_speedup(&self) -> f64 {
        if self.critical_path_ns == 0 {
            return 1.0;
        }
        self.busy_total_ns as f64 / self.critical_path_ns as f64
    }
}

/// SplitMix64: the stateless shard-assignment hash.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The shard an item at `slot` of `wave` is initially assigned to.
fn assign(plan: ShardPlan, wave: u64, slot: usize) -> usize {
    (splitmix64(ASSIGN_SEED ^ splitmix64((wave << 32) | slot as u64)) % plan.shards as u64) as usize
}

/// One item's self-contained output: its fragment of the run plus the
/// children it queued, in push order.
#[derive(Default)]
struct ItemOutput {
    frag: ValidationRun,
    children: Vec<WorkItem>,
}

impl ItemOutput {
    fn sinks(&mut self) -> Sinks<'_> {
        Sinks { run: &mut self.frag, queue: &mut self.children }
    }
}

struct WorkerOut {
    results: Vec<(usize, ItemOutput)>,
    busy: u64,
    processed: u64,
    steals: u64,
}

fn append(run: &mut ValidationRun, frag: ValidationRun) {
    run.vrps.extend(frag.vrps);
    run.vrp_records.extend(frag.vrp_records);
    run.cas.extend(frag.cas);
    run.accepted_roas.extend(frag.accepted_roas);
    run.revocations.extend(frag.revocations);
    run.diagnostics.extend(frag.diagnostics);
    run.freshness.extend(frag.freshness);
    run.rejected_cas.extend(frag.rejected_cas);
}

/// Queues `children` (in push order) onto the frontier under `parent`'s
/// DFS key.
fn extend_frontier(
    frontier: &mut Vec<(Vec<u32>, WorkItem)>,
    parent: &[u32],
    children: Vec<WorkItem>,
) {
    let n = children.len();
    for (r, child) in children.into_iter().enumerate() {
        let mut key = parent.to_vec();
        key.push((n - 1 - r) as u32);
        frontier.push((key, child));
    }
}

impl Validator {
    /// Runs validation from `tals` over `source` with the walk sharded
    /// per `plan`. The merged [`ValidationRun`] is byte-identical to
    /// [`Validator::run`] over order-insensitive sources, and
    /// byte-identical across shard counts unconditionally (see the
    /// [module docs](self)).
    pub fn run_sharded(
        &self,
        source: &mut dyn ObjectSource,
        tals: &[TrustAnchorLocator],
        plan: ShardPlan,
    ) -> (ValidationRun, ShardStats) {
        // `ShardPlan`'s field is public: re-clamp a literal that
        // bypassed the constructor.
        let plan = ShardPlan::new(plan.shards);
        let shards = plan.shards;
        let mut stats = ShardStats {
            shards,
            assigned: vec![0; shards],
            processed: vec![0; shards],
            busy_ns: vec![0; shards],
            ..ShardStats::default()
        };
        let mut run = ValidationRun::default();

        // Rejected TALs diagnose straight into the run (before any
        // fragment); accepted ones are the children of the empty key.
        let mut roots = Vec::new();
        self.seed(source, tals, &mut Sinks { run: &mut run, queue: &mut roots });
        let mut frontier: Vec<(Vec<u32>, WorkItem)> = Vec::new();
        extend_frontier(&mut frontier, &[], roots);

        let mut fragments: Vec<(Vec<u32>, ValidationRun)> = Vec::new();
        let mut wave_idx: u64 = 0;

        while !frontier.is_empty() {
            frontier.sort_by(|a, b| a.0.cmp(&b.0));
            stats.waves += 1;
            stats.items += frontier.len() as u64;

            // -- Step 1: canonical-order `admit` (depth guard, I/O). --
            let n = frontier.len();
            let mut keys: Vec<Vec<u32>> = Vec::with_capacity(n);
            let mut outputs: Vec<Option<ItemOutput>> = Vec::with_capacity(n);
            let mut jobs: Vec<Mutex<Option<Job>>> = Vec::with_capacity(n);
            let mut pending: Vec<usize> = Vec::new();
            for (slot, (key_path, item)) in frontier.drain(..).enumerate() {
                keys.push(key_path);
                let mut out = ItemOutput::default();
                let job = self.admit(source, item, None, &mut out.sinks());
                if job.is_some() {
                    pending.push(slot);
                }
                outputs.push(job.is_none().then_some(out));
                jobs.push(Mutex::new(job));
            }

            // -- Step 2: seeded assignment, work-stealing `process`. --
            if !pending.is_empty() {
                let queues: Vec<Mutex<VecDeque<usize>>> =
                    (0..shards).map(|_| Mutex::new(VecDeque::new())).collect();
                // The `expect`s on locks and joins below are internal
                // invariants, not remote-reachable: a lock is poisoned
                // (and a join fails) only if another worker already
                // panicked, and the validator itself never panics on
                // adversarial input — the corpus differential suite
                // asserts exactly that.
                for (pos, &slot) in pending.iter().enumerate() {
                    let shard = assign(plan, wave_idx, pos);
                    stats.assigned[shard] += 1;
                    queues[shard].lock().expect("queue lock").push_back(slot);
                }
                let outs: Vec<WorkerOut> = std::thread::scope(|s| {
                    let handles: Vec<_> = (0..shards)
                        .map(|w| {
                            let queues = &queues;
                            let jobs = &jobs;
                            let v = *self;
                            s.spawn(move || {
                                let mut out = WorkerOut {
                                    results: Vec::new(),
                                    busy: 0,
                                    processed: 0,
                                    steals: 0,
                                };
                                loop {
                                    // Own deque first (front), then
                                    // steal from the back of the next
                                    // non-empty neighbour. Each pop is
                                    // bound to a `let` so its lock
                                    // guard drops before the next
                                    // queue is touched — holding one
                                    // queue while probing another
                                    // would deadlock two stealers.
                                    let own = queues[w].lock().expect("queue lock").pop_front();
                                    let mut found = own.map(|i| (i, false));
                                    if found.is_none() {
                                        for d in 1..shards {
                                            let q = (w + d) % shards;
                                            let stolen =
                                                queues[q].lock().expect("queue lock").pop_back();
                                            if let Some(i) = stolen {
                                                found = Some((i, true));
                                                break;
                                            }
                                        }
                                    }
                                    let Some((slot, stolen)) = found else { break };
                                    let job = jobs[slot]
                                        .lock()
                                        .expect("job lock")
                                        .take()
                                        .expect("job claimed once");
                                    let t0 = Instant::now();
                                    let mut res = ItemOutput::default();
                                    v.process(job, &mut res.sinks());
                                    out.busy += t0.elapsed().as_nanos() as u64;
                                    out.processed += 1;
                                    if stolen {
                                        out.steals += 1;
                                    }
                                    out.results.push((slot, res));
                                }
                                out
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().expect("shard worker panicked")).collect()
                });
                let mut wave_max = 0u64;
                for (w, out) in outs.into_iter().enumerate() {
                    wave_max = wave_max.max(out.busy);
                    stats.busy_ns[w] += out.busy;
                    stats.busy_total_ns += out.busy;
                    stats.processed[w] += out.processed;
                    stats.steals += out.steals;
                    for (slot, res) in out.results {
                        outputs[slot] = Some(res);
                    }
                }
                stats.critical_path_ns += wave_max;
            }

            // -- Step 3: canonical-order frontier extension; fragments
            // are stashed for the final merge. --
            for (slot, out) in outputs.into_iter().enumerate() {
                // Internal invariant: step 1 resolved the slot or put
                // it in `pending`, and step 2 drained `pending`.
                let out = out.expect("every slot resolved");
                let key_path = std::mem::take(&mut keys[slot]);
                extend_frontier(&mut frontier, &key_path, out.children);
                fragments.push((key_path, out.frag));
            }
            wave_idx += 1;
        }

        // -- Canonical merge: ascending DFS-key order is exactly the
        // sequential walk's processing order. --
        fragments.sort_by(|a, b| a.0.cmp(&b.0));
        for (_, frag) in fragments {
            append(&mut run, frag);
        }
        self.finish(&mut run);
        (run, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::tests::rig;
    use crate::source::DirectSource;
    use crate::validation::ValidationConfig;
    use rpki_objects::Moment;

    #[test]
    fn sharded_matches_sequential_for_every_shard_count() {
        let rig = rig(9);
        let v = Validator::new(ValidationConfig::at(Moment(2)));
        let sequential = v.run(&mut DirectSource::new(&rig.repos), std::slice::from_ref(&rig.tal));
        assert_eq!(sequential.vrps.len(), 9);
        for shards in [1, 2, 3, 8, 16] {
            let (run, stats) = v.run_sharded(
                &mut DirectSource::new(&rig.repos),
                std::slice::from_ref(&rig.tal),
                ShardPlan::new(shards),
            );
            assert_eq!(run, sequential, "{shards}-shard walk diverged");
            assert_eq!(stats.shards, shards);
            assert_eq!(stats.waves, 2);
            assert_eq!(stats.items, 10);
            assert_eq!(stats.processed.iter().sum::<u64>(), 10);
        }
    }

    #[test]
    fn assignment_is_deterministic() {
        let rig = rig(6);
        let v = Validator::new(ValidationConfig::at(Moment(2)));
        let plan = ShardPlan::new(4);
        let (_, a) =
            v.run_sharded(&mut DirectSource::new(&rig.repos), std::slice::from_ref(&rig.tal), plan);
        let (_, b) =
            v.run_sharded(&mut DirectSource::new(&rig.repos), std::slice::from_ref(&rig.tal), plan);
        assert_eq!(a.assigned, b.assigned);
        assert_eq!(a.assigned.iter().sum::<u64>(), a.items);
    }

    #[test]
    fn model_speedup_sane() {
        let stats = ShardStats {
            shards: 4,
            busy_total_ns: 4_000,
            critical_path_ns: 1_000,
            ..ShardStats::default()
        };
        assert!((stats.model_speedup() - 4.0).abs() < 1e-9);
        assert_eq!(ShardStats::default().model_speedup(), 1.0);
    }
}
