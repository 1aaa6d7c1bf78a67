//! Deterministic sharded validation: the per-publication-point subtree
//! walks of [`Validator::run`] become independent shard units executed
//! by a seeded work-stealing scheduler, with a canonical merge that
//! makes the N-shard output **byte-identical** to the sequential walk.
//!
//! # How determinism survives parallelism
//!
//! This module owns the walk's *order* and its *executor*, nothing
//! else: what happens to one publication point is the same `seed` →
//! `admit` → `process` → `settle` → `close` stages the depth-first
//! driver calls, handed one fresh fragment per point as their sinks.
//!
//! The walk proceeds in *waves*: the frontier of pending publication
//! points at one depth. Each wave runs in three steps:
//!
//! 1. **Canonical-order `admit` (coordinator).** The frontier is sorted
//!    by its [DFS key](#dfs-keys) and every point is admitted — depth
//!    guard, cache decision, probe or directory load — by the
//!    coordinator, one at a time, in that order. Transport traffic is
//!    therefore a pure function of the world — independent of the
//!    shard count — so seeded fault dice are consumed identically
//!    whether the walk runs on 1 shard or 8.
//! 2. **Sharded `process` (workers).** Decode, signature verification,
//!    manifest/CRL checks, and resource containment — the expensive
//!    part — run on `shards` worker threads. Slots are assigned to
//!    shards by a seeded hash (`splitmix64(seed, wave, slot)`); an
//!    idle worker steals from the back of a neighbour's deque. Each
//!    item produces a self-contained *fragment* (its slice of the
//!    run), so racing workers never touch shared output.
//! 3. **Canonical `settle` and merge (coordinator).** Cache insertions
//!    are applied in ascending DFS-key order — the exact order the
//!    sequential LIFO walk processes items — and fragments are
//!    stitched back in that same order. Scheduling jitter can change
//!    *which worker* computes a fragment, never *where* the fragment
//!    lands.
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
use rpki_obs::Recorder;
use serde::Serialize;

use crate::incremental::{Memo, ValidationState};
use crate::source::ObjectSource;
use crate::validation::{Job, Marks, Sinks, ValidationRun, Validator, WorkItem};

/// How a sharded walk distributes work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ShardPlan {
    /// Number of shard workers (clamped to ≥ 1).
    pub shards: usize,
    /// Seed for the shard-assignment hash. Different seeds permute
    /// which shard initially owns which item; the merged output is
    /// identical for every seed.
    pub seed: u64,
}

impl ShardPlan {
    /// A plan with `shards` workers and the default seed.
    pub fn new(shards: usize) -> Self {
        ShardPlan::seeded(shards, 0x5eed_cafe)
    }

    /// A plan with `shards` workers and an explicit assignment seed.
    pub fn seeded(shards: usize, seed: u64) -> Self {
        ShardPlan { shards: shards.max(1), seed }
    }
}

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

    /// Emits the walk's deterministic shape into `rec` at simulated
    /// time `at`. Timing fields are intentionally omitted: traces must
    /// replay byte-identically.
    pub fn emit(&self, rec: &Recorder, at: u64) {
        if !rec.is_enabled() {
            return;
        }
        rec.count("rp.shard.runs", 1);
        rec.observe("rp.shard.items_per_run", self.items);
        rec.event(at, "rp", "sharded_walk")
            .u64("shards", self.shards as u64)
            .u64("waves", self.waves)
            .u64("items", self.items)
            .u64("assigned_min", self.assigned.iter().copied().min().unwrap_or(0))
            .u64("assigned_max", self.assigned.iter().copied().max().unwrap_or(0))
            .emit();
    }
}

/// SplitMix64: the seeded, stateless shard-assignment hash.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The shard an item at `slot` of `wave` is initially assigned to.
fn assign(plan: ShardPlan, wave: u64, slot: usize) -> usize {
    (splitmix64(plan.seed ^ splitmix64((wave << 32) | slot as u64)) % plan.shards as u64) as usize
}

/// One item's self-contained output: its fragment of the run plus the
/// children it queued, in push order.
#[derive(Default)]
struct ItemOutput {
    frag: ValidationRun,
    children: Vec<WorkItem>,
    /// Present when the item was a cache miss of an incremental walk:
    /// what `settle` memoises it under.
    memo: Option<Memo>,
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
        self.run_sharded_inner(source, tals, plan, None)
    }

    /// [`Validator::run_sharded`] composed with the memo cache: cached
    /// subtrees replay on the coordinator (including LIST-only digest
    /// probes in [`RevalidationMode::Probe`](crate::RevalidationMode)),
    /// and only cache misses fan out to the shard workers. Afterwards
    /// `state` holds the VRP delta and
    /// [`RevalidationStats`](crate::RevalidationStats) exactly as
    /// [`Validator::run_incremental`] would leave them.
    pub fn run_sharded_incremental(
        &self,
        source: &mut dyn ObjectSource,
        tals: &[TrustAnchorLocator],
        plan: ShardPlan,
        state: &mut ValidationState,
    ) -> (ValidationRun, ShardStats) {
        self.run_sharded_inner(source, tals, plan, Some(state))
    }

    fn run_sharded_inner(
        &self,
        source: &mut dyn ObjectSource,
        tals: &[TrustAnchorLocator],
        plan: ShardPlan,
        mut state: Option<&mut ValidationState>,
    ) -> (ValidationRun, ShardStats) {
        // `ShardPlan`'s fields are public: re-clamp a literal that
        // bypassed the constructor.
        let plan = ShardPlan::seeded(plan.shards, plan.seed);
        let shards = plan.shards;
        let mut stats = ShardStats {
            shards,
            assigned: vec![0; shards],
            processed: vec![0; shards],
            busy_ns: vec![0; shards],
            ..ShardStats::default()
        };
        let mut run = ValidationRun::default();
        if let Some(state) = state.as_deref_mut() {
            state.open();
        }

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

            // -- Step 1: canonical-order `admit` (I/O, cache decisions). --
            let n = frontier.len();
            let mut keys: Vec<Vec<u32>> = Vec::with_capacity(n);
            let mut outputs: Vec<Option<ItemOutput>> = Vec::with_capacity(n);
            let mut jobs: Vec<Mutex<Option<Job>>> = Vec::with_capacity(n);
            let mut pending: Vec<usize> = Vec::new();
            for (slot, (key_path, item)) in frontier.drain(..).enumerate() {
                keys.push(key_path);
                let mut out = ItemOutput::default();
                let job = self.admit(source, item, state.as_deref_mut(), &mut out.sinks());
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
                                    res.memo = v.process(job, &mut res.sinks());
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

            // -- Step 3: canonical-order `settle` and frontier
            // extension; fragments are stashed for the final merge. --
            for (slot, out) in outputs.into_iter().enumerate() {
                // Internal invariant: step 1 resolved the slot or put
                // it in `pending`, and step 2 drained `pending`.
                let mut out = out.expect("every slot resolved");
                let key_path = std::mem::take(&mut keys[slot]);
                if let (Some(state), Some(memo)) = (state.as_deref_mut(), out.memo.take()) {
                    self.settle(state, memo, &out.sinks(), Marks::default());
                }
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
        if let Some(state) = state {
            state.close(&run);
        }
        (run, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::{CacheEntry, RevalidationMode};
    use crate::source::DirectSource;
    use crate::validation::{IncompletePolicy, OverclaimPolicy, ValidationConfig};
    use ipres::{Asn, Prefix, ResourceSet};
    use netsim::Network;
    use rpki_ca::CertAuthority;
    use rpki_objects::{Encode, Moment, RepoUri, RoaPrefix, Span};
    use rpki_repo::{DirProbe, RepoRegistry, SyncOutcome};
    use rpkisim_crypto::{sha256, KeyId};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    struct Rig {
        repos: RepoRegistry,
        tal: TrustAnchorLocator,
        root: CertAuthority,
        children: Vec<CertAuthority>,
    }

    /// A TA with `n` child CAs, each publishing one ROA at its own
    /// publication point.
    fn rig(n: usize) -> Rig {
        let mut net = Network::new(1);
        let mut repos = RepoRegistry::new();
        repos.create(&mut net, "h");
        let ta_dir = RepoUri::new("h", &["ta"]);
        let root_dir = RepoUri::new("h", &["repo", "root"]);
        let mut root = CertAuthority::new("root", "shard-root", root_dir.clone());
        root.certify_self(ResourceSet::from_prefix_strs("10.0.0.0/8"), Moment(0), Span::days(30));
        let mut children = Vec::new();
        for i in 0..n {
            let dir = RepoUri::new("h", &["repo", &format!("c{i}")]);
            let mut ca = CertAuthority::new(&format!("c{i}"), &format!("shard-c{i}"), dir.clone());
            let res = ResourceSet::from_prefix_strs(&format!("10.{i}.0.0/16"));
            let rc =
                root.issue_cert(&format!("c{i}"), ca.public_key(), res, dir, Moment(0)).unwrap();
            ca.install_cert(rc);
            ca.issue_roa(
                Asn(64_500 + i as u32),
                vec![RoaPrefix::exact(p(&format!("10.{i}.0.0/16")))],
                Moment(0),
            )
            .unwrap();
            children.push(ca);
        }
        let tal = TrustAnchorLocator::new(ta_dir.join("root.cer"), root.public_key());
        {
            use rpki_objects::RpkiObject;
            let cert = root.cert().unwrap().clone();
            let root_snap = root.publication_snapshot(Moment(1));
            let snaps: Vec<_> = children
                .iter_mut()
                .map(|ca| (ca.sia().clone(), ca.publication_snapshot(Moment(1))))
                .collect();
            let repo = repos.by_host_mut("h").unwrap();
            repo.publish_raw(&ta_dir, "root.cer", RpkiObject::Cert(cert).to_bytes());
            repo.publish_snapshot(root.sia(), &root_snap);
            for (sia, snap) in &snaps {
                repo.publish_snapshot(sia, snap);
            }
        }
        Rig { repos, tal, root, children }
    }

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
    fn assignment_is_seed_deterministic() {
        let rig = rig(6);
        let v = Validator::new(ValidationConfig::at(Moment(2)));
        let plan = ShardPlan::seeded(4, 99);
        let (_, a) =
            v.run_sharded(&mut DirectSource::new(&rig.repos), std::slice::from_ref(&rig.tal), plan);
        let (_, b) =
            v.run_sharded(&mut DirectSource::new(&rig.repos), std::slice::from_ref(&rig.tal), plan);
        assert_eq!(a.assigned, b.assigned);
        assert_eq!(a.assigned.iter().sum::<u64>(), a.items);
        // A different seed permutes the assignment but not the output.
        let (run_a, _) =
            v.run_sharded(&mut DirectSource::new(&rig.repos), std::slice::from_ref(&rig.tal), plan);
        let (run_b, _) = v.run_sharded(
            &mut DirectSource::new(&rig.repos),
            std::slice::from_ref(&rig.tal),
            ShardPlan::seeded(4, 100),
        );
        assert_eq!(run_a, run_b);
    }

    #[test]
    fn sharded_incremental_reuses_and_matches() {
        let rig = rig(5);
        let v = Validator::new(ValidationConfig::at(Moment(2)));
        let sequential = v.run(&mut DirectSource::new(&rig.repos), std::slice::from_ref(&rig.tal));
        let mut state = ValidationState::full();
        let plan = ShardPlan::new(4);
        let (cold, _) = v.run_sharded_incremental(
            &mut DirectSource::new(&rig.repos),
            std::slice::from_ref(&rig.tal),
            plan,
            &mut state,
        );
        assert_eq!(cold, sequential);
        assert_eq!(state.stats().subtrees_rewalked, 6);
        assert_eq!(state.stats().announced, 5);
        let (warm, _) = v.run_sharded_incremental(
            &mut DirectSource::new(&rig.repos),
            std::slice::from_ref(&rig.tal),
            plan,
            &mut state,
        );
        assert_eq!(warm, sequential);
        assert_eq!(state.stats().subtrees_reused, 6);
        assert_eq!(state.stats().subtrees_rewalked, 0);
        assert!(state.last_delta().is_empty());
        // And the cache interoperates with the sequential incremental
        // walk: a sequential pass over the same state reuses it all.
        let seq_warm = v.run_incremental(
            &mut DirectSource::new(&rig.repos),
            std::slice::from_ref(&rig.tal),
            &mut state,
        );
        assert_eq!(seq_warm, sequential);
        assert_eq!(state.stats().subtrees_reused, 6);
    }

    #[test]
    fn probe_mode_probes_on_coordinator() {
        let rig = rig(4);
        let v = Validator::new(ValidationConfig::at(Moment(2)));
        let mut state = ValidationState::probe();
        let plan = ShardPlan::new(2);
        let (cold, _) = v.run_sharded_incremental(
            &mut DirectSource::new(&rig.repos),
            std::slice::from_ref(&rig.tal),
            plan,
            &mut state,
        );
        let (warm, _) = v.run_sharded_incremental(
            &mut DirectSource::new(&rig.repos),
            std::slice::from_ref(&rig.tal),
            plan,
            &mut state,
        );
        assert_eq!(warm, cold);
        assert_eq!(state.stats().probes, 5);
        assert_eq!(state.stats().probe_hits, 5);
    }

    /// [`DirectSource`], except that one directory may be unreachable.
    struct Unlisting<'a> {
        inner: DirectSource<'a>,
        unlisted: Option<RepoUri>,
    }

    impl ObjectSource for Unlisting<'_> {
        fn load_dir(&mut self, dir: &RepoUri) -> SyncOutcome {
            if self.unlisted.as_ref() == Some(dir) {
                return SyncOutcome::unreachable(dir.clone());
            }
            self.inner.load_dir(dir)
        }

        fn probe_dir(&mut self, dir: &RepoUri) -> Option<DirProbe> {
            if self.unlisted.as_ref() == Some(dir) {
                return Some(DirProbe::unreachable(dir.clone()));
            }
            self.inner.probe_dir(dir)
        }
    }

    /// How one row of the admission table perturbs a warmed-up world
    /// (TA + three children, validated once at `now`).
    enum Flip {
        Nothing,
        /// Edits child 0's cache entry: `(entry, now, root key)`.
        Entry(fn(&mut CacheEntry, u64, KeyId)),
        /// Validates under a different policy from here on.
        Config(fn(&mut ValidationConfig)),
        /// Child 0's directory stops answering.
        Unlisted,
        /// Child 0 publishes a certificate for the root's key.
        Loop,
    }

    /// `(clause, perturbation, (reused, rewalked) of the next run,
    /// whether child 0 ends up memoised)`.
    type Row = (&'static str, Flip, (u64, u64), bool);

    const ADMISSION: [Row; 14] = [
        ("control", Flip::Nothing, (4, 0), true),
        ("cert digest", Flip::Entry(|e, _, _| e.cert_digest = sha256(b"other")), (3, 1), true),
        ("effective", Flip::Entry(|e, _, _| e.effective = ResourceSet::empty()), (3, 1), true),
        ("depth", Flip::Entry(|e, _, _| e.depth += 1), (3, 1), true),
        (
            "incomplete",
            Flip::Config(|c| c.incomplete = IncompletePolicy::RejectPublicationPoint),
            (0, 4),
            true,
        ),
        ("overclaim", Flip::Config(|c| c.overclaim = OverclaimPolicy::Trim), (0, 4), true),
        ("max_depth", Flip::Config(|c| c.max_depth -= 1), (0, 4), true),
        ("now == window.0", Flip::Entry(|e, now, _| e.window = (now, now + 1)), (4, 0), true),
        ("now < window.0", Flip::Entry(|e, now, _| e.window = (now + 1, u64::MAX)), (3, 1), true),
        ("now == window.1", Flip::Entry(|e, now, _| e.window = (0, now)), (3, 1), true),
        (
            "child key on the ancestor stack",
            Flip::Entry(|e, _, root| {
                e.child_keys.insert(root);
            }),
            (3, 1),
            true,
        ),
        ("directory digest", Flip::Entry(|e, _, _| e.dir_digest = sha256(b"other")), (3, 1), true),
        ("unlisted directory evicts", Flip::Unlisted, (3, 1), false),
        ("loop seen evicts", Flip::Loop, (3, 1), false),
    ];

    /// Warms a state up, applies `row`'s perturbation, and checks the
    /// next two runs through one driver: the row's verdict, then reuse
    /// of whatever was memoised and another rewalk of whatever was
    /// evicted. Returns the final state's `{:?}`.
    fn admit_row(mode: RevalidationMode, sharded: bool, row: &Row) -> String {
        let (clause, flip, expect, memoised) = row;
        let ctx = format!("{clause} / {mode:?} / sharded={sharded}");
        let mut rig = rig(3);
        let child0 = rig.children[0].key_id();
        let mut config = ValidationConfig::at(Moment(2));
        let mut state = ValidationState::new(mode);
        let mut unlisted = None;
        let validate = |rig: &Rig, config, unlisted: &Option<RepoUri>, state: &mut _| {
            let v = Validator::new(config);
            let tals = std::slice::from_ref(&rig.tal);
            let mut source =
                Unlisting { inner: DirectSource::new(&rig.repos), unlisted: unlisted.clone() };
            if sharded {
                v.run_sharded_incremental(&mut source, tals, ShardPlan::new(3), state);
            } else {
                v.run_incremental(&mut source, tals, state);
            }
            (state.stats().subtrees_reused, state.stats().subtrees_rewalked)
        };

        assert_eq!(validate(&rig, config, &unlisted, &mut state), (0, 4), "{ctx}");
        match flip {
            Flip::Nothing => {}
            Flip::Entry(edit) => edit(
                state.entries.get_mut(&child0).expect("warmed up"),
                config.now.0,
                rig.root.key_id(),
            ),
            Flip::Config(edit) => edit(&mut config),
            Flip::Unlisted => unlisted = Some(rig.children[0].sia().clone()),
            Flip::Loop => {
                let (root_key, root_sia) = (rig.root.public_key(), rig.root.sia().clone());
                let ca = &mut rig.children[0];
                let inside = ResourceSet::from_prefix_strs("10.0.0.0/24");
                ca.issue_cert("loop", root_key, inside, root_sia, Moment(1)).unwrap();
                let snap = ca.publication_snapshot(Moment(1));
                rig.repos.by_host_mut("h").unwrap().publish_snapshot(ca.sia(), &snap);
            }
        }
        assert_eq!(validate(&rig, config, &unlisted, &mut state), *expect, "{ctx}");
        assert_eq!(state.entries.contains_key(&child0), *memoised, "{ctx}");
        let again = if *memoised { (4, 0) } else { (3, 1) };
        assert_eq!(validate(&rig, config, &unlisted, &mut state), again, "{ctx}");
        assert_eq!(state.entries.contains_key(&child0), *memoised, "{ctx}");
        format!("{state:?}")
    }

    /// Each row flips one clause of the cache decision for one
    /// publication point and must get the same verdict from the
    /// depth-first and the wave driver, in both revalidation modes —
    /// and leave the two drivers' states indistinguishable.
    #[test]
    fn admission_table_holds_through_both_drivers() {
        for mode in [RevalidationMode::Full, RevalidationMode::Probe] {
            for row in &ADMISSION {
                assert_eq!(
                    admit_row(mode, false, row),
                    admit_row(mode, true, row),
                    "{} / {mode:?}: states diverged",
                    row.0
                );
            }
        }
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
