//! Incremental revalidation: memoized subtree walks and VRP deltas.
//!
//! The campaign harness revalidates the whole RPKI every round, yet a
//! fault window usually touches one publication point. Production
//! validators exploit that: unchanged publication points are not
//! re-fetched, re-parsed, or re-verified. [`ValidationState`] brings
//! the same economy to the model: it memoizes each CA's subtree result
//! keyed by everything the result is a function of, and
//! [`Validator::run_incremental`] replays cached results for unchanged
//! subtrees while re-walking only what changed.
//!
//! The cache enters the walk in two places: `visit` decides replay or
//! re-walk for one publication point and memoises a re-walk, and
//! `close` takes the VRP delta once the run is finished. Nothing else
//! reads or writes an entry, and a cold walk ([`Validator::run`])
//! reaches neither.
//!
//! # Cache key and invalidation
//!
//! A publication point's validation output is a pure function of:
//!
//! - the **directory content** — captured by
//!   [`SyncOutcome::content_digest`](rpki_repo::SyncOutcome::content_digest)
//!   over the sorted `(name, digest)` pairs plus the missing/corrupted
//!   name lists;
//! - the **CA certificate bytes** (digest of the encoded certificate —
//!   key, subject, validity, SIA all included);
//! - the **effective resources** handed down by the parent (whacking an
//!   ancestor changes these without touching the child's directory);
//! - the **depth** and the policy knobs ([`IncompletePolicy`],
//!   [`OverclaimPolicy`], `max_depth`);
//! - the **validation time**, only through threshold comparisons: each
//!   decoded object contributes the instants at which its checks flip
//!   ([`Validity::flips`]) as boundaries, so a cache entry stores the
//!   half-open window `[lo, hi)` of times at which every comparison
//!   comes out the same way. Collecting a superset of boundaries is
//!   safe — it only narrows the window and forces an extra re-walk;
//! - the **ancestor key set**, only through loop detection: an entry
//!   records every certificate subject key seen in the directory and is
//!   replayed only for chains whose ancestor set is disjoint from it.
//!   Walks that actually hit a
//!   [`Issue::CertificateLoop`](crate::Issue::CertificateLoop) are
//!   never cached.
//!
//! All signature checks are deterministic functions of the bytes (the
//! crypto-sim's `key_id` pins the registry secret), so equal inputs
//! replay equal outputs, byte for byte.
//!
//! # Determinism and modes
//!
//! [`RevalidationMode::Full`] loads every directory exactly as a cold
//! walk would — identical network traffic, identical fault-dice
//! consumption — and uses the digest only to skip decode/verify work.
//! Output (including trace events) is therefore byte-identical to
//! [`Validator::run`] under *any* seeded campaign. In
//! [`RevalidationMode::Probe`] a cached subtree is first checked with a
//! LIST-only [`ObjectSource::probe_dir`]; a digest match skips the file
//! transfers entirely. That is the cheap mode, but because a probe
//! exchanges different frames than a full sync, probabilistic fault
//! scenarios consume their dice differently — Probe equivalence is only
//! guaranteed against deterministic transports.
//!
//! Each run also leaves a [`VrpDelta`] (announce/withdraw against the
//! previous run) in the state, ready to feed
//! [`RtrServer::publish`](crate::rtr::RtrServer::publish) so an
//! RTR serial bump carries a real delta instead of a recomputed set.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use ipres::ResourceSet;
use rpki_objects::{Encode, Moment, ResourceCert, TrustAnchorLocator, Validity};
use rpki_obs::Recorder;
use rpki_repo::Freshness;
use rpkisim_crypto::{sha256, Digest, KeyId};
use serde::Serialize;

use crate::rtr::Delta;
use crate::source::ObjectSource;
use crate::validation::{
    Diagnostic, IncompletePolicy, OverclaimPolicy, RejectedCa, ValidatedCa, ValidationRun,
    Validator, VrpRecord, WorkItem,
};
use crate::vrp::Vrp;

/// How [`Validator::run_incremental`] checks cached subtrees for
/// staleness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum RevalidationMode {
    /// Sync every directory exactly as a cold walk would and use the
    /// content digest only to skip re-validation work. Network
    /// behaviour — and therefore every seeded fault outcome — is
    /// byte-identical to [`Validator::run`].
    Full,
    /// Probe cached subtrees with a LIST-only exchange first and skip
    /// the file transfers on a digest match. Cheapest, but the changed
    /// traffic pattern perturbs probabilistic fault dice, so exact
    /// equivalence holds only over deterministic transports.
    Probe,
}

/// Facts collected while processing one publication point that decide
/// how long (and for which chains) the memoized result stays valid.
pub(crate) struct ProcessObservations {
    now: u64,
    lo: u64,
    hi: u64,
    child_keys: BTreeSet<KeyId>,
    loop_seen: bool,
}

impl ProcessObservations {
    /// A collector for a walk validating at time `now`.
    fn at(now: u64) -> Self {
        ProcessObservations {
            now,
            lo: 0,
            hi: u64::MAX,
            child_keys: BTreeSet::new(),
            loop_seen: false,
        }
    }

    /// Registers a time at which some comparison against "now" flips.
    fn boundary(&mut self, at: Moment) {
        if at.0 <= self.now {
            self.lo = self.lo.max(at.0);
        } else {
            self.hi = self.hi.min(at.0);
        }
    }

    /// An object validity window: its checks flip at [`Validity::flips`].
    pub(crate) fn validity(&mut self, v: Validity) {
        v.flips().into_iter().for_each(|at| self.boundary(at));
    }

    /// A manifest's or CRL's update window: only its end, where the list
    /// turns stale, flips a check; no check reads thisUpdate.
    pub(crate) fn next_update(&mut self, window: Validity) {
        self.boundary(window.flips()[1]);
    }

    /// A certificate subject key seen in the directory (loop-detection
    /// precondition for replay).
    pub(crate) fn child_key(&mut self, key: KeyId) {
        self.child_keys.insert(key);
    }

    /// A [`Issue::CertificateLoop`](crate::Issue::CertificateLoop)
    /// fired: the result depends on the chain's ancestry, so it must not
    /// be memoized.
    pub(crate) fn saw_loop(&mut self) {
        self.loop_seen = true;
    }

    /// The half-open `[lo, hi)` window of validation times over which
    /// every observed comparison keeps its outcome.
    fn window(&self) -> (u64, u64) {
        (self.lo, self.hi)
    }
}

/// The change in the validated VRP set between two consecutive runs.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct VrpDelta {
    /// VRPs present now but not in the previous run, sorted.
    pub announce: Vec<Vrp>,
    /// VRPs present in the previous run but not now, sorted.
    pub withdraw: Vec<Vrp>,
}

impl VrpDelta {
    /// The delta taking sorted, deduplicated `old` to sorted,
    /// deduplicated `new` (a linear merge — both inputs come from
    /// [`ValidationRun::vrps`], which is sorted and deduplicated).
    pub fn between(old: &[Vrp], new: &[Vrp]) -> Self {
        let mut announce = Vec::new();
        let mut withdraw = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < old.len() && j < new.len() {
            match old[i].cmp(&new[j]) {
                std::cmp::Ordering::Less => {
                    withdraw.push(old[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    announce.push(new[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        withdraw.extend_from_slice(&old[i..]);
        announce.extend_from_slice(&new[j..]);
        VrpDelta { announce, withdraw }
    }

    /// Whether the two runs validated the same VRP set.
    pub fn is_empty(&self) -> bool {
        self.announce.is_empty() && self.withdraw.is_empty()
    }

    /// The delta as one change list, announcements first: what an RTR
    /// server records for it, and what
    /// [`VrpCache::applied`](crate::vrp::VrpCache::applied) takes.
    pub(crate) fn changes(&self) -> Vec<Delta> {
        let announce = self.announce.iter().map(|&vrp| Delta { vrp, announce: true });
        let withdraw = self.withdraw.iter().map(|&vrp| Delta { vrp, announce: false });
        announce.chain(withdraw).collect()
    }
}

/// What one incremental run did, for benchmarking and observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RevalidationStats {
    /// Publication points replayed from cache.
    pub subtrees_reused: u64,
    /// Publication points processed in full (cold, changed, or
    /// uncacheable).
    pub subtrees_rewalked: u64,
    /// LIST-only probes attempted (Probe mode only).
    pub probes: u64,
    /// Probes whose digest matched the cache, skipping the transfer.
    pub probe_hits: u64,
    /// VRPs announced by this run's delta.
    pub announced: u64,
    /// VRPs withdrawn by this run's delta.
    pub withdrawn: u64,
}

impl RevalidationStats {
    /// Emits this run's incremental counters and delta-size histograms
    /// into `rec` at simulated time `at`.
    pub fn emit(&self, rec: &Recorder, at: u64) {
        if !rec.is_enabled() {
            return;
        }
        rec.count("rp.incremental.runs", 1);
        rec.count("rp.incremental.subtrees_reused", self.subtrees_reused);
        rec.count("rp.incremental.subtrees_rewalked", self.subtrees_rewalked);
        rec.count("rp.incremental.probes", self.probes);
        rec.count("rp.incremental.probe_hits", self.probe_hits);
        rec.observe("rp.incremental.delta_announced", self.announced);
        rec.observe("rp.incremental.delta_withdrawn", self.withdrawn);
        rec.event(at, "rp", "incremental")
            .u64("reused", self.subtrees_reused)
            .u64("rewalked", self.subtrees_rewalked)
            .u64("probes", self.probes)
            .u64("probe_hits", self.probe_hits)
            .u64("announced", self.announced)
            .u64("withdrawn", self.withdrawn)
            .emit();
    }
}

/// One memoized publication-point walk: the full key it was computed
/// under plus everything processing pushed into the run.
#[derive(Debug, Clone)]
pub(crate) struct CacheEntry {
    pub(crate) cert_digest: Digest,
    pub(crate) effective: Arc<ResourceSet>,
    pub(crate) depth: usize,
    pub(crate) incomplete: IncompletePolicy,
    pub(crate) overclaim: OverclaimPolicy,
    pub(crate) max_depth: usize,
    pub(crate) dir: Arc<str>,
    pub(crate) dir_digest: Digest,
    /// `[lo, hi)` of validation times preserving every time comparison.
    pub(crate) window: (u64, u64),
    /// Certificate subject keys seen in the directory: replay requires
    /// the chain's ancestors to be disjoint from these.
    pub(crate) child_keys: BTreeSet<KeyId>,
    pub(crate) ca: ValidatedCa,
    pub(crate) diagnostics: Vec<Diagnostic>,
    pub(crate) accepted_roas: Vec<(Arc<str>, Arc<str>)>,
    pub(crate) vrps: Vec<Vrp>,
    pub(crate) vrp_records: Vec<VrpRecord>,
    pub(crate) revocations: Vec<(KeyId, u64)>,
    pub(crate) rejected_cas: Vec<RejectedCa>,
    /// Child CAs in the order processing queued them, each with its
    /// cert digest precomputed so replayed subtrees never re-encode or
    /// re-hash certificates. A replay re-queues them shared, not copied.
    pub(crate) children: Vec<(Arc<ResourceCert>, Arc<ResourceSet>, Digest)>,
}

/// Persistent memory of an incremental relying party: the per-CA
/// subtree cache, the previous run's VRP set, and the last run's delta
/// and statistics. Owned by the experiment and lent to
/// [`Validator::run_incremental`] each revalidation.
#[derive(Debug)]
pub struct ValidationState {
    pub(crate) mode: RevalidationMode,
    pub(crate) entries: BTreeMap<KeyId, CacheEntry>,
    pub(crate) last_vrps: Option<Vec<Vrp>>,
    pub(crate) last_delta: VrpDelta,
    pub(crate) stats: RevalidationStats,
}

impl ValidationState {
    /// Fresh state revalidating in `mode`.
    pub fn new(mode: RevalidationMode) -> Self {
        ValidationState {
            mode,
            entries: BTreeMap::new(),
            last_vrps: None,
            last_delta: VrpDelta::default(),
            stats: RevalidationStats::default(),
        }
    }

    /// Fresh state in [`RevalidationMode::Full`] (campaign-safe:
    /// byte-identical network behaviour).
    pub fn full() -> Self {
        ValidationState::new(RevalidationMode::Full)
    }

    /// Fresh state in [`RevalidationMode::Probe`] (cheapest; exact
    /// equivalence over deterministic transports only).
    pub fn probe() -> Self {
        ValidationState::new(RevalidationMode::Probe)
    }

    /// The revalidation mode in force.
    pub fn mode(&self) -> RevalidationMode {
        self.mode
    }

    /// Statistics of the most recent [`Validator::run_incremental`].
    pub fn stats(&self) -> RevalidationStats {
        self.stats
    }

    /// The VRP delta the most recent run produced against the one
    /// before it (everything is an announce on the first run).
    pub fn last_delta(&self) -> &VrpDelta {
        &self.last_delta
    }

    /// Drops all memoized subtrees and the previous VRP set; the next
    /// run walks cold and announces everything.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.last_vrps = None;
        self.last_delta = VrpDelta::default();
        self.stats = RevalidationStats::default();
    }

    /// Records the finished `run`'s VRP delta against the previous run
    /// and keeps its VRP set for the next.
    pub(crate) fn close(&mut self, run: &ValidationRun) {
        let prev = self.last_vrps.take().unwrap_or_default();
        let delta = VrpDelta::between(&prev, &run.vrps);
        self.stats.announced = delta.announce.len() as u64;
        self.stats.withdrawn = delta.withdraw.len() as u64;
        self.last_vrps = Some(run.vrps.clone());
        self.last_delta = delta;
    }
}

/// The run's and the queue's lengths before a publication point wrote
/// to them, so `visit` can memoise exactly what that point appended.
/// Freshness is absent on purpose: it is live per round, never
/// memoised.
struct Marks {
    cas: usize,
    diagnostics: usize,
    accepted_roas: usize,
    vrps: usize,
    vrp_records: usize,
    revocations: usize,
    rejected_cas: usize,
    queue: usize,
}

impl Marks {
    fn of(run: &ValidationRun, queue: &[WorkItem]) -> Self {
        Marks {
            cas: run.cas.len(),
            diagnostics: run.diagnostics.len(),
            accepted_roas: run.accepted_roas.len(),
            vrps: run.vrps.len(),
            vrp_records: run.vrp_records.len(),
            revocations: run.revocations.len(),
            rejected_cas: run.rejected_cas.len(),
            queue: queue.len(),
        }
    }
}

impl Validator {
    /// Runs validation from `tals` over `source`, reusing `state`'s
    /// memoized subtrees where their cache key still matches and
    /// re-walking the rest. Output is byte-identical to
    /// [`Validator::run`] over the same world (see the module docs for
    /// the Probe-mode caveat); afterwards `state` holds the VRP delta
    /// against the previous run and this run's [`RevalidationStats`].
    pub fn run_incremental(
        &self,
        source: &mut dyn ObjectSource,
        tals: &[TrustAnchorLocator],
        state: &mut ValidationState,
    ) -> ValidationRun {
        state.stats = RevalidationStats::default();
        self.walk(source, tals, Some(state))
    }

    /// The whole cache decision for one publication point below the
    /// depth limit. A usable entry is replayed after a matching probe
    /// (Probe mode) or a load whose content digest matches; otherwise
    /// the loaded directory is processed and what it appended to `run`
    /// and `queue` is memoised under the key just missed.
    pub(crate) fn visit(
        &self,
        source: &mut dyn ObjectSource,
        item: WorkItem,
        state: &mut ValidationState,
        run: &mut ValidationRun,
        queue: &mut Vec<WorkItem>,
    ) {
        let config = self.config();
        let dir = &item.cert.data().sia;
        let key = item.cert.data().subject_key.id();
        let cert_digest = item.digest.unwrap_or_else(|| sha256(&item.cert.to_bytes()));
        let now = config.now.0;
        let usable = state.entries.get(&key).filter(|e| {
            e.cert_digest == cert_digest
                && e.effective == item.effective
                && e.depth == item.depth
                && e.incomplete == config.incomplete
                && e.overclaim == config.overclaim
                && e.max_depth == config.max_depth
                && e.window.0 <= now
                && now < e.window.1
                && !item.ancestors.keys().any(|k| e.child_keys.contains(&k))
        });

        if let (Some(entry), RevalidationMode::Probe) = (usable, state.mode) {
            if let Some(probe) = source.probe_dir(dir) {
                state.stats.probes += 1;
                if probe.listed && probe.content_digest() == Some(entry.dir_digest) {
                    state.stats.probe_hits += 1;
                    state.stats.subtrees_reused += 1;
                    Self::replay(entry, Freshness::Fresh, &item, run, queue);
                    return;
                }
            }
        }

        let outcome = source.load_dir(dir);
        let dir_digest = outcome.content_digest();
        if let Some(entry) = usable.filter(|e| dir_digest == Some(e.dir_digest)) {
            state.stats.subtrees_reused += 1;
            Self::replay(entry, outcome.freshness, &item, run, queue);
            return;
        }

        state.stats.subtrees_rewalked += 1;
        let (effective, depth) = (item.effective.clone(), item.depth);
        let marks = Marks::of(run, queue);
        let mut obs = ProcessObservations::at(now);
        self.process(item, outcome, run, queue, Some(&mut obs));
        // Unlisted directories have no content digest to key on, and
        // walks that hit a certificate loop depend on this particular
        // chain's ancestry: neither is memoized.
        let (Some(dir_digest), false) = (dir_digest, obs.loop_seen) else {
            state.entries.remove(&key);
            return;
        };
        let entry = CacheEntry {
            cert_digest,
            effective,
            depth,
            incomplete: config.incomplete,
            overclaim: config.overclaim,
            max_depth: config.max_depth,
            dir: run.freshness.last().expect("processing records freshness").0.clone(),
            dir_digest,
            window: obs.window(),
            child_keys: obs.child_keys,
            ca: run.cas[marks.cas].clone(),
            diagnostics: run.diagnostics[marks.diagnostics..].to_vec(),
            accepted_roas: run.accepted_roas[marks.accepted_roas..].to_vec(),
            vrps: run.vrps[marks.vrps..].to_vec(),
            vrp_records: run.vrp_records[marks.vrp_records..].to_vec(),
            revocations: run.revocations[marks.revocations..].to_vec(),
            rejected_cas: run.rejected_cas[marks.rejected_cas..].to_vec(),
            children: queue[marks.queue..]
                .iter()
                .map(|w| {
                    let digest = w.digest.unwrap_or_else(|| sha256(&w.cert.to_bytes()));
                    (w.cert.clone(), w.effective.clone(), digest)
                })
                .collect(),
        };
        state.entries.insert(key, entry);
    }

    /// Replays a memoized walk: pushes the stored outputs in their
    /// original order and re-queues the child CAs exactly as the full
    /// walk queued them, so the overall traversal — and therefore every
    /// order-sensitive output vector — is identical. Every string is
    /// shared with the entry, never copied. Freshness is live: it
    /// reports how *this* round obtained (or confirmed) the data.
    fn replay(
        entry: &CacheEntry,
        freshness: Freshness,
        item: &WorkItem,
        run: &mut ValidationRun,
        queue: &mut Vec<WorkItem>,
    ) {
        run.cas.push(entry.ca.clone());
        run.freshness.push((entry.dir.clone(), freshness));
        run.diagnostics.extend(entry.diagnostics.iter().cloned());
        run.accepted_roas.extend(entry.accepted_roas.iter().cloned());
        run.vrps.extend_from_slice(&entry.vrps);
        run.vrp_records.extend_from_slice(&entry.vrp_records);
        run.revocations.extend(entry.revocations.iter().cloned());
        run.rejected_cas.extend(entry.rejected_cas.iter().cloned());
        if entry.children.is_empty() {
            return;
        }
        let ancestors = item.ancestors.below(entry.ca.key);
        for (cert, effective, digest) in &entry.children {
            queue.push(WorkItem {
                cert: cert.clone(),
                effective: effective.clone(),
                depth: entry.depth + 1,
                ancestors: ancestors.clone(),
                digest: Some(*digest),
            });
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::source::DirectSource;
    use crate::validation::ValidationConfig;
    use crate::vrp::VrpCache;
    use ipres::{Asn, Prefix};
    use netsim::Network;
    use rpki_ca::CertAuthority;
    use rpki_objects::{RepoUri, RoaPrefix, Span};
    use rpki_repo::{DirProbe, RepoRegistry, SyncOutcome};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// A small world for walk tests (shared with `shard`'s).
    pub(crate) struct Rig {
        pub(crate) net: Network,
        pub(crate) repos: RepoRegistry,
        pub(crate) tal: TrustAnchorLocator,
        root: CertAuthority,
        children: Vec<CertAuthority>,
    }

    /// A TA with `n` child CAs, each publishing one ROA at its own
    /// publication point.
    pub(crate) fn rig(n: usize) -> Rig {
        let mut net = Network::new(1);
        let mut repos = RepoRegistry::new();
        repos.create(&mut net, "h");
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
        let tal = repos.publish_trust_anchor(&root);
        for ca in std::iter::once(&mut root).chain(&mut children) {
            assert!(repos.publish(ca, Moment(1)));
        }
        Rig { net, repos, tal, root, children }
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
    /// (TA + three children, validated once at `now`). The target is
    /// child 0 unless the flip is [`Flip::Deep`].
    enum Flip {
        Nothing,
        /// Edits the target's cache entry: `(entry, now, root key)`.
        Entry(fn(&mut CacheEntry, u64, KeyId)),
        /// Validates under a different policy from here on.
        Config(fn(&mut ValidationConfig)),
        /// The target's directory stops answering.
        Unlisted,
        /// The target publishes a certificate for the root's key.
        Loop,
        /// The same flip one level down: child 0 certifies a grandchild
        /// before the warm-up, and the grandchild is the target, with
        /// the root two links up its chain.
        Deep(&'static Flip),
    }

    /// `(clause, perturbation, (reused, rewalked) of the next run,
    /// whether the target ends up memoised)`.
    type Row = (&'static str, Flip, (u64, u64), bool);

    const ADMISSION: [Row; 16] = [
        ("control", Flip::Nothing, (4, 0), true),
        ("cert digest", Flip::Entry(|e, _, _| e.cert_digest = sha256(b"other")), (3, 1), true),
        (
            "effective",
            Flip::Entry(|e, _, _| e.effective = ResourceSet::empty().into()),
            (3, 1),
            true,
        ),
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
        (
            "child key two links up",
            Flip::Deep(&Flip::Entry(|e, _, root| {
                e.child_keys.insert(root);
            })),
            (4, 1),
            true,
        ),
        ("loop two links up evicts", Flip::Deep(&Flip::Loop), (4, 1), false),
    ];

    /// Child 0 certifies a CA of its own at its own publication point.
    fn grandchild(rig: &mut Rig) -> CertAuthority {
        let dir = RepoUri::new("h", &["repo", "g"]);
        let mut g = CertAuthority::new("g", "shard-g", dir.clone());
        let res = ResourceSet::from_prefix_strs("10.0.0.0/20");
        g.install_cert(
            rig.children[0].issue_cert("g", g.public_key(), res, dir, Moment(0)).unwrap(),
        );
        assert!(rig.repos.publish(&mut rig.children[0], Moment(1)));
        assert!(rig.repos.publish(&mut g, Moment(1)));
        g
    }

    /// Warms a state up, applies `row`'s perturbation, and checks the
    /// next two runs: the row's verdict, then reuse of whatever was
    /// memoised and another rewalk of whatever was evicted.
    fn admit_row(mode: RevalidationMode, row: &Row) {
        let (clause, flip, expect, memoised) = row;
        let ctx = format!("{clause} / {mode:?}");
        let mut rig = rig(3);
        let (flip, mut deep) = match flip {
            Flip::Deep(flip) => (*flip, Some(grandchild(&mut rig))),
            flip => (flip, None),
        };
        let points = 4 + u64::from(deep.is_some());
        let target = deep.as_ref().unwrap_or(&rig.children[0]).key_id();
        let mut config = ValidationConfig::at(Moment(2));
        let mut state = ValidationState::new(mode);
        let mut unlisted = None;
        let validate = |rig: &Rig, config, unlisted: &Option<RepoUri>, state: &mut _| {
            let v = Validator::new(config);
            let tals = std::slice::from_ref(&rig.tal);
            let mut source =
                Unlisting { inner: DirectSource::new(&rig.repos), unlisted: unlisted.clone() };
            v.run_incremental(&mut source, tals, state);
            (state.stats().subtrees_reused, state.stats().subtrees_rewalked)
        };

        assert_eq!(validate(&rig, config, &unlisted, &mut state), (0, points), "{ctx}");
        let ca = deep.as_mut().unwrap_or(&mut rig.children[0]);
        match flip {
            Flip::Nothing => {}
            Flip::Entry(edit) => edit(
                state.entries.get_mut(&target).expect("warmed up"),
                config.now.0,
                rig.root.key_id(),
            ),
            Flip::Config(edit) => edit(&mut config),
            Flip::Unlisted => unlisted = Some(ca.sia().clone()),
            Flip::Loop => {
                let (root_key, root_sia) = (rig.root.public_key(), rig.root.sia().clone());
                let inside = ResourceSet::from_prefix_strs("10.0.0.0/24");
                ca.issue_cert("loop", root_key, inside, root_sia, Moment(1)).unwrap();
                assert!(rig.repos.publish(ca, Moment(1)));
            }
            Flip::Deep(_) => unreachable!("one level down at most"),
        }
        assert_eq!(validate(&rig, config, &unlisted, &mut state), *expect, "{ctx}");
        assert_eq!(state.entries.contains_key(&target), *memoised, "{ctx}");
        let again = if *memoised { (points, 0) } else { (points - 1, 1) };
        assert_eq!(validate(&rig, config, &unlisted, &mut state), again, "{ctx}");
        assert_eq!(state.entries.contains_key(&target), *memoised, "{ctx}");
    }

    /// Each row flips one clause of the cache decision for one
    /// publication point and must get its verdict in both revalidation
    /// modes.
    #[test]
    fn admission_table_holds_in_both_modes() {
        for mode in [RevalidationMode::Full, RevalidationMode::Probe] {
            for row in &ADMISSION {
                admit_row(mode, row);
            }
        }
    }

    /// A replay shares the first walk's strings instead of copying them:
    /// over an unchanged world, every directory, accepted ROA and CA
    /// handle of the second run is the first run's allocation.
    #[test]
    fn replay_shares_and_does_not_copy() {
        let rig = rig(3);
        let v = Validator::new(ValidationConfig::at(Moment(2)));
        let tals = std::slice::from_ref(&rig.tal);
        let mut state = ValidationState::full();
        let first = v.run_incremental(&mut DirectSource::new(&rig.repos), tals, &mut state);
        let second = v.run_incremental(&mut DirectSource::new(&rig.repos), tals, &mut state);
        assert_eq!(state.stats().subtrees_reused, 4);
        assert_eq!(second, first);
        assert_eq!(first.accepted_roas.len(), 3);
        for (a, b) in first.freshness.iter().zip(&second.freshness) {
            assert!(Arc::ptr_eq(&a.0, &b.0), "directory {} was copied", b.0);
        }
        for (a, b) in first.accepted_roas.iter().zip(&second.accepted_roas) {
            assert!(Arc::ptr_eq(&a.0, &b.0), "issuer {} was copied", b.0);
            assert!(Arc::ptr_eq(&a.1, &b.1), "ROA {} was copied", b.1);
        }
        for (a, b) in first.cas.iter().zip(&second.cas) {
            assert!(Arc::ptr_eq(&a.handle, &b.handle), "handle {} was copied", b.handle);
            assert!(
                Arc::ptr_eq(&a.resources, &b.resources),
                "{}'s resources were copied",
                b.handle
            );
        }
    }

    #[test]
    fn delta_between_and_apply_roundtrip() {
        let v = |n: u8| Vrp::new(format!("10.{n}.0.0/16").parse().unwrap(), 16, ipres::Asn(1));
        let old = vec![v(1), v(2), v(3)];
        let new = vec![v(2), v(3), v(4), v(5)];
        let delta = VrpDelta::between(&old, &new);
        assert_eq!(delta.announce, vec![v(4), v(5)]);
        assert_eq!(delta.withdraw, vec![v(1)]);
        assert!(!delta.is_empty());
        let set: VrpCache = old.into_iter().collect();
        assert_eq!(set.applied(&delta.changes()).vrps(), new);
        assert!(VrpDelta::between(&new, &new).is_empty());
    }

    #[test]
    fn time_window_brackets_now() {
        let mut obs = ProcessObservations::at(100);
        obs.validity(Validity::new(Moment(10), Moment(500)));
        obs.next_update(Validity::new(Moment(0), Moment(300)));
        assert_eq!(obs.window(), (10, 301));
        // A boundary exactly at now lands in the lower bound.
        obs.validity(Validity::new(Moment(100), Moment(10_000)));
        assert_eq!(obs.window(), (100, 301));
    }
}
