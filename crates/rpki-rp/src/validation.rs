//! Top-down chain validation.
//!
//! Starting from the configured trust anchors, the [`Validator`] walks
//! publication points, verifying at every hop:
//!
//! - **signatures** — each object under its issuer's key;
//! - **time** — validity windows contain "now"; manifests and CRLs are
//!   not stale;
//! - **revocation** — serials against the issuer's CRL;
//! - **resources** — strict RFC 3779 containment: a child claiming
//!   anything outside its parent's allocation is rejected along with
//!   its entire subtree (this is the rule a whacking manipulator turns
//!   into a weapon: shrink the parent, and the target below becomes the
//!   over-claimer);
//! - **completeness** — manifest hash checks detect missing and
//!   corrupted files. What to *do* about an incomplete publication
//!   point is deliberately a policy knob ([`IncompletePolicy`]),
//!   because the RFCs leave it to local policy and the paper shows the
//!   stakes of each choice.
//!
//! Every rejection is recorded as a [`Diagnostic`] — experiments assert
//! on these, and the `rpki-attacks` monitor consumes them.
//!
//! The walk is one depth-first loop behind two entry points:
//! [`Validator::run`], which loads and processes every point, and
//! [`Validator::run_incremental`], which lets the memo cache decide each
//! point in one place, `visit`.
//!
//! A processed point builds each of its strings once, as an `Arc`: its
//! CA handle, its directory, its resources and each accepted ROA's
//! display form. Every record the point leaves in a run shares them,
//! and so does the memo entry, so a replay copies pointers, not text.

use std::cell::RefCell;
use std::fmt::{self, Write};
use std::sync::Arc;

use ipres::ResourceSet;
use rpki_objects::{
    Crl, CrlData, Decode, Manifest, ManifestData, Moment, RepoUri, ResourceCert, RpkiObject,
    Signed, ToBeSigned, TrustAnchorLocator, UpdateWindow, Validity,
};
use rpki_obs::Recorder;
use rpki_repo::{Freshness, SyncOutcome};
use rpkisim_crypto::{sha256, Digest, KeyId, PublicKey};
use serde::Serialize;

use crate::incremental::{ProcessObservations, ValidationState};
use crate::source::ObjectSource;
use crate::vrp::{Vrp, VrpCache};

/// Sanity cap on manifest listings. No modelled publication point
/// comes near this; a listing above it is adversarial (an oversize
/// listing floods the walk with per-file bookkeeping) and the manifest
/// is discarded as [`Issue::MalformedObject`].
pub const MAX_MANIFEST_ENTRIES: usize = 10_000;

/// What to do when a publication point cannot be proven complete
/// (manifest missing, stale, or unverifiable; or listed files missing
/// or hash-mismatched).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum IncompletePolicy {
    /// Use every object that independently verifies. Maximises routing
    /// protection but accepts whatever subset an attacker or fault left
    /// behind — the paper's Side Effect 6 exposure.
    AcceptPartial,
    /// Discard the whole publication point unless provably complete.
    /// Immune to partial-deletion games, but one corrupted file takes
    /// down every ROA the CA issued.
    RejectPublicationPoint,
}

/// How to treat a child certificate claiming resources outside its
/// parent's allocation.
///
/// The choice changes the economics of whacking (see the
/// `ablation_depth_sweep` experiment): under [`OverclaimPolicy::Trim`],
/// shrinking an ancestor RC no longer invalidates intermediate CAs, so
/// deep whacks need **no** suspicious make-before-break reissues — the
/// robustness fix makes the targeted attack *stealthier*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum OverclaimPolicy {
    /// RFC 6487: an over-claiming certificate is invalid, and its whole
    /// subtree with it.
    Strict,
    /// RFC 8360 "validation reconsidered": the certificate stays valid
    /// with its resources trimmed to the intersection with its
    /// parent's; only objects that actually need the lost space fail.
    Trim,
}

/// What to do about *unsafe VRPs*: VRPs whose prefix overlaps the
/// resources of a CA that was rejected somewhere in the walk.
///
/// The concern (borrowed from routinator's `--unsafe-vrps` option) is
/// that a rejected CA may have held a ROA for the overlapping space;
/// with that ROA gone, a same-space VRP surviving elsewhere can flip
/// the victim's announcements from unknown to invalid — Side Effect 6
/// territory. The flip side is the new attack this knob opens: under
/// [`UnsafeVrpPolicy::Reject`] a misbehaving parent only has to get a
/// bogus child certificate rejected over a victim's space to suppress
/// the victim's perfectly legitimate more-specific VRP.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub enum UnsafeVrpPolicy {
    /// Take no special action; unsafe-VRP analysis is skipped entirely
    /// (the production default).
    #[default]
    Accept,
    /// Flag unsafe VRPs in [`ValidationRun::unsafe_vrps`] but keep them
    /// in the validated set.
    Warn,
    /// Flag unsafe VRPs *and* drop them from the validated set.
    Reject,
}

impl UnsafeVrpPolicy {
    /// A short machine-readable label for traces and metrics.
    pub fn label(&self) -> &'static str {
        match self {
            UnsafeVrpPolicy::Accept => "accept",
            UnsafeVrpPolicy::Warn => "warn",
            UnsafeVrpPolicy::Reject => "reject",
        }
    }
}

/// Validator configuration.
#[derive(Debug, Clone, Copy)]
pub struct ValidationConfig {
    /// The validation time.
    pub now: Moment,
    /// Incomplete-publication-point policy.
    pub incomplete: IncompletePolicy,
    /// Over-claim handling.
    pub overclaim: OverclaimPolicy,
    /// Maximum CA chain depth (cycle/runaway guard).
    pub max_depth: usize,
    /// Unsafe-VRP handling.
    pub unsafe_vrps: UnsafeVrpPolicy,
}

impl ValidationConfig {
    /// Defaults: accept-partial, strict over-claim handling, depth 32,
    /// unsafe VRPs accepted.
    pub fn at(now: Moment) -> Self {
        ValidationConfig {
            now,
            incomplete: IncompletePolicy::AcceptPartial,
            overclaim: OverclaimPolicy::Strict,
            max_depth: 32,
            unsafe_vrps: UnsafeVrpPolicy::default(),
        }
    }

    /// Same, with the given unsafe-VRP policy.
    pub fn with_unsafe_policy(self, policy: UnsafeVrpPolicy) -> Self {
        ValidationConfig { unsafe_vrps: policy, ..self }
    }

    /// Same, with the strict completeness policy.
    pub fn strict_at(now: Moment) -> Self {
        ValidationConfig { incomplete: IncompletePolicy::RejectPublicationPoint, ..Self::at(now) }
    }

    /// Same as [`ValidationConfig::at`], with RFC 8360 trimming.
    pub fn reconsidered_at(now: Moment) -> Self {
        ValidationConfig { overclaim: OverclaimPolicy::Trim, ..Self::at(now) }
    }
}

/// Why an object or publication point was rejected (or noted).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum Issue {
    /// The repository hosting the directory could not be reached or
    /// listed.
    UnreachableRepo,
    /// The trust-anchor certificate was absent or failed the TAL check.
    TalRejected,
    /// No manifest at the publication point.
    MissingManifest,
    /// Manifest signature failed.
    BadManifestSignature,
    /// Manifest past its `next_update`.
    StaleManifest,
    /// No CRL at the publication point.
    MissingCrl,
    /// CRL signature failed.
    BadCrlSignature,
    /// CRL past its `next_update`.
    StaleCrl,
    /// A manifest-listed file never arrived.
    MissingFile(String),
    /// A file's bytes do not match the manifest hash (corruption, or a
    /// repository serving stale/tampered data).
    HashMismatch(String),
    /// A file arrived from the transport with bytes failing the
    /// *listing's* digest (in-flight corruption caught by the sync
    /// layer before the manifest check ever ran).
    CorruptedFile(String),
    /// A file failed to decode.
    DecodeFailed(String),
    /// An object's signature failed under its issuer's key.
    BadSignature(String),
    /// An object is outside its validity window.
    Expired(String),
    /// An object is not yet valid.
    NotYetValid(String),
    /// An object's serial is on the issuer's CRL.
    Revoked(String),
    /// A child claimed resources outside its parent's allocation; the
    /// subtree is rejected (strict policy).
    OverClaim(String),
    /// A child claimed resources outside its parent's allocation and
    /// was trimmed to the intersection (RFC 8360 policy).
    TrimmedOverClaim(String),
    /// The publication point was discarded under
    /// [`IncompletePolicy::RejectPublicationPoint`].
    RejectedPublicationPoint,
    /// A file present in the directory but absent from the manifest
    /// (ignored; noted for monitoring).
    UnlistedFile(String),
    /// Chain depth exceeded [`ValidationConfig::max_depth`].
    DepthExceeded,
    /// A CA key appeared twice on one chain (certificate loop).
    CertificateLoop(String),
    /// An object decoded but violated a structural sanity bound (e.g. a
    /// manifest listing more entries than any plausible publication
    /// point holds). The object is discarded; the walk continues.
    MalformedObject(String),
}

/// One validator finding, attributed to the publication point it arose
/// at.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Diagnostic {
    /// Handle of the CA whose publication point was being processed.
    pub ca: Arc<str>,
    /// The directory.
    pub dir: Arc<str>,
    /// What happened.
    pub issue: Issue,
}

/// A CA accepted onto the validated tree.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ValidatedCa {
    /// Subject handle (reporting only).
    pub handle: Arc<str>,
    /// Subject key id.
    #[serde(skip)]
    pub key: KeyId,
    /// Depth below the trust anchor (TA = 0).
    pub depth: usize,
    /// The CA's validated resources, as display strings.
    pub resources: Arc<[String]>,
}

/// Provenance of one VRP: everything a fail-safe layer (such as
/// [Suspenders]) needs to judge a later disappearance.
///
/// [Suspenders]: https://datatracker.ietf.org/doc/draft-kent-sidr-suspenders/
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct VrpRecord {
    /// The payload.
    pub vrp: Vrp,
    /// When the underlying ROA's validity ends.
    pub not_after: Moment,
    /// The issuing CA's key.
    #[serde(skip)]
    pub issuer: KeyId,
    /// The ROA's EE serial (what a CRL would revoke).
    pub serial: u64,
}

/// A CA certificate (or whole publication point) dropped during the
/// walk, with the resources it claimed — the raw material of
/// unsafe-VRP analysis: any surviving VRP overlapping these resources
/// may have lost a competing or covering ROA with the rejection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RejectedCa {
    /// Subject handle of the dropped CA (reporting only).
    pub ca: Arc<str>,
    /// The publication directory the rejection is attributed to.
    pub dir: Arc<str>,
    /// The resources the dropped certificate claimed (for a dropped
    /// publication point: the CA's effective resources).
    pub resources: ResourceSet,
}

/// The output of one validation run.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct ValidationRun {
    /// Every validated ROA payload.
    pub vrps: Vec<Vrp>,
    /// Provenance for every VRP (aligned set, not order): validity end,
    /// issuer, serial.
    pub vrp_records: Vec<VrpRecord>,
    /// Every CA accepted onto the tree.
    pub cas: Vec<ValidatedCa>,
    /// Accepted ROAs, as `(issuing CA handle, ROA display string)`.
    pub accepted_roas: Vec<(Arc<str>, Arc<str>)>,
    /// Serials observed as revoked, per issuing CA key — the audit
    /// trail that distinguishes transparent revocation from stealthy
    /// removal.
    pub revocations: Vec<(KeyId, u64)>,
    /// Everything that went wrong or was noteworthy.
    pub diagnostics: Vec<Diagnostic>,
    /// Data provenance per publication point processed: fresh from the
    /// wire, served stale from a snapshot, or absent entirely.
    pub freshness: Vec<(Arc<str>, Freshness)>,
    /// CAs (or whole publication points) dropped during the walk, in
    /// traversal order, with the resources they claimed. Always
    /// recorded, regardless of [`UnsafeVrpPolicy`].
    pub rejected_cas: Vec<RejectedCa>,
    /// VRPs overlapping a rejected CA's resources, sorted. Empty under
    /// [`UnsafeVrpPolicy::Accept`] (analysis skipped); under
    /// [`UnsafeVrpPolicy::Reject`] these have additionally been removed
    /// from [`ValidationRun::vrps`] and
    /// [`ValidationRun::vrp_records`].
    pub unsafe_vrps: Vec<Vrp>,
}

impl ValidationRun {
    /// The VRPs as a queryable cache.
    pub fn vrp_cache(&self) -> VrpCache {
        self.vrps.iter().copied().collect()
    }

    /// Whether any diagnostic carries the given issue.
    pub fn has_issue(&self, issue: &Issue) -> bool {
        self.diagnostics.iter().any(|d| &d.issue == issue)
    }

    /// Drops `item`'s whole publication point, named `ca` at `dir`, for
    /// `issue`: the diagnostic, and the resources it spoke for as a
    /// [`RejectedCa`].
    fn reject_point(&mut self, item: &WorkItem, ca: &Arc<str>, dir: &Arc<str>, issue: Issue) {
        self.diagnostics.push(Diagnostic { ca: ca.clone(), dir: dir.clone(), issue });
        let resources = (*item.effective).clone();
        self.rejected_cas.push(RejectedCa { ca: ca.clone(), dir: dir.clone(), resources });
    }

    /// Emits this run's outcome into an observability recorder at
    /// simulated time `at`: one `validation` summary event, one
    /// `freshness` provenance event per publication point (in the
    /// run's sorted order), and the matching counters/histograms.
    pub fn emit(&self, rec: &Recorder, at: u64) {
        if !rec.is_enabled() {
            return;
        }
        let mut fresh = 0u64;
        let mut stale = 0u64;
        let mut absent = 0u64;
        for (dir, provenance) in &self.freshness {
            let (label, age) = match provenance {
                Freshness::Fresh => {
                    fresh += 1;
                    ("fresh", 0)
                }
                Freshness::Stale { age } => {
                    stale += 1;
                    ("stale", *age)
                }
                Freshness::Absent => {
                    absent += 1;
                    ("absent", 0)
                }
            };
            rec.event(at, "rp", "freshness")
                .str("dir", dir)
                .str("state", label)
                .u64("age", age)
                .emit();
        }
        rec.count("rp.validation_runs", 1);
        rec.observe("rp.vrps_per_run", self.vrps.len() as u64);
        rec.event(at, "rp", "validation")
            .u64("vrps", self.vrps.len() as u64)
            .u64("cas", self.cas.len() as u64)
            .u64("roas", self.accepted_roas.len() as u64)
            .u64("revocations", self.revocations.len() as u64)
            .u64("diagnostics", self.diagnostics.len() as u64)
            .u64("fresh_dirs", fresh)
            .u64("stale_dirs", stale)
            .u64("absent_dirs", absent)
            .u64("rejected_cas", self.rejected_cas.len() as u64)
            .u64("unsafe_vrps", self.unsafe_vrps.len() as u64)
            .emit();
    }
}

/// The chain validator.
#[derive(Debug, Clone, Copy)]
pub struct Validator {
    config: ValidationConfig,
}

/// One CA waiting on the walk's queue. The certificate and resources
/// are shared with the cache entry that re-queues them, and the
/// ancestor chain with every sibling.
pub(crate) struct WorkItem {
    pub(crate) cert: Arc<ResourceCert>,
    /// The resources this CA may actually speak for: its certificate's
    /// set under [`OverclaimPolicy::Strict`], possibly an intersection
    /// under [`OverclaimPolicy::Trim`].
    pub(crate) effective: Arc<ResourceSet>,
    pub(crate) depth: usize,
    /// Keys of every CA above this one (loop detection).
    pub(crate) ancestors: Ancestors,
    /// Digest of the encoded certificate, when a cache already knows it
    /// (replayed subtrees); `None` means compute on demand.
    pub(crate) digest: Option<Digest>,
}

/// The keys of the CAs above a work item, nearest first: a chain of
/// parent links, so siblings share their parent's chain and a child
/// adds one link. At most `max_depth` long.
#[derive(Clone, Default)]
pub(crate) struct Ancestors(Option<Arc<Link>>);

struct Link {
    key: KeyId,
    up: Ancestors,
}

impl Ancestors {
    /// The chain of a child of the CA that holds `key` and has this
    /// chain: `key`, then this chain.
    pub(crate) fn below(&self, key: KeyId) -> Ancestors {
        Ancestors(Some(Arc::new(Link { key, up: self.clone() })))
    }

    /// Every key on the chain, nearest first.
    pub(crate) fn keys(&self) -> impl Iterator<Item = KeyId> + '_ {
        std::iter::successors(self.0.as_deref(), |link| link.up.0.as_deref()).map(|link| link.key)
    }

    /// Whether `key` is on the chain.
    pub(crate) fn contains(&self, key: KeyId) -> bool {
        self.keys().any(|k| k == key)
    }
}

impl Validator {
    /// A validator with the given configuration.
    pub fn new(config: ValidationConfig) -> Self {
        Validator { config }
    }

    /// Runs validation from `tals` over `source`.
    pub fn run(&self, source: &mut dyn ObjectSource, tals: &[TrustAnchorLocator]) -> ValidationRun {
        self.walk(source, tals, None)
    }

    /// The depth-first walk behind [`Validator::run`] and
    /// [`Validator::run_incremental`]: a LIFO queue seeded with the
    /// trust anchors, so a point's children are visited before its
    /// later-popped siblings. Below the depth limit a popped point is
    /// loaded and processed, or, with a `state`, handed to `visit`.
    /// Everything writes straight into the run and the queue, so a
    /// replayed point costs no intermediate buffer.
    pub(crate) fn walk(
        &self,
        source: &mut dyn ObjectSource,
        tals: &[TrustAnchorLocator],
        mut state: Option<&mut ValidationState>,
    ) -> ValidationRun {
        let mut run = ValidationRun::default();
        let mut queue = self.seed(source, tals, &mut run);
        while let Some(item) = queue.pop() {
            // Depth-exceeded items never touch the directory; diagnosing
            // them is cheaper than caching them.
            if item.depth >= self.config.max_depth {
                if let Some(state) = state.as_deref_mut() {
                    state.stats.subtrees_rewalked += 1;
                }
                let (ca, dir) = Self::names(&item);
                run.cas.push(Self::validated_ca(&item, &ca));
                run.reject_point(&item, &ca, &dir, Issue::DepthExceeded);
                continue;
            }
            match state.as_deref_mut() {
                Some(state) => self.visit(source, item, state, &mut run, &mut queue),
                None => {
                    let outcome = source.load_dir(&item.cert.data().sia);
                    self.process(item, outcome, &mut run, &mut queue, None);
                }
            }
        }

        self.finish(&mut run);
        if let Some(state) = state {
            state.close(&run);
        }
        run
    }

    /// The configuration this validator runs under.
    pub(crate) fn config(&self) -> ValidationConfig {
        self.config
    }

    /// Final canonicalisation shared by every entry point: the
    /// order-insensitive vectors are sorted and deduplicated, then the
    /// unsafe-VRP policy is applied as a pure post-pass over the
    /// rejected-CA record (so both tiers, cold and incremental, reach
    /// the identical verdict from identical walk outputs).
    fn finish(&self, run: &mut ValidationRun) {
        run.vrps.sort_unstable();
        run.vrps.dedup();
        run.vrp_records.sort_unstable_by_key(|r| (r.vrp, r.serial));
        run.vrp_records.dedup();
        run.revocations.sort_unstable();
        run.revocations.dedup();
        run.freshness.sort_unstable();

        if self.config.unsafe_vrps == UnsafeVrpPolicy::Accept {
            return;
        }
        let mut rejected = ResourceSet::empty();
        for r in &run.rejected_cas {
            rejected = rejected.union(&r.resources);
        }
        if rejected.is_empty() {
            return;
        }
        run.unsafe_vrps =
            run.vrps.iter().copied().filter(|v| rejected.overlaps_prefix(v.prefix)).collect();
        if self.config.unsafe_vrps == UnsafeVrpPolicy::Reject {
            run.vrps.retain(|v| !rejected.overlaps_prefix(v.prefix));
            run.vrp_records.retain(|r| !rejected.overlaps_prefix(r.vrp.prefix));
        }
    }

    /// Fetches every trust anchor and returns the walk's first queue:
    /// the accepted ones in TAL order. The rest are diagnosed.
    fn seed(
        &self,
        source: &mut dyn ObjectSource,
        tals: &[TrustAnchorLocator],
        run: &mut ValidationRun,
    ) -> Vec<WorkItem> {
        let mut queue = Vec::new();
        for tal in tals {
            match self.fetch_ta(source, tal) {
                Some(cert) => {
                    let effective = Arc::new(cert.data().resources.clone());
                    queue.push(WorkItem {
                        cert: Arc::new(cert),
                        effective,
                        depth: 0,
                        ancestors: Ancestors::default(),
                        digest: None,
                    })
                }
                None => run.diagnostics.push(Diagnostic {
                    ca: Arc::from("(trust anchor)"),
                    dir: shared(&tal.uri),
                    issue: Issue::TalRejected,
                }),
            }
        }
        queue
    }

    fn fetch_ta(
        &self,
        source: &mut dyn ObjectSource,
        tal: &TrustAnchorLocator,
    ) -> Option<ResourceCert> {
        let file = tal.uri.file_name()?.to_owned();
        let parent_components: Vec<&str> =
            tal.uri.path().iter().take(tal.uri.path().len() - 1).map(String::as_str).collect();
        let dir = RepoUri::new(tal.uri.host(), &parent_components);
        let outcome = source.load_dir(&dir);
        let bytes = outcome.files.get(&file)?;
        let obj = RpkiObject::from_bytes(bytes).ok()?;
        let RpkiObject::Cert(cert) = obj else { return None };
        if !tal.accepts_encoded(&cert, RpkiObject::untagged(bytes)) {
            return None;
        }
        if !cert.data().validity.contains(self.config.now) {
            return None;
        }
        Some(cert)
    }

    /// `item`'s CA handle and directory, built once for every record
    /// the point leaves in a run.
    fn names(item: &WorkItem) -> (Arc<str>, Arc<str>) {
        (Arc::from(item.cert.data().subject.as_str()), shared(&item.cert.data().sia))
    }

    /// Describes `item`'s CA, named `handle`, as the [`ValidatedCa`]
    /// entry that processing it pushes first.
    fn validated_ca(item: &WorkItem, handle: &Arc<str>) -> ValidatedCa {
        ValidatedCa {
            handle: handle.clone(),
            key: item.cert.data().subject_key.id(),
            depth: item.depth,
            resources: item.effective.to_prefixes().iter().map(|p| p.to_string()).collect(),
        }
    }

    /// The manifest or CRL `name` in `outcome`: decoded, its refresh instant
    /// registered with `obs`, then checked for size, signature under `key`
    /// and staleness. A failure is one of `issues`, or names `name`.
    fn current_list<T: PointList>(
        &self,
        outcome: &SyncOutcome,
        name: &str,
        key: &PublicKey,
        [missing, bad_signature, stale]: [Issue; 3],
        obs: Option<&mut ProcessObservations>,
    ) -> Result<Signed<T>, Issue> {
        let bytes = outcome.files.get(name).ok_or(missing)?;
        let decoded = RpkiObject::from_bytes(bytes).ok().and_then(T::of);
        let list = decoded.ok_or_else(|| Issue::DecodeFailed(name.to_owned()))?;
        if let Some(o) = obs {
            o.next_update(list.data().window());
        }
        let issue = if list.data().oversized() {
            Issue::MalformedObject(name.to_owned())
        } else if list.verify_encoded(RpkiObject::untagged(bytes), key).is_err() {
            bad_signature
        } else if list.is_stale_at(self.config.now) {
            stale
        } else {
            return Ok(list);
        };
        Err(issue)
    }

    /// The checks a child CA certificate and a ROA's EE certificate share, in
    /// order (signature, expiry, not yet valid, revocation); a failure names `name`.
    fn ee_check(&self, name: &str, signed: bool, v: Validity, revoked: bool) -> Result<(), Issue> {
        let issue: fn(String) -> Issue = if !signed {
            Issue::BadSignature
        } else if v.expired_at(self.config.now) {
            Issue::Expired
        } else if v.not_yet_valid_at(self.config.now) {
            Issue::NotYetValid
        } else if revoked {
            Issue::Revoked
        } else {
            return Ok(());
        };
        Err(issue(name.to_owned()))
    }

    /// Processes one publication point against an already fetched sync
    /// outcome, pure CPU: the point's [`ValidatedCa`] entry, freshness,
    /// manifest, CRL, objects, and its children onto `queue`. `obs`,
    /// when present, collects what the result depends on beyond the
    /// bytes.
    pub(crate) fn process(
        &self,
        item: WorkItem,
        outcome: SyncOutcome,
        run: &mut ValidationRun,
        queue: &mut Vec<WorkItem>,
        mut obs: Option<&mut ProcessObservations>,
    ) {
        let (handle, dir) = Self::names(&item);
        run.cas.push(Self::validated_ca(&item, &handle));
        let key = item.cert.data().subject_key;
        let resources = &*item.effective;
        // The chain every queued child shares, made for the first one.
        let mut below = None;

        let diag = |run: &mut ValidationRun, issue: Issue| {
            run.diagnostics.push(Diagnostic { ca: handle.clone(), dir: dir.clone(), issue });
        };

        run.freshness.push((dir.clone(), outcome.freshness));
        if !outcome.listed {
            run.reject_point(&item, &handle, &dir, Issue::UnreachableRepo);
            return;
        }
        for name in &outcome.missing {
            diag(run, Issue::MissingFile(name.clone()));
        }
        for name in &outcome.corrupted {
            diag(run, Issue::CorruptedFile(name.clone()));
        }

        // --- Manifest ---
        let mft_name = format!("{}.mft", key.id().short());
        let issues = [Issue::MissingManifest, Issue::BadManifestSignature, Issue::StaleManifest];
        let manifest: Option<Manifest> = self
            .current_list(&outcome, &mft_name, &key, issues, obs.as_deref_mut())
            .map_err(|issue| diag(run, issue))
            .ok();

        // Determine completeness and the processing set.
        let mut complete = manifest.is_some();
        let names: Vec<String> = match &manifest {
            Some(m) => {
                let mut names = Vec::new();
                for name in m.file_names() {
                    match outcome.files.get(name) {
                        None => {
                            diag(run, Issue::MissingFile(name.to_owned()));
                            complete = false;
                        }
                        Some(bytes) => {
                            if m.hash_of(name) != Some(sha256(bytes)) {
                                diag(run, Issue::HashMismatch(name.to_owned()));
                                complete = false;
                            } else {
                                names.push(name.to_owned());
                            }
                        }
                    }
                }
                // Note unlisted extras (monitor fodder), except the
                // manifest itself.
                for name in outcome.files.keys() {
                    if name != &mft_name && m.hash_of(name).is_none() {
                        diag(run, Issue::UnlistedFile(name.clone()));
                    }
                }
                names
            }
            None => {
                complete = false;
                outcome.files.keys().filter(|n| *n != &mft_name).cloned().collect()
            }
        };

        if !complete && self.config.incomplete == IncompletePolicy::RejectPublicationPoint {
            run.reject_point(&item, &handle, &dir, Issue::RejectedPublicationPoint);
            return;
        }

        // --- CRL ---
        let crl_name = format!("{}.crl", key.id().short());
        let issues = [Issue::MissingCrl, Issue::BadCrlSignature, Issue::StaleCrl];
        let crl: Option<Crl> = self
            .current_list(&outcome, &crl_name, &key, issues, obs.as_deref_mut())
            .map_err(|issue| diag(run, issue))
            .ok();
        if let Some(c) = &crl {
            for &serial in &c.data().revoked {
                run.revocations.push((key.id(), serial));
            }
        }
        let revoked = |serial: u64| crl.as_ref().map(|c| c.is_revoked(serial)).unwrap_or(false);

        // --- Objects ---
        for name in names {
            if name == mft_name || name == crl_name {
                continue;
            }
            let bytes = &outcome.files[&name];
            let obj = match RpkiObject::from_bytes(bytes) {
                Ok(o) => o,
                Err(_) => {
                    diag(run, Issue::DecodeFailed(name.clone()));
                    continue;
                }
            };
            match obj {
                RpkiObject::Cert(child) => {
                    if let Some(o) = obs.as_deref_mut() {
                        o.validity(child.data().validity);
                        o.child_key(child.subject_key_id());
                    }
                    // Every early `continue` below drops the child's
                    // whole subtree; record its claimed resources for
                    // unsafe-VRP analysis.
                    let reject_child = |run: &mut ValidationRun, child: &ResourceCert| {
                        run.rejected_cas.push(RejectedCa {
                            ca: Arc::from(child.data().subject.as_str()),
                            dir: dir.clone(),
                            resources: child.data().resources.clone(),
                        });
                    };
                    let signed = child.verify_encoded(RpkiObject::untagged(bytes), &key).is_ok();
                    let (v, serial) = (child.data().validity, child.data().serial);
                    if let Err(issue) = self.ee_check(&name, signed, v, revoked(serial)) {
                        diag(run, issue);
                        reject_child(run, &child);
                        continue;
                    }
                    let child_effective = match self.config.overclaim {
                        OverclaimPolicy::Strict => {
                            if !resources.contains_set(&child.data().resources) {
                                diag(run, Issue::OverClaim(name.clone()));
                                reject_child(run, &child);
                                continue;
                            }
                            child.data().resources.clone()
                        }
                        OverclaimPolicy::Trim => {
                            let trimmed = child.data().resources.intersection(resources);
                            if trimmed != child.data().resources {
                                diag(run, Issue::TrimmedOverClaim(name.clone()));
                            }
                            trimmed
                        }
                    };
                    let child_key = child.subject_key_id();
                    if item.ancestors.contains(child_key) || child_key == key.id() {
                        if let Some(o) = obs.as_deref_mut() {
                            o.saw_loop();
                        }
                        diag(run, Issue::CertificateLoop(name.clone()));
                        reject_child(run, &child);
                        continue;
                    }
                    let ancestors = below.get_or_insert_with(|| item.ancestors.below(key.id()));
                    queue.push(WorkItem {
                        cert: Arc::new(child),
                        effective: Arc::new(child_effective),
                        depth: item.depth + 1,
                        ancestors: ancestors.clone(),
                        digest: None,
                    });
                }
                RpkiObject::Roa(roa) => {
                    if let Some(o) = obs.as_deref_mut() {
                        o.validity(roa.validity());
                    }
                    let signed = roa.verify_encoded(RpkiObject::untagged(bytes), &key).is_ok();
                    let v = roa.validity();
                    if let Err(issue) = self.ee_check(&name, signed, v, revoked(roa.serial())) {
                        diag(run, issue);
                        continue;
                    }
                    if !roa.data().prefixes.iter().all(|rp| resources.contains_prefix(rp.prefix)) {
                        diag(run, Issue::OverClaim(name.clone()));
                        continue;
                    }
                    run.accepted_roas.push((handle.clone(), shared(&roa)));
                    for rp in &roa.data().prefixes {
                        let vrp = Vrp::new(rp.prefix, rp.effective_max_len(), roa.asn());
                        run.vrps.push(vrp);
                        run.vrp_records.push(VrpRecord {
                            vrp,
                            not_after: v.not_after,
                            issuer: key.id(),
                            serial: roa.serial(),
                        });
                    }
                }
                RpkiObject::Crl(_) | RpkiObject::Manifest(_) => {
                    // Already handled positionally; extra copies under
                    // odd names are ignored.
                }
            }
        }
    }
}

/// `value`'s display form as an `Arc<str>`, in one allocation: it is
/// written into a reused per-thread buffer, then copied once.
fn shared(value: impl fmt::Display) -> Arc<str> {
    thread_local!(static BUF: RefCell<String> = const { RefCell::new(String::new()) });
    BUF.with_borrow_mut(|buf| {
        buf.clear();
        write!(buf, "{value}").expect("a display impl returned an error");
        Arc::from(buf.as_str())
    })
}

/// A point's manifest or CRL, as [`Validator::current_list`] reads it.
trait PointList: ToBeSigned + UpdateWindow {
    /// `obj`, if it is a list of this kind.
    fn of(obj: RpkiObject) -> Option<Signed<Self>>;

    /// Whether the list is refused before its signature is checked.
    fn oversized(&self) -> bool {
        false
    }
}

impl PointList for ManifestData {
    fn of(obj: RpkiObject) -> Option<Manifest> {
        let RpkiObject::Manifest(manifest) = obj else { return None };
        Some(manifest)
    }

    /// A listing above [`MAX_MANIFEST_ENTRIES`] is adversarial: treat it as absent.
    fn oversized(&self) -> bool {
        self.entries.len() > MAX_MANIFEST_ENTRIES
    }
}

impl PointList for CrlData {
    fn of(obj: RpkiObject) -> Option<Crl> {
        let RpkiObject::Crl(crl) = obj else { return None };
        Some(crl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipres::Prefix;

    /// The walk records print and serialise as they did when their
    /// strings were owned: `{:?}` and JSON of records built from
    /// literals, written out in full.
    #[test]
    fn records_print_as_owned_strings_did() {
        let p = |s: &str| s.parse::<Prefix>().unwrap();
        let diagnostic = Diagnostic {
            ca: "Sprint".into(),
            dir: "rsync://rpki.sprint.example/repo".into(),
            issue: Issue::MissingFile("a.roa".to_owned()),
        };
        let rejected = RejectedCa {
            ca: "Continental".into(),
            dir: "rsync://rpki.sprint.example/repo".into(),
            resources: ResourceSet::from_prefixes([p("63.160.0.0/12")]),
        };
        let ca = ValidatedCa {
            handle: "Sprint".into(),
            key: KeyId(sha256(b"sprint")),
            depth: 1,
            resources: vec!["63.160.0.0/12".to_owned(), "208.0.0.0/11".to_owned()].into(),
        };
        let dir = r#"dir: "rsync://rpki.sprint.example/repo""#;
        assert_eq!(
            format!("{diagnostic:?}"),
            format!(r#"Diagnostic {{ ca: "Sprint", {dir}, issue: MissingFile("a.roa") }}"#)
        );
        assert_eq!(
            format!("{rejected:?}"),
            format!(
                r#"RejectedCa {{ ca: "Continental", {dir}, resources: ResourceSet{{[63.160.0.0-63.175.255.255]}} }}"#
            )
        );
        assert_eq!(
            format!("{ca:?}"),
            r#"ValidatedCa { handle: "Sprint", key: KeyId(fb9afa84), depth: 1, resources: ["63.160.0.0/12", "208.0.0.0/11"] }"#
        );
        // `RejectedCa` has no JSON form.
        assert_eq!(
            serde_json::to_string(&diagnostic).unwrap(),
            r#"{"ca":"Sprint","dir":"rsync://rpki.sprint.example/repo","issue":{"MissingFile":"a.roa"}}"#
        );
        assert_eq!(
            serde_json::to_string(&ca).unwrap(),
            r#"{"handle":"Sprint","depth":1,"resources":["63.160.0.0/12","208.0.0.0/11"]}"#
        );
    }
}
