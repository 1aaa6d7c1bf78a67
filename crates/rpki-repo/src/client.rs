//! The fetch session and the rsync-like sync built on it.
//!
//! `Session` is the one driver every fetch in this crate pumps the
//! `netsim` event loop through — rsync and RRDP alike: it sends the
//! requests, answers what lands on repository nodes, and decides when
//! the fetch is over (every exchange resolved, or the deadline fired).
//!
//! [`sync_dir`] performs one rsync-like session on it: list a
//! directory, fetch every file, and report exactly what arrived —
//! intact bytes, corrupted bytes, or nothing. Every fetched file is
//! verified against the listing's digest, so corrupted-but-parseable
//! frames are classified, not silently accepted. [`probe_dir`] is the
//! one-exchange session that asks only for the directory's digest.
//!
//! The outcome is deliberately *not* an `Err` when files are missing:
//! per the paper, partial data is the dangerous case (Side Effect 6),
//! and the relying party must decide what a gap means. Only total
//! unreachability is reported as such.
//!
//! [`sync_dir_with_policy`] wraps the single session in a retry driver:
//! bounded attempts, deterministic exponential backoff and per-attempt
//! deadlines, all paced on the simulated clock via [`Network::set_timer`]
//! (sans-IO: no wall time anywhere). Later attempts re-fetch only what
//! earlier ones failed to land, reusing verified bytes by digest.

use std::collections::{BTreeMap, HashMap};

use netsim::{Network, NodeId, Occurrence};
use rpki_ca::CertAuthority;
use rpki_objects::{Decode, Encode, Moment, RepoUri, RpkiObject, TrustAnchorLocator};
use rpkisim_crypto::{sha256, Digest};
use serde::Serialize;

use crate::proto::{RsyncRequest, RsyncResponse};
#[cfg(test)]
use crate::store::DirLoad;
use crate::store::Repository;

/// Timer token used for per-attempt deadlines.
const DEADLINE_TOKEN: u64 = 0x5359_4e43_dead_0001;
/// Timer token used for inter-attempt backoff.
const BACKOFF_TOKEN: u64 = 0x5359_4e43_dead_0002;

/// All repositories in the simulated world, keyed by serving node.
#[derive(Debug, Default)]
pub struct RepoRegistry {
    by_node: HashMap<NodeId, Repository>,
    /// The node serving each host, the first one created for it.
    by_host: HashMap<String, NodeId>,
}

impl RepoRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        RepoRegistry::default()
    }

    /// Creates a repository host: registers a network node under
    /// `host` and a [`Repository`] served by it.
    pub fn create(&mut self, net: &mut Network, host: &str) -> NodeId {
        let node = net.add_node(host);
        self.by_node.insert(node, Repository::new(host, node));
        self.by_host.entry(host.to_owned()).or_insert(node);
        node
    }

    /// The repository served by `node`.
    pub fn get(&self, node: NodeId) -> Option<&Repository> {
        self.by_node.get(&node)
    }

    /// Mutable access to the repository served by `node`.
    pub fn get_mut(&mut self, node: NodeId) -> Option<&mut Repository> {
        self.by_node.get_mut(&node)
    }

    /// Finds the repository serving `host`.
    pub fn by_host(&self, host: &str) -> Option<&Repository> {
        self.get(self.node_of(host)?)
    }

    /// Mutable access by host name.
    pub fn by_host_mut(&mut self, host: &str) -> Option<&mut Repository> {
        self.get_mut(self.node_of(host)?)
    }

    /// The node serving `host`.
    pub fn node_of(&self, host: &str) -> Option<NodeId> {
        self.by_host.get(host).copied()
    }

    /// Iterates all repositories.
    pub fn iter(&self) -> impl Iterator<Item = &Repository> {
        self.by_node.values()
    }

    /// Publishes `ca`'s current snapshot at the publication point its
    /// SIA names ([`Repository::publish_ca`]). Returns `false`, with
    /// nothing signed or published, when no repository serves that host.
    pub fn publish(&mut self, ca: &mut CertAuthority, now: Moment) -> bool {
        let Some(repo) = self.by_host_mut(ca.sia().host()) else {
            return false;
        };
        repo.publish_ca(ca, now);
        true
    }

    /// Bootstraps trust anchor `ta`: publishes its self-signed
    /// certificate out of band as `ta/root.cer` on the host its SIA
    /// names, and returns the locator a relying party starts from.
    /// Republishing an unchanged certificate is a no-op.
    ///
    /// # Panics
    /// If `ta` is not self-certified or its host is not registered.
    pub fn publish_trust_anchor(&mut self, ta: &CertAuthority) -> TrustAnchorLocator {
        let cert = ta.cert().expect("trust anchor is self-certified").clone();
        let dir = RepoUri::new(ta.sia().host(), &["ta"]);
        self.by_host_mut(dir.host()).expect("trust anchor's host is registered").publish_raw(
            &dir,
            "root.cer",
            RpkiObject::Cert(cert).to_bytes(),
        );
        TrustAnchorLocator::new(dir.join("root.cer"), ta.public_key())
    }
}

/// Serves one frame of the rsync-like protocol from `repo`'s stored
/// data and books the reply into its served-load ledger. `None` for a
/// frame that is not a request of this protocol.
fn serve_rsync(repo: &Repository, frame: &[u8]) -> Option<Vec<u8>> {
    let req = RsyncRequest::from_bytes(frame).ok()?;
    let reply = match &req {
        RsyncRequest::List { dir } => match repo.entries(dir) {
            Some(entries) if entries.len() > 0 => RsyncResponse::listing_frame(dir, entries),
            _ => RsyncResponse::NotFound { dir: dir.clone(), name: None }.to_bytes(),
        },
        RsyncRequest::Get { dir, name } => match repo.fetch(dir, name) {
            Some(bytes) => RsyncResponse::file_frame(dir, name, bytes),
            None => {
                RsyncResponse::NotFound { dir: dir.clone(), name: Some(name.clone()) }.to_bytes()
            }
        },
        RsyncRequest::Digest { dir } if dir.host() == repo.host() => {
            RsyncResponse::DirDigest { dir: dir.clone(), digest: repo.content_digest(dir) }
                .to_bytes()
        }
        // Another host's directory: not found here, like its listing
        // and its files (which the store reads as an unknown directory).
        RsyncRequest::Digest { dir } => {
            RsyncResponse::NotFound { dir: dir.clone(), name: None }.to_bytes()
        }
    };
    let (RsyncRequest::List { dir } | RsyncRequest::Get { dir, .. } | RsyncRequest::Digest { dir }) =
        &req;
    repo.note_served(dir, reply.len());
    Some(reply)
}

/// How fresh the data backing a [`SyncOutcome`] is.
///
/// Produced by live sessions (`Fresh`/`Absent`); the resilient source
/// layer substitutes `Stale` when serving a last-good snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Freshness {
    /// Fetched from the live repository this session.
    Fresh,
    /// Served from a last-good snapshot taken `age` seconds ago.
    Stale {
        /// Snapshot age in simulated seconds.
        age: u64,
    },
    /// No data available at all (unreachable and no usable snapshot).
    Absent,
}

/// What one directory sync produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncOutcome {
    /// The directory synced.
    pub dir: RepoUri,
    /// Files that arrived and matched the listing's digest.
    pub files: BTreeMap<String, Vec<u8>>,
    /// Files the listing promised but that never arrived as a frame
    /// (dropped in flight, or response frame corrupted beyond decoding).
    pub missing: Vec<String>,
    /// Files that arrived as parseable frames whose bytes failed the
    /// listing's digest check (in-flight payload corruption).
    pub corrupted: Vec<String>,
    /// Whether the listing itself was obtained. `false` means the
    /// repository was effectively unreachable this session.
    pub listed: bool,
    /// Provenance of the data in `files`.
    pub freshness: Freshness,
    /// The canonical content digest, precomputed by a producer that
    /// could derive it from listing digests (every file in `files` is
    /// digest-verified against the listing, so no bytes need
    /// re-hashing). [`SyncOutcome::content_digest`] falls back to
    /// computing from the bytes when this is `None`.
    pub content: Option<Digest>,
}

impl SyncOutcome {
    /// An empty outcome for an unreachable repository.
    pub fn unreachable(dir: RepoUri) -> Self {
        SyncOutcome {
            dir,
            files: BTreeMap::new(),
            missing: Vec::new(),
            corrupted: Vec::new(),
            listed: false,
            freshness: Freshness::Absent,
            content: None,
        }
    }

    /// A complete outcome fetched live this session.
    pub fn fresh(dir: RepoUri, files: BTreeMap<String, Vec<u8>>) -> Self {
        SyncOutcome {
            dir,
            files,
            missing: Vec::new(),
            corrupted: Vec::new(),
            listed: true,
            freshness: Freshness::Fresh,
            content: None,
        }
    }

    /// Whether every listed file arrived digest-intact (says nothing
    /// about signatures — that is the relying party's manifest check).
    pub fn is_complete(&self) -> bool {
        self.listed && self.missing.is_empty() && self.corrupted.is_empty()
    }

    /// A digest over everything this outcome says about the directory's
    /// content: the sorted `(name, file digest)` pairs plus the sorted
    /// missing and corrupted name lists. `None` when the listing was
    /// never obtained (an unreachable directory has no content to key).
    ///
    /// Two outcomes with equal content digests validate identically, so
    /// this is the cache key of the incremental validation engine. A
    /// complete outcome's digest equals the [`DirProbe::content_digest`]
    /// of a LIST-only probe of the same directory state.
    pub fn content_digest(&self) -> Option<Digest> {
        if !self.listed {
            return None;
        }
        if let Some(digest) = self.content {
            return Some(digest);
        }
        let entries: Vec<(&str, Digest)> =
            self.files.iter().map(|(n, b)| (n.as_str(), sha256(b))).collect();
        let mut missing: Vec<&str> = self.missing.iter().map(String::as_str).collect();
        missing.sort_unstable();
        let mut corrupted: Vec<&str> = self.corrupted.iter().map(String::as_str).collect();
        corrupted.sort_unstable();
        Some(dir_content_digest(&entries, &missing, &corrupted))
    }
}

/// Canonical digest over a directory's observed content: length-prefixed
/// names with their file digests, then the missing and corrupted name
/// lists, each section separated by a tag byte. All slices must be
/// sorted by name so the encoding is order-independent. The repository
/// store caches the complete-sync form of this per directory so digest
/// probes are answered without re-hashing.
pub(crate) fn dir_content_digest(
    entries: &[(&str, Digest)],
    missing: &[&str],
    corrupted: &[&str],
) -> Digest {
    let mut buf = Vec::new();
    for (name, digest) in entries {
        buf.extend_from_slice(&(name.len() as u64).to_be_bytes());
        buf.extend_from_slice(name.as_bytes());
        buf.extend_from_slice(digest.as_bytes());
    }
    buf.push(0x01);
    for name in missing {
        buf.extend_from_slice(&(name.len() as u64).to_be_bytes());
        buf.extend_from_slice(name.as_bytes());
    }
    buf.push(0x02);
    for name in corrupted {
        buf.extend_from_slice(&(name.len() as u64).to_be_bytes());
        buf.extend_from_slice(name.as_bytes());
    }
    sha256(&buf)
}

/// One fetch session between a relying party and a repository: the one
/// place that decides when a fetch is over.
///
/// The session owns termination and the deadline. It counts the
/// request/response exchanges in flight and ends when every one is
/// resolved — its reply reached the client (parseable or not), either
/// direction's frame was dropped, or the request reached the server
/// unparseable, so that no reply will come — without draining events
/// that belong to anyone else. With a `deadline`, a timer on the client
/// tears the session down when it fires, and frames still on the wire
/// between the pair are flushed so they cannot leak into the next
/// session; a session that ends first cancels its timer.
pub(crate) struct Session<'a> {
    pub(crate) net: &'a mut Network,
    pub(crate) repos: &'a RepoRegistry,
    pub(crate) client: NodeId,
    pub(crate) server: NodeId,
    /// Seconds until teardown; `None` waits for every exchange (a
    /// Stalloris-style slow serve then holds the caller that long).
    pub(crate) deadline: Option<u64>,
    /// The deadline timer's token. It shows in traces, and two
    /// protocols' timers must not cancel each other.
    pub(crate) token: u64,
}

impl Session<'_> {
    /// Runs the session. A protocol contributes its frames — the
    /// `opening` requests here, follow-ups from its handler — plus:
    ///
    /// - `serve`, which answers one frame that reached a repository, or
    ///   returns `None` when it is not a request of this protocol (the
    ///   server stays silent). Every repository node is served, after
    ///   its serve delay, so worlds with several repositories and
    ///   clients work; frames to other nodes fall on the floor.
    /// - `on_reply`, which is handed every reply frame from the server
    ///   and returns how many follow-up requests it sent. The protocol
    ///   decodes the frame, in place or owned; a torn one resolves its
    ///   exchange with nothing.
    ///
    /// Returns whether the deadline ended the session.
    pub(crate) fn run(
        self,
        serve: fn(&Repository, &[u8]) -> Option<Vec<u8>>,
        opening: impl IntoIterator<Item = Vec<u8>>,
        mut on_reply: impl FnMut(&mut Network, &[u8]) -> u64,
    ) -> bool {
        let Session { net, repos, client, server, deadline, token } = self;
        if let Some(d) = deadline {
            net.set_timer(client, d, token);
        }
        let mut outstanding: u64 = 0;
        for request in opening {
            outstanding += 1;
            net.send(client, server, request);
        }
        let mut deadline_hit = false;
        while outstanding > 0 {
            let Some(occ) = net.step() else { break };
            match occ {
                Occurrence::Timer { node, token: fired }
                    if deadline.is_some() && node == client && fired == token =>
                {
                    deadline_hit = true;
                    net.flush_pair(client, server);
                    break;
                }
                Occurrence::Timer { .. } => {}
                Occurrence::Dropped { from, to, .. } => {
                    if (from == client && to == server) || (from == server && to == client) {
                        outstanding = outstanding.saturating_sub(1);
                    }
                }
                Occurrence::Delivered(delivery) if delivery.to == client => {
                    // Anyone else's frame is not part of this session.
                    if delivery.from == server {
                        outstanding = outstanding.saturating_sub(1);
                        outstanding += on_reply(net, &delivery.payload);
                    }
                }
                Occurrence::Delivered(delivery) => {
                    let Some(repo) = repos.get(delivery.to) else { continue };
                    if let Some(reply) = serve(repo, &delivery.payload) {
                        net.send(delivery.to, delivery.from, reply);
                    } else if delivery.from == client && delivery.to == server {
                        outstanding = outstanding.saturating_sub(1);
                    }
                }
            }
        }
        if deadline.is_some() && !deadline_hit {
            net.cancel_timer(client, token);
        }
        deadline_hit
    }
}

/// The result of a digest-only probe of one directory: the canonical
/// content digest the directory would have after a complete sync,
/// obtained without transferring the listing or any file.
///
/// A probe is the cheapest possible freshness check — one tiny frame
/// each way, like polling an RRDP notification file. Its digest
/// matches [`SyncOutcome::content_digest`] for a complete sync of the
/// same directory state, so an incremental validator can decide from
/// the probe alone whether a full fetch is needed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirProbe {
    /// The directory probed.
    pub dir: RepoUri,
    /// Whether the server answered the probe.
    pub listed: bool,
    /// The server-reported canonical complete-sync content digest.
    pub digest: Option<Digest>,
}

impl DirProbe {
    /// An empty probe of an unreachable directory.
    pub fn unreachable(dir: RepoUri) -> Self {
        DirProbe { dir, listed: false, digest: None }
    }

    /// The content digest the directory would have after a complete
    /// sync. `None` when the probe was never answered.
    pub fn content_digest(&self) -> Option<Digest> {
        self.digest
    }
}

/// Runs one digest-only probe session of `dir` from `client`: a single
/// request/response exchange, no listing or file transfers. Honours an
/// optional per-probe deadline on the simulated clock, like a sync
/// attempt.
pub fn probe_dir(
    net: &mut Network,
    repos: &RepoRegistry,
    client: NodeId,
    dir: &RepoUri,
    deadline: Option<u64>,
) -> DirProbe {
    let rec = net.recorder();
    let mut probe = DirProbe::unreachable(dir.clone());
    let Some(server) = repos.node_of(dir.host()) else {
        return probe;
    };
    Session { net, repos, client, server, deadline, token: DEADLINE_TOKEN }.run(
        serve_rsync,
        [RsyncRequest::Digest { dir: dir.clone() }.to_bytes()],
        |_, frame| {
            match RsyncResponse::from_bytes(frame) {
                Ok(RsyncResponse::DirDigest { digest, .. }) => {
                    probe.listed = true;
                    probe.digest = Some(digest);
                }
                Ok(RsyncResponse::NotFound { name: None, .. }) => probe.listed = true,
                _ => {}
            }
            0
        },
    );
    if rec.is_enabled() {
        rec.count("repo.probes", 1);
        rec.event(net.now(), "repo", "probe")
            .str("host", dir.host())
            .bool("listed", probe.listed)
            .bool("answered", probe.digest.is_some())
            .emit();
    }
    probe
}

/// Retry/timeout policy for [`sync_dir_with_policy`].
///
/// All durations are simulated seconds; the driver never consults wall
/// time (DESIGN.md sans-IO rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SyncPolicy {
    /// Maximum sessions per directory (≥ 1; 0 is treated as 1).
    pub attempts: u32,
    /// Base backoff before the second attempt; doubles per retry
    /// (`backoff * 2^(attempt - 1)`, saturating; a retry due after the
    /// end of the simulated clock is not made). Zero retries immediately.
    pub backoff: u64,
    /// Per-attempt deadline. A session still incomplete when the timer
    /// fires is torn down ([`Network::flush_pair`]); `None` waits
    /// indefinitely (a Stalloris-style slow serve then hangs the run).
    pub deadline: Option<u64>,
}

impl Default for SyncPolicy {
    fn default() -> Self {
        SyncPolicy { attempts: 3, backoff: 30, deadline: Some(300) }
    }
}

/// `base · 2^n`, saturating at `u64::MAX`: the `n`-th doubling of a
/// back-off or cool-down.
pub fn doubled(base: u64, n: u32) -> u64 {
    base.saturating_mul(2u64.saturating_pow(n))
}

/// The fate of one listed file across a whole retry sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FileFate {
    /// Arrived and matched its listing digest.
    Intact,
    /// Never arrived as a frame.
    Missing,
    /// Arrived with bytes failing the digest check.
    Corrupted,
}

/// Timings and results of one sync attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct AttemptReport {
    /// Simulated clock when the attempt started.
    pub started_at: u64,
    /// Simulated clock when the attempt finished or was aborted.
    pub finished_at: u64,
    /// Whether the listing was obtained this attempt.
    pub listed: bool,
    /// Digest-intact files held after this attempt (including reuse).
    pub intact: usize,
    /// Listed files still missing after this attempt.
    pub missing: usize,
    /// Listed files received corrupted this attempt.
    pub corrupted: usize,
    /// Whether the per-attempt deadline aborted the session.
    pub deadline_hit: bool,
}

/// Everything a retry sequence did, for diagnostics and experiments.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct SyncReport {
    /// One entry per session attempted, in order.
    pub attempts: Vec<AttemptReport>,
    /// Final per-file classification from the listing's perspective.
    pub fates: BTreeMap<String, FileFate>,
    /// Whether the sequence ended with a complete, digest-intact sync.
    pub complete: bool,
}

impl SyncReport {
    /// Whether the sequence ended with a complete, digest-intact sync
    /// (accessor twin of [`SyncOutcome::is_complete`]).
    pub fn is_complete(&self) -> bool {
        self.complete
    }
}

/// Runs exactly one list/fetch [`Session`] against `server`: a LIST,
/// then one GET per listed file. `have` supplies already-verified bytes
/// from prior attempts: files whose listing digest matches are reused
/// without a GET (rsync-style delta across retries). Returns the outcome
/// and whether the deadline killed the session.
fn run_session(
    net: &mut Network,
    repos: &RepoRegistry,
    client: NodeId,
    server: NodeId,
    dir: &RepoUri,
    deadline: Option<u64>,
    have: &BTreeMap<String, Vec<u8>>,
) -> (SyncOutcome, bool) {
    let rec = net.recorder();
    let mut outcome = SyncOutcome::unreachable(dir.clone());
    // Digests promised by the listing; the ground truth for
    // verification and for the missing/corrupted diff.
    let mut digests: BTreeMap<String, Digest> = BTreeMap::new();
    // Which file a torn reply carried is unknown; the listing diff
    // reports it missing.
    let deadline_hit = Session { net, repos, client, server, deadline, token: DEADLINE_TOKEN }.run(
        serve_rsync,
        [RsyncRequest::List { dir: dir.clone() }.to_bytes()],
        |net, frame| {
            // The one `File` decoder: name and bytes borrowed from the
            // frame, the bytes copied once, into the outcome.
            if let Some((name, bytes)) = RsyncResponse::parse_file(frame) {
                match digests.get(name) {
                    Some(digest) if sha256(bytes) == *digest => {
                        outcome.files.insert(name.to_owned(), bytes.to_vec());
                    }
                    Some(_) => {
                        if rec.is_enabled() {
                            rec.count("repo.digest_failures", 1);
                            rec.event(net.now(), "repo", "digest_fail")
                                .str("host", dir.host())
                                .str("file", name)
                                .emit();
                        }
                        outcome.corrupted.push(name.to_owned());
                    }
                    // A file the listing never promised: ignore
                    // (unsolicited).
                    None => {}
                }
                return 0;
            }
            let mut gets = 0;
            match RsyncResponse::from_bytes(frame) {
                Ok(RsyncResponse::Listing { entries, .. }) => {
                    outcome.listed = true;
                    for (name, digest) in entries {
                        if have.get(&name).is_some_and(|bytes| sha256(bytes) == digest) {
                            outcome.files.insert(name.clone(), have[&name].clone());
                        } else {
                            gets += 1;
                            net.send(client, server, RsyncRequest::get_frame(dir, &name));
                        }
                        digests.insert(name, digest);
                    }
                }
                // Directory absent: an empty (but reachable)
                // publication point.
                Ok(RsyncResponse::NotFound { name: None, .. }) => outcome.listed = true,
                // A torn frame; a GET that found nothing, which leaves
                // its file missing; a stray digest probe answer (probes
                // run in their own sessions); or a `File` reply, read
                // in place above.
                _ => {}
            }
            gets
        },
    );

    outcome.missing = digests
        .keys()
        .filter(|n| !outcome.files.contains_key(*n) && !outcome.corrupted.contains(n))
        .cloned()
        .collect();
    outcome.freshness = if outcome.listed { Freshness::Fresh } else { Freshness::Absent };
    if outcome.listed {
        // Every file in the outcome is digest-verified against the
        // listing, so the canonical content digest derives from the
        // listing's digests — no bytes are re-hashed.
        let entries: Vec<(&str, Digest)> =
            outcome.files.keys().filter_map(|n| digests.get(n).map(|d| (n.as_str(), *d))).collect();
        let missing: Vec<&str> = outcome.missing.iter().map(String::as_str).collect();
        let mut corrupted: Vec<&str> = outcome.corrupted.iter().map(String::as_str).collect();
        corrupted.sort_unstable();
        outcome.content = Some(dir_content_digest(&entries, &missing, &corrupted));
    }
    (outcome, deadline_hit)
}

/// Runs one sync session of `dir` from the relying party's node
/// `client` against the world's repositories. Fetched bytes are
/// verified against the listing's digests; mismatches land in
/// [`SyncOutcome::corrupted`].
pub fn sync_dir(
    net: &mut Network,
    repos: &RepoRegistry,
    client: NodeId,
    dir: &RepoUri,
) -> SyncOutcome {
    let Some(server) = repos.node_of(dir.host()) else {
        // Host not in this world at all: like DNS failure.
        return SyncOutcome::unreachable(dir.clone());
    };
    run_session(net, repos, client, server, dir, None, &BTreeMap::new()).0
}

/// Runs up to `policy.attempts` sessions of `dir`, with deterministic
/// exponential backoff between attempts and a per-attempt deadline,
/// all on the simulated clock. Later attempts reuse digest-verified
/// bytes from earlier ones, so a retry only refetches what failed.
///
/// Returns the best outcome seen (a listed outcome is never displaced
/// by an unreachable one) plus a [`SyncReport`] of the whole sequence.
pub fn sync_dir_with_policy(
    net: &mut Network,
    repos: &RepoRegistry,
    client: NodeId,
    dir: &RepoUri,
    policy: &SyncPolicy,
) -> (SyncOutcome, SyncReport) {
    let rec = net.recorder();
    let mut report = SyncReport::default();
    let Some(server) = repos.node_of(dir.host()) else {
        return (SyncOutcome::unreachable(dir.clone()), report);
    };
    let attempts = policy.attempts.max(1);
    let mut have: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    let mut best: Option<SyncOutcome> = None;
    for attempt in 1..=attempts {
        let started_at = net.now();
        let (outcome, deadline_hit) =
            run_session(net, repos, client, server, dir, policy.deadline, &have);
        if rec.is_enabled() {
            rec.count("repo.attempts", 1);
            rec.observe("repo.attempt_secs", net.now() - started_at);
            rec.event(net.now(), "repo", "attempt")
                .str("host", dir.host())
                .u64("attempt", u64::from(attempt))
                .bool("listed", outcome.listed)
                .u64("intact", outcome.files.len() as u64)
                .u64("missing", outcome.missing.len() as u64)
                .u64("corrupted", outcome.corrupted.len() as u64)
                .bool("deadline_hit", deadline_hit)
                .emit();
        }
        report.attempts.push(AttemptReport {
            started_at,
            finished_at: net.now(),
            listed: outcome.listed,
            intact: outcome.files.len(),
            missing: outcome.missing.len(),
            corrupted: outcome.corrupted.len(),
            deadline_hit,
        });
        have.extend(outcome.files.clone());
        let done = outcome.is_complete();
        // A listed outcome always beats an unreachable one; among
        // listed outcomes the latest wins (it reuses all prior files).
        if best.as_ref().is_none_or(|b| !b.listed || outcome.listed) {
            best = Some(outcome);
        }
        if done {
            break;
        }
        if attempt < attempts && policy.backoff > 0 {
            let delay = doubled(policy.backoff, attempt - 1);
            if net.now().checked_add(delay).is_none() {
                break; // due after the end of the simulated clock: never
            }
            if rec.is_enabled() {
                rec.count("repo.backoffs", 1);
                rec.event(net.now(), "repo", "backoff")
                    .str("host", dir.host())
                    .u64("attempt", u64::from(attempt))
                    .u64("delay", delay)
                    .emit();
            }
            net.set_timer(client, delay, BACKOFF_TOKEN);
            while let Some(occ) = net.step() {
                if matches!(occ, Occurrence::Timer { node, token }
                    if node == client && token == BACKOFF_TOKEN)
                {
                    break;
                }
            }
        }
    }
    let outcome = best.expect("at least one attempt runs");
    for name in outcome.files.keys() {
        report.fates.insert(name.clone(), FileFate::Intact);
    }
    for name in &outcome.missing {
        report.fates.insert(name.clone(), FileFate::Missing);
    }
    for name in &outcome.corrupted {
        report.fates.insert(name.clone(), FileFate::Corrupted);
    }
    report.complete = outcome.is_complete();
    (outcome, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rrdp::{rrdp_sync_dir, RrdpClientState, RrdpError, RrdpResponse};
    use netsim::Network;

    fn world() -> (Network, RepoRegistry, NodeId, NodeId, RepoUri) {
        let mut net = Network::new(1);
        let client = net.add_node("relying-party");
        let mut repos = RepoRegistry::new();
        let server = repos.create(&mut net, "rpki.sprint.example");
        let dir = RepoUri::new("rpki.sprint.example", &["repo"]);
        let repo = repos.get_mut(server).unwrap();
        repo.publish_raw(&dir, "a.roa", vec![1, 2, 3]);
        repo.publish_raw(&dir, "b.cer", vec![4, 5]);
        (net, repos, client, server, dir)
    }

    #[test]
    fn publish_puts_a_ca_where_its_sia_points_and_bootstraps_the_anchor() {
        use ipres::ResourceSet;
        use rpki_objects::Span;

        let (_, mut repos, _, server, dir) = world();
        let mut ta = CertAuthority::new("TA", "publish-ta", dir.clone());
        ta.certify_self(ResourceSet::from_prefix_strs("10.0.0.0/8"), Moment(0), Span::days(30));
        let elsewhere = RepoUri::new("rpki.nobody.example", &["repo"]);
        let mut stray = CertAuthority::new("Stray", "publish-stray", elsewhere);

        assert!(!repos.publish(&mut stray, Moment(1)), "no repository serves that host");
        assert!(repos.publish(&mut ta, Moment(1)));
        // rsync `--delete` semantics: the snapshot replaced `world()`'s
        // files with the CA's manifest and CRL.
        let repo = repos.get(server).unwrap();
        assert!(repo.fetch(&dir, "a.roa").is_none());
        assert_eq!(repo.list(&dir).len(), 2);

        let tal = repos.publish_trust_anchor(&ta);
        assert_eq!(tal.uri, RepoUri::new("rpki.sprint.example", &["ta", "root.cer"]));
        assert!(tal.accepts(ta.cert().unwrap()));
        let ta_dir = RepoUri::new("rpki.sprint.example", &["ta"]);
        let serial = repos.get(server).unwrap().rrdp_position(&ta_dir);
        repos.publish_trust_anchor(&ta);
        assert_eq!(repos.get(server).unwrap().rrdp_position(&ta_dir), serial);
    }

    #[test]
    fn pubd_events_are_stamped_at_the_publication_moment() {
        use crate::pubd::PubdPolicy;
        use ipres::ResourceSet;
        use rpki_objects::Span;
        use rpki_obs::Recorder;

        let (_, mut repos, _, server, dir) = world();
        let rec = Recorder::new();
        let repo = repos.get_mut(server).unwrap();
        repo.set_pubd_policy(PubdPolicy::compacted(2));
        repo.set_recorder(rec.clone());
        let mut ta = CertAuthority::new("TA", "pubd-clock-ta", dir);
        ta.certify_self(ResourceSet::from_prefix_strs("10.0.0.0/8"), Moment(0), Span::days(30));

        // Each publication is one write; every second one materialises.
        for t in [4_321, 4_322, 4_323] {
            assert!(repos.publish(&mut ta, Moment(t)));
        }
        let materialised: Vec<u64> = rec
            .events()
            .iter()
            .filter(|e| (e.layer, e.kind) == ("pubd", "materialise"))
            .map(|e| e.at)
            .collect();
        assert_eq!(materialised, vec![4_322]);
    }

    #[test]
    fn clean_sync_fetches_everything() {
        let (mut net, repos, client, _, dir) = world();
        let out = sync_dir(&mut net, &repos, client, &dir);
        assert!(out.listed);
        assert!(out.is_complete());
        assert_eq!(out.files.len(), 2);
        assert_eq!(out.files["a.roa"], vec![1, 2, 3]);
        assert_eq!(out.files["b.cer"], vec![4, 5]);
    }

    #[test]
    fn served_load_counts_frames_and_bytes_per_dir() {
        let (mut net, repos, client, server, dir) = world();
        let out = sync_dir(&mut net, &repos, client, &dir);
        assert!(out.is_complete());
        // One listing + two file responses.
        let repo = repos.get(server).unwrap();
        let per_dir = repo.served_load();
        assert_eq!(per_dir.len(), 1);
        assert_eq!(per_dir[0].0, dir);
        assert_eq!(per_dir[0].1.frames, 3);
        assert!(per_dir[0].1.bytes > 5, "bytes: {}", per_dir[0].1.bytes);
        assert_eq!(repo.served_total(), per_dir[0].1);
        // Accounting is per sync: a second RP doubles it.
        let rp2 = net.add_node("relying-party-2");
        sync_dir(&mut net, &repos, rp2, &dir);
        assert_eq!(repos.get(server).unwrap().served_total().frames, 6);
        repos.get(server).unwrap().reset_served_load();
        assert_eq!(repos.get(server).unwrap().served_total(), DirLoad::default());
    }

    #[test]
    fn partition_makes_repo_unreachable() {
        let (mut net, repos, client, server, dir) = world();
        net.faults.partition(client, server);
        let out = sync_dir(&mut net, &repos, client, &dir);
        assert!(!out.listed);
        assert!(out.files.is_empty());
    }

    #[test]
    fn dropped_file_response_reported_missing() {
        let (mut net, repos, client, server, dir) = world();
        // Server→client frames: #1 listing, #2 first file (a.roa in
        // BTreeMap order), #3 second file.
        net.faults.drop_nth(server, client, 2);
        let out = sync_dir(&mut net, &repos, client, &dir);
        assert!(out.listed);
        assert!(!out.is_complete());
        assert_eq!(out.missing, vec!["a.roa".to_owned()]);
        assert_eq!(out.files.len(), 1);
        assert!(out.files.contains_key("b.cer"));
    }

    #[test]
    fn dropped_get_request_reported_missing() {
        let (mut net, repos, client, server, dir) = world();
        // Client→server frames: #1 LIST, #2 GET a.roa, #3 GET b.cer.
        net.faults.drop_nth(client, server, 3);
        let out = sync_dir(&mut net, &repos, client, &dir);
        assert!(out.listed);
        assert_eq!(out.missing, vec!["b.cer".to_owned()]);
        assert!(out.files.contains_key("a.roa"));
    }

    #[test]
    fn corrupted_file_bytes_are_delivered_as_is() {
        let (mut net, repos, client, server, dir) = world();
        // Corrupt the first *file* frame (frame 2; the listing is
        // frame 1) deep in the payload: the File frame ends with the
        // length-prefixed content, so a clamped large offset flips a
        // content byte and the frame still parses. The digest check
        // must classify it instead of accepting the bad bytes.
        net.faults.corrupt_nth_at(server, client, 2, usize::MAX);
        let out = sync_dir(&mut net, &repos, client, &dir);
        assert!(out.listed);
        assert_eq!(out.corrupted, vec!["a.roa".to_owned()], "digest mismatch must be classified");
        assert!(!out.files.contains_key("a.roa"), "corrupted bytes must not enter files");
        assert!(out.missing.is_empty(), "corrupted is distinct from missing");
        assert!(!out.is_complete());
        assert!(out.files.contains_key("b.cer"));
    }

    #[test]
    fn torn_file_frame_is_missing_not_corrupted() {
        let (mut net, repos, client, server, dir) = world();
        // Byte 0 is the frame tag: the frame fails to decode entirely.
        net.faults.corrupt_nth(server, client, 2);
        let out = sync_dir(&mut net, &repos, client, &dir);
        assert!(out.listed);
        assert_eq!(out.missing, vec!["a.roa".to_owned()]);
        assert!(out.corrupted.is_empty());
    }

    #[test]
    fn missing_host_is_unreachable() {
        let (mut net, repos, client, _, _) = world();
        let dir = RepoUri::new("rpki.nowhere.example", &["repo"]);
        let out = sync_dir(&mut net, &repos, client, &dir);
        assert!(!out.listed);
    }

    #[test]
    fn misdirected_requests_are_not_found_and_cannot_abort_a_session() {
        // A bystander asks this host for another host's directory, once
        // per request kind, while a relying party's session is being
        // served: each is a well-formed frame, so each gets an answer —
        // NotFound, booked nowhere — and the session runs to completion.
        let (mut net, repos, client, server, dir) = world();
        let bystander = net.add_node("bystander");
        let foreign = RepoUri::new("rpki.arin.example", &["repo"]);
        let misdirected = [
            RsyncRequest::List { dir: foreign.clone() },
            RsyncRequest::Get { dir: foreign.clone(), name: "a.roa".to_owned() },
            RsyncRequest::Digest { dir: foreign.clone() },
        ];
        for req in &misdirected {
            net.send(bystander, server, req.to_bytes());
        }
        assert!(sync_dir(&mut net, &repos, client, &dir).is_complete());
        let repo = repos.get(server).unwrap();
        for req in &misdirected {
            let reply = serve_rsync(repo, &req.to_bytes()).expect("a request of this protocol");
            let reply = RsyncResponse::from_bytes(&reply).unwrap();
            assert!(matches!(reply, RsyncResponse::NotFound { .. }), "{req:?}: {reply:?}");
        }
        // Only the session's own listing and two files were booked.
        assert_eq!(repo.served_load().len(), 1);
        assert_eq!(repo.served_total().frames, 3);
    }

    #[test]
    fn empty_directory_is_reachable_but_empty() {
        let (mut net, repos, client, _, _) = world();
        let dir = RepoUri::new("rpki.sprint.example", &["empty-dir"]);
        let out = sync_dir(&mut net, &repos, client, &dir);
        assert!(out.listed);
        assert!(out.files.is_empty());
        assert!(out.is_complete());
    }

    #[test]
    fn registry_lookup_by_host() {
        let (_, repos, _, server, _) = world();
        assert_eq!(repos.node_of("rpki.sprint.example"), Some(server));
        assert_eq!(repos.node_of("rpki.other.example"), None);
        assert_eq!(repos.by_host("rpki.sprint.example").unwrap().node(), server);
    }

    #[test]
    fn get_mut_returns_none_for_unknown_node() {
        let (mut net, mut repos, _, server, _) = world();
        let stranger = net.add_node("not-a-repo");
        assert!(repos.get_mut(server).is_some());
        assert!(repos.get_mut(stranger).is_none());
    }

    #[test]
    fn retry_refetches_only_what_failed() {
        let (mut net, repos, client, server, dir) = world();
        // Attempt 1 loses the a.roa response; attempt 2 must reuse the
        // verified b.cer and send a single GET for a.roa.
        net.faults.drop_nth(server, client, 2);
        let policy = SyncPolicy { attempts: 2, backoff: 30, deadline: Some(300) };
        let (out, report) = sync_dir_with_policy(&mut net, &repos, client, &dir, &policy);
        assert!(out.is_complete());
        assert_eq!(out.files["a.roa"], vec![1, 2, 3]);
        assert_eq!(report.attempts.len(), 2);
        assert!(!report.attempts[0].listed || report.attempts[0].missing == 1);
        assert_eq!(report.attempts[1].intact, 2);
        assert!(report.complete);
        assert_eq!(report.fates["a.roa"], FileFate::Intact);
        // Attempt 2 sent LIST + one GET (b.cer reused): 2 client frames.
        let gets_attempt2 = report.attempts[1].intact - 1; // reused files need no GET
        assert_eq!(gets_attempt2, 1);
    }

    #[test]
    fn successful_first_attempt_skips_backoff() {
        let (mut net, repos, client, _, dir) = world();
        let policy = SyncPolicy::default();
        let (out, report) = sync_dir_with_policy(&mut net, &repos, client, &dir, &policy);
        assert!(out.is_complete());
        assert_eq!(report.attempts.len(), 1);
        assert!(!report.attempts[0].deadline_hit);
        // No deadline or backoff timers left behind.
        assert!(net.is_idle());
    }

    #[test]
    fn backoff_doubles_deterministically() {
        let (mut net, repos, client, server, dir) = world();
        net.faults.partition(client, server);
        let policy = SyncPolicy { attempts: 3, backoff: 30, deadline: Some(300) };
        let (out, report) = sync_dir_with_policy(&mut net, &repos, client, &dir, &policy);
        assert!(!out.listed);
        assert_eq!(report.attempts.len(), 3);
        // Gap between attempts: 30 then 60 simulated seconds.
        let gap1 = report.attempts[1].started_at - report.attempts[0].finished_at;
        let gap2 = report.attempts[2].started_at - report.attempts[1].finished_at;
        assert_eq!(gap1, 30);
        assert_eq!(gap2, 60);

        // A `u32` of attempts outlasts a `u64` of seconds. The delay
        // keeps doubling — it neither shifts its high bits away nor,
        // from attempt 65, panics on the shift — until a retry would be
        // due after the end of the clock; that one never happens, and
        // the clock is left usable.
        let (mut net, repos, client, server, dir) = world();
        net.faults.partition(client, server);
        let policy = SyncPolicy { attempts: 66, backoff: 1, deadline: Some(300) };
        let (_, report) = sync_dir_with_policy(&mut net, &repos, client, &dir, &policy);
        assert_eq!(report.attempts.len(), 64);
        for (k, pair) in report.attempts.windows(2).enumerate() {
            assert_eq!(pair[1].started_at - pair[0].finished_at, 1 << k, "gap {k}");
        }
        net.faults.heal(client, server);
        assert!(sync_dir(&mut net, &repos, client, &dir).is_complete());
    }

    #[test]
    fn listed_outcome_survives_later_unreachable_attempt() {
        let (mut net, repos, client, server, dir) = world();
        // Attempt 1: partial (one file lost). Attempts 2–3: repository
        // down entirely. The partial listing must win over "absent".
        net.faults.drop_nth(server, client, 2);
        net.faults.drop_nth(server, client, 3 + 1); // attempt 2's listing
        net.faults.drop_nth(server, client, 3 + 2); // attempt 3's listing
        let policy = SyncPolicy { attempts: 3, backoff: 10, deadline: Some(300) };
        let (out, _) = sync_dir_with_policy(&mut net, &repos, client, &dir, &policy);
        assert!(out.listed, "a listed outcome must not be displaced by a later failure");
        assert!(out.files.contains_key("b.cer"));
    }

    #[test]
    fn node_down_behaves_like_partition_for_sync() {
        let run = |down: bool| {
            let (mut net, repos, client, server, dir) = world();
            if down {
                net.faults.set_down(server, true);
            } else {
                net.faults.partition(client, server);
            }
            sync_dir(&mut net, &repos, client, &dir)
        };
        let downed = run(true);
        let partitioned = run(false);
        assert!(!downed.listed && downed.files.is_empty());
        assert_eq!(downed, partitioned, "down and partitioned must be indistinguishable");
    }

    #[test]
    fn probabilistic_corruption_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut net = Network::new(seed);
            let client = net.add_node("relying-party");
            let mut repos = RepoRegistry::new();
            let server = repos.create(&mut net, "h");
            let dir = RepoUri::new("h", &["repo"]);
            for i in 0..16u8 {
                repos.get_mut(server).unwrap().publish_raw(&dir, &format!("f{i:02}"), vec![i; 8]);
            }
            net.faults.set_corruption(server, client, 0.4);
            let out = sync_dir(&mut net, &repos, client, &dir);
            (out.listed, out.files.keys().cloned().collect::<Vec<_>>(), out.missing, out.corrupted)
        };
        let outcomes: Vec<_> = (0..16).map(run).collect();
        let replay: Vec<_> = (0..16).map(run).collect();
        assert_eq!(outcomes, replay, "same seed must reproduce the same fault pattern");
        assert!(outcomes.windows(2).any(|w| w[0] != w[1]), "seeds must diverge");
        // At a 40% corruption rate some session must both obtain the
        // listing and lose files to torn frames or digest mismatches.
        assert!(outcomes.iter().any(|(listed, files, missing, corrupted)| *listed
            && files.len() < 16
            && (!missing.is_empty() || !corrupted.is_empty())));
    }

    #[test]
    fn probe_digest_matches_complete_sync_digest() {
        let (mut net, repos, client, _, dir) = world();
        let sent_before = net.stats().sent;
        let probe = probe_dir(&mut net, &repos, client, &dir, None);
        assert!(probe.listed);
        // One request frame and one response frame: the whole probe.
        assert_eq!(net.stats().sent - sent_before, 2);
        let out = sync_dir(&mut net, &repos, client, &dir);
        assert!(out.is_complete());
        assert_eq!(probe.content_digest(), out.content_digest());
        assert!(probe.content_digest().is_some());
    }

    #[test]
    fn probe_of_empty_directory_matches_its_sync_digest() {
        let (mut net, repos, client, _, _) = world();
        let dir = RepoUri::new("rpki.sprint.example", &["empty-dir"]);
        let probe = probe_dir(&mut net, &repos, client, &dir, None);
        assert!(probe.listed);
        let out = sync_dir(&mut net, &repos, client, &dir);
        assert!(out.is_complete());
        assert_eq!(probe.content_digest(), out.content_digest());
    }

    #[test]
    fn probe_of_unreachable_directory_has_no_digest() {
        let (mut net, repos, client, server, dir) = world();
        net.faults.partition(client, server);
        let probe = probe_dir(&mut net, &repos, client, &dir, None);
        assert!(!probe.listed);
        assert_eq!(probe.content_digest(), None);
        let out = sync_dir(&mut net, &repos, client, &dir);
        assert_eq!(out.content_digest(), None);
    }

    #[test]
    fn content_digest_tracks_content_and_gaps() {
        let (mut net, mut repos, client, server, dir) = world();
        let complete = sync_dir(&mut net, &repos, client, &dir).content_digest().unwrap();
        // A partial sync (one file dropped) must key differently.
        net.faults.drop_nth(server, client, 2);
        let partial = sync_dir(&mut net, &repos, client, &dir);
        assert!(!partial.is_complete());
        assert_ne!(partial.content_digest(), Some(complete));
        // Changed bytes must key differently too.
        repos.get_mut(server).unwrap().publish_raw(&dir, "a.roa", vec![9, 9, 9]);
        let changed = sync_dir(&mut net, &repos, client, &dir).content_digest().unwrap();
        assert_ne!(changed, complete);
    }

    #[test]
    fn probabilistic_loss_rate_is_seeded_for_sync() {
        let run = |seed: u64| {
            let mut net = Network::new(seed);
            let client = net.add_node("relying-party");
            let mut repos = RepoRegistry::new();
            let server = repos.create(&mut net, "h");
            let dir = RepoUri::new("h", &["repo"]);
            for i in 0..16u8 {
                repos.get_mut(server).unwrap().publish_raw(&dir, &format!("f{i:02}"), vec![i]);
            }
            net.faults.set_loss(server, client, 0.5);
            let out = sync_dir(&mut net, &repos, client, &dir);
            (out.listed, out.missing)
        };
        assert_eq!(run(3), run(3));
    }

    /// One protocol's session as the accounting table sees it: whether
    /// the opening exchange was answered, and whether the API reported
    /// the deadline firing (the probe and the RRDP sync do not say).
    type Protocol =
        fn(&mut Network, &RepoRegistry, NodeId, &RepoUri, Option<u64>) -> (bool, Option<bool>);

    const PROTOCOLS: [(&str, Protocol); 3] = [
        ("probe_dir", |net, repos, client, dir, deadline| {
            (probe_dir(net, repos, client, dir, deadline).listed, None)
        }),
        ("sync_dir", |net, repos, client, dir, deadline| {
            // One attempt and no backoff: `sync_dir`, plus a deadline.
            let policy = SyncPolicy { attempts: 1, backoff: 0, deadline };
            let (out, report) = sync_dir_with_policy(net, repos, client, dir, &policy);
            (out.listed, Some(report.attempts[0].deadline_hit))
        }),
        ("rrdp_sync_dir", |net, repos, client, dir, deadline| {
            let mut state = RrdpClientState::new();
            let out = rrdp_sync_dir(net, repos, client, dir, &mut state, deadline);
            (!matches!(out, Err(RrdpError::Unreachable)), None)
        }),
    ];

    /// One way an exchange resolves, arranged before the session starts.
    struct Row {
        name: &'static str,
        /// `(net, client, server, stranger, dir)`.
        fault: fn(&mut Network, NodeId, NodeId, NodeId, &RepoUri),
        deadline: Option<u64>,
        /// Whether the opening exchange gets its answer.
        answered: bool,
        /// Whether the deadline, not the accounting, ends the session.
        deadline_hit: bool,
    }

    /// A well-formed "this directory exists" answer in each protocol,
    /// sent to the client by a node that is not the server.
    fn impostor(net: &mut Network, client: NodeId, stranger: NodeId, dir: &RepoUri) {
        let (dir, digest) = (dir.clone(), sha256(b"impostor"));
        net.send(
            stranger,
            client,
            RsyncResponse::NotFound { dir: dir.clone(), name: None }.to_bytes(),
        );
        net.send(
            stranger,
            client,
            RsyncResponse::DirDigest { dir: dir.clone(), digest }.to_bytes(),
        );
        net.send(stranger, client, RrdpResponse::NotFound { dir, serial: None }.to_bytes());
    }

    #[test]
    fn every_way_an_exchange_resolves_ends_the_session_in_every_protocol() {
        let rows = [
            Row {
                name: "reply delivered",
                fault: |_, _, _, _, _| {},
                deadline: Some(300),
                answered: true,
                deadline_hit: false,
            },
            Row {
                name: "reply torn",
                fault: |net, client, server, _, _| net.faults.corrupt_nth(server, client, 1),
                deadline: Some(300),
                answered: false,
                deadline_hit: false,
            },
            Row {
                name: "request dropped",
                fault: |net, client, server, _, _| net.faults.drop_nth(client, server, 1),
                deadline: Some(300),
                answered: false,
                deadline_hit: false,
            },
            Row {
                name: "reply dropped",
                fault: |net, client, server, _, _| net.faults.drop_nth(server, client, 1),
                deadline: Some(300),
                answered: false,
                deadline_hit: false,
            },
            Row {
                name: "request unparseable at the server",
                fault: |net, client, server, _, _| net.faults.corrupt_nth(client, server, 1),
                deadline: Some(300),
                answered: false,
                deadline_hit: false,
            },
            Row {
                name: "a frame from a node that is not the server is no answer",
                fault: |net, client, server, stranger, dir| {
                    net.faults.partition(client, server);
                    impostor(net, client, stranger, dir);
                },
                deadline: Some(300),
                answered: false,
                deadline_hit: false,
            },
            Row {
                name: "a frame from a node that is not the server resolves nothing",
                fault: |net, client, _, stranger, dir| impostor(net, client, stranger, dir),
                deadline: Some(300),
                answered: true,
                deadline_hit: false,
            },
            Row {
                name: "deadline with frames in flight",
                fault: |net, client, server, _, _| net.faults.set_stall(server, client, 3600),
                deadline: Some(300),
                answered: false,
                deadline_hit: true,
            },
            Row {
                name: "no deadline",
                fault: |net, client, server, _, _| net.faults.set_stall(server, client, 3600),
                deadline: None,
                answered: true,
                deadline_hit: false,
            },
        ];
        for row in &rows {
            for (protocol, run) in PROTOCOLS {
                let case = format!("{protocol}: {}", row.name);
                let (mut net, repos, client, server, dir) = world();
                let stranger = net.add_node("stranger");
                let unrelated = Occurrence::Timer { node: stranger, token: 7 };
                net.set_timer(stranger, 1_000_000, 7);
                (row.fault)(&mut net, client, server, stranger, &dir);

                // Returning at all is the termination half of the claim.
                let start = net.now();
                let (answered, reported) = run(&mut net, &repos, client, &dir, row.deadline);
                assert_eq!(answered, row.answered, "{case}: answered");
                let walked_away = row.deadline == Some(net.now() - start);
                assert_eq!(walked_away, row.deadline_hit, "{case}: ended at the deadline");
                assert!(reported.is_none_or(|hit| hit == row.deadline_hit), "{case}: reported");

                // Nothing leaks into the next session over a healed
                // wire, and between them the two sessions leave nothing
                // queued — no frame, no deadline timer — but the
                // unrelated event, which neither consumed.
                net.faults.heal(client, server);
                net.faults.set_stall(server, client, 0);
                let (answered, _) = run(&mut net, &repos, client, &dir, row.deadline);
                assert!(answered, "{case}: the next session");
                assert_eq!(net.run_to_idle(), vec![unrelated], "{case}: left queued");
            }
        }
    }
}
