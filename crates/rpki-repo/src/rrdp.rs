//! The RRDP transport (RFC 8182-shaped): publication logs, delta
//! documents, and the polling client state machine.
//!
//! Production relying parties prefer the RPKI Repository Delta Protocol
//! over rsync: the repository maintains a *publication log* — a session
//! id, a monotone serial, and a bounded history of per-write delta
//! records — and the client polls a tiny *notification*, then fetches
//! only the deltas it is missing. Every reference in the notification
//! carries a SHA-256 hash, so a client can detect tampering or a torn
//! log and fall back to the full snapshot.
//!
//! The model here is sans-IO and deterministic:
//!
//! - the **server side** lives in the store: every [`Repository`]
//!   mutation appends a [`DeltaChange`] record to the directory's
//!   publication log and refreshes the snapshot hash, so
//!   notification/snapshot/delta documents are served from state
//!   maintained at write time;
//! - the **wire** is three request frames and four response frames in
//!   the workspace's canonical codec, with a tag space disjoint from
//!   the rsync protocol so a stray frame can never cross-decode;
//! - the **client** ([`rrdp_sync_dir`]) keeps per-directory
//!   `(session, serial, files)` state in an [`RrdpClientState`],
//!   verifies every document hash against the notification, applies
//!   contiguous delta chains, falls back to the snapshot on gaps,
//!   session resets, or hash mismatches, and reports hard failures as
//!   [`RrdpError`] so the caller can downgrade to rsync. Each exchange
//!   it makes is one `client::Session`, which owns termination and the
//!   deadline.
//!
//! Session ids are *derived* (SHA-256 of the host, path, and reset
//! count), never random: the fault RNG stays reserved for probabilistic
//! faults and byte-identical replay is preserved.
//!
//! The downgrade-attack surface (Stalloris): a misbehaving publication
//! point can pin its RRDP feed at a stale serial
//! ([`rrdp_pin`](crate::Repository::rrdp_pin)), withhold deltas
//! ([`set_rrdp_withhold_deltas`](crate::Repository::set_rrdp_withhold_deltas)),
//! reset its session
//! ([`rrdp_reset_session`](crate::Repository::rrdp_reset_session)), or
//! refuse RRDP entirely
//! ([`set_rrdp_offline`](crate::Repository::set_rrdp_offline)) to
//! force clients onto rsync.
//! The knobs are the whole vocabulary; a campaign's fault windows
//! (`rpki_risk::FaultKind::{RrdpPin, RrdpWithhold}`) schedule them.

use std::collections::{BTreeMap, VecDeque};

use netsim::{Network, NodeId};
use rpki_objects::{Decode, DecodeError, Encode, Reader, RepoUri, Writer};
use rpkisim_crypto::{sha256, Digest};
use serde::Serialize;

use crate::client::{dir_content_digest, RepoRegistry, Session, SyncOutcome};
use crate::pubd::{self, PubdEvent, PubdWork, SnapshotDoc};
use crate::store::Repository;

/// Timer token for per-exchange RRDP deadlines (distinct from the
/// rsync sessions' tokens so concurrent timers never collide).
const RRDP_DEADLINE_TOKEN: u64 = 0x5252_4450_dead_0001;

// ---------------------------------------------------------------------
// Publication log (server side, maintained at write time)
// ---------------------------------------------------------------------

/// One element of a delta document: a file published (or overwritten)
/// with its new bytes, or withdrawn with the hash of the bytes it had —
/// the RFC 8182 publish/withdraw pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaChange {
    /// `name` now has these bytes.
    Publish {
        /// File name within the directory.
        name: String,
        /// The new content.
        bytes: Vec<u8>,
    },
    /// `name` was removed; `hash` is the digest of the removed bytes,
    /// so a client can detect that its copy diverged.
    Withdraw {
        /// File name within the directory.
        name: String,
        /// Digest of the withdrawn content.
        hash: Digest,
    },
}

const CHANGE_PUBLISH: u8 = 1;
const CHANGE_WITHDRAW: u8 = 2;

impl Encode for DeltaChange {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            DeltaChange::Publish { name, bytes } => {
                out.push(CHANGE_PUBLISH);
                Writer::string(out, name);
                Writer::bytes(out, bytes);
            }
            DeltaChange::Withdraw { name, hash } => {
                out.push(CHANGE_WITHDRAW);
                Writer::string(out, name);
                hash.encode(out);
            }
        }
    }
}

impl Decode for DeltaChange {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            CHANGE_PUBLISH => {
                Ok(DeltaChange::Publish { name: r.string()?, bytes: r.bytes()?.to_vec() })
            }
            CHANGE_WITHDRAW => {
                Ok(DeltaChange::Withdraw { name: r.string()?, hash: Digest::decode(r)? })
            }
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

/// One recorded delta: the serial it advances the directory to, the
/// changes, the hash of the canonical delta document (what the
/// notification advertises), and that document's size (what the
/// byte-budgeted retention policy meters).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DeltaRecord {
    pub(crate) serial: u64,
    pub(crate) hash: Digest,
    pub(crate) doc_bytes: u64,
    pub(crate) changes: Vec<DeltaChange>,
}

/// The per-publication-point publication log: session id, monotone
/// serial, the materialised snapshot document (rebuilt when the
/// compaction policy says so, not per write), policy-bounded delta
/// history, and the cumulative [`PubdWork`] ledger.
#[derive(Debug, Clone)]
pub(crate) struct PublicationLog {
    /// Deterministic seed (hash of host + path) session ids derive from.
    seed: u64,
    /// How many times the session has been reset.
    resets: u64,
    pub(crate) session: u64,
    pub(crate) serial: u64,
    /// The cached serialized snapshot document — what snapshot requests
    /// are served from and what notifications advertise. Its serial
    /// trails `serial` by up to `compaction_interval - 1`.
    pub(crate) snapshot: SnapshotDoc,
    pub(crate) deltas: VecDeque<DeltaRecord>,
    /// Running total of retained canonical delta-document bytes.
    pub(crate) delta_bytes: u64,
    /// Cumulative build-side work counters.
    pub(crate) work: PubdWork,
}

impl PublicationLog {
    /// A fresh log at serial 0 with an empty materialised snapshot.
    pub(crate) fn new(seed: u64) -> Self {
        let session = derive_session(seed, 0);
        PublicationLog {
            seed,
            resets: 0,
            session,
            serial: 0,
            snapshot: SnapshotDoc::build(session, 0, std::iter::empty()),
            deltas: VecDeque::new(),
            delta_bytes: 0,
            work: PubdWork::default(),
        }
    }

    /// Appends one delta record: bumps the serial and hashes the
    /// canonical delta document. Compaction and eviction happen in the
    /// store's [`record`](crate::Repository) path, which can see the
    /// file set and the host policy.
    pub(crate) fn record(&mut self, changes: Vec<DeltaChange>) {
        self.serial += 1;
        let doc = delta_document(self.session, self.serial, &changes);
        let doc_bytes = doc.len() as u64;
        let hash = sha256(&doc);
        self.deltas.push_back(DeltaRecord { serial: self.serial, hash, doc_bytes, changes });
        self.delta_bytes += doc_bytes;
        self.work.serials += 1;
    }

    /// Installs a freshly materialised snapshot document, counting the
    /// build.
    pub(crate) fn install_snapshot(
        &mut self,
        doc: SnapshotDoc,
        forced: bool,
        events: &mut Vec<PubdEvent>,
    ) {
        self.work.snapshot_builds += 1;
        if forced {
            self.work.forced_builds += 1;
        }
        self.work.snapshot_bytes_built += doc.len();
        events.push(PubdEvent::Materialised { serial: doc.serial(), bytes: doc.len(), forced });
        self.snapshot = doc;
    }

    /// Evicts the oldest retained delta, counting the eviction. The
    /// caller has already ensured it is not a bridge delta.
    pub(crate) fn evict_front(&mut self, events: &mut Vec<PubdEvent>) {
        let rec = self.deltas.pop_front().expect("eviction requires a retained delta");
        self.delta_bytes -= rec.doc_bytes;
        self.work.deltas_evicted += 1;
        self.work.delta_bytes_evicted += rec.doc_bytes;
        events.push(PubdEvent::Evicted { serial: rec.serial, bytes: rec.doc_bytes });
    }

    /// Starts a new session: fresh (derived) session id, serial restart
    /// at 1, delta history cleared — clients must refetch the snapshot.
    /// The caller rematerialises the snapshot document right after.
    pub(crate) fn reset(&mut self) {
        self.resets += 1;
        self.session = derive_session(self.seed, self.resets);
        self.serial = 1;
        self.deltas.clear();
        self.delta_bytes = 0;
    }
}

/// First eight bytes of a SHA-256, as the deterministic id material for
/// sessions and session seeds.
fn digest_to_u64(d: &Digest) -> u64 {
    let bytes = d.as_bytes();
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&bytes[..8]);
    u64::from_be_bytes(buf)
}

/// The session-seed of a publication point: a hash of its host and
/// path, so every directory gets a distinct, replayable session id.
pub(crate) fn session_seed(host: &str, path: &[String]) -> u64 {
    let mut buf = Vec::new();
    buf.extend_from_slice(host.as_bytes());
    for part in path {
        buf.push(0);
        buf.extend_from_slice(part.as_bytes());
    }
    digest_to_u64(&sha256(&buf))
}

/// Derives the session id for a given reset count. No RNG: replays are
/// byte-identical, and each reset yields a fresh, unpredictable-enough
/// id for the protocol's purposes.
fn derive_session(seed: u64, resets: u64) -> u64 {
    let mut buf = Vec::with_capacity(16);
    buf.extend_from_slice(&seed.to_be_bytes());
    buf.extend_from_slice(&resets.to_be_bytes());
    digest_to_u64(&sha256(&buf))
}

/// The canonical snapshot-document digest: session, serial, then every
/// `(name, bytes)` pair length-prefixed, hashed. Server and client
/// compute it identically, so the notification's snapshot hash pins the
/// exact document. The server only ever computes it at materialisation
/// time (see [`SnapshotDoc`]); the client recomputes it per fetched
/// snapshot.
pub(crate) fn snapshot_digest<'a, I>(session: u64, serial: u64, files: I) -> Digest
where
    I: Iterator<Item = (&'a str, &'a [u8])>,
{
    sha256(&pubd::snapshot_document(session, serial, files))
}

/// The canonical serialized delta document: session, serial, then the
/// encoded change list. Its length is what byte-budgeted retention
/// meters, its hash is what notifications advertise.
pub(crate) fn delta_document(session: u64, serial: u64, changes: &[DeltaChange]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&session.to_be_bytes());
    buf.extend_from_slice(&serial.to_be_bytes());
    changes.encode(&mut buf);
    buf
}

/// The canonical delta-document digest.
pub(crate) fn delta_digest(session: u64, serial: u64, changes: &[DeltaChange]) -> Digest {
    sha256(&delta_document(session, serial, changes))
}

// ---------------------------------------------------------------------
// Wire frames
// ---------------------------------------------------------------------

/// A reference to one delta document in a notification: the serial it
/// reaches and the hash of its canonical encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaRef {
    /// The serial this delta advances the directory to.
    pub serial: u64,
    /// SHA-256 of the canonical delta document.
    pub hash: Digest,
}

impl Encode for DeltaRef {
    fn encode(&self, out: &mut Vec<u8>) {
        self.serial.encode(out);
        self.hash.encode(out);
    }
}

impl Decode for DeltaRef {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(DeltaRef { serial: u64::decode(r)?, hash: Digest::decode(r)? })
    }
}

/// An RRDP client request. Tags are disjoint from the rsync protocol's
/// so a frame from one protocol can never decode as the other.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RrdpRequest {
    /// Poll the notification document of a publication point.
    Notification {
        /// The publication-point directory.
        dir: RepoUri,
    },
    /// Fetch the snapshot document at `serial`.
    Snapshot {
        /// The publication-point directory.
        dir: RepoUri,
        /// The serial the notification advertised.
        serial: u64,
    },
    /// Fetch the delta document reaching `serial`.
    Delta {
        /// The publication-point directory.
        dir: RepoUri,
        /// The serial the delta advances to.
        serial: u64,
    },
}

const RREQ_NOTIFICATION: u8 = 0x21;
const RREQ_SNAPSHOT: u8 = 0x22;
const RREQ_DELTA: u8 = 0x23;

impl Encode for RrdpRequest {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RrdpRequest::Notification { dir } => {
                out.push(RREQ_NOTIFICATION);
                dir.encode(out);
            }
            RrdpRequest::Snapshot { dir, serial } => {
                out.push(RREQ_SNAPSHOT);
                dir.encode(out);
                serial.encode(out);
            }
            RrdpRequest::Delta { dir, serial } => {
                out.push(RREQ_DELTA);
                dir.encode(out);
                serial.encode(out);
            }
        }
    }
}

impl Decode for RrdpRequest {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            RREQ_NOTIFICATION => Ok(RrdpRequest::Notification { dir: RepoUri::decode(r)? }),
            RREQ_SNAPSHOT => {
                Ok(RrdpRequest::Snapshot { dir: RepoUri::decode(r)?, serial: u64::decode(r)? })
            }
            RREQ_DELTA => {
                Ok(RrdpRequest::Delta { dir: RepoUri::decode(r)?, serial: u64::decode(r)? })
            }
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

/// A `(name, bytes)` snapshot entry — codec helper.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FileEntry(String, Vec<u8>);

impl Encode for FileEntry {
    fn encode(&self, out: &mut Vec<u8>) {
        Writer::string(out, &self.0);
        Writer::bytes(out, &self.1);
    }
}

impl Decode for FileEntry {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(FileEntry(r.string()?, r.bytes()?.to_vec()))
    }
}

/// An RRDP server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RrdpResponse {
    /// The notification document: where the log stands and how to get
    /// there, with a hash on every reference.
    Notification {
        /// The directory (echoed for correlation).
        dir: RepoUri,
        /// Current session id.
        session: u64,
        /// Current (monotone within a session) serial.
        serial: u64,
        /// The canonical complete-sync content digest of the directory
        /// at `serial` — the same digest an rsync digest probe reports,
        /// so RRDP composes with the incremental validator's cache.
        content: Digest,
        /// The serial the advertised snapshot document was materialised
        /// at. Trails `serial` by up to `compaction_interval - 1`; a
        /// fallback client fetches the snapshot here and bridges forward
        /// over the advertised deltas.
        snapshot_serial: u64,
        /// SHA-256 of the snapshot document at `snapshot_serial`.
        snapshot_hash: Digest,
        /// Available delta documents, oldest first.
        deltas: Vec<DeltaRef>,
    },
    /// The snapshot document: the complete file set at `serial`.
    Snapshot {
        /// The directory (echoed).
        dir: RepoUri,
        /// Session id the snapshot belongs to.
        session: u64,
        /// The serial it represents.
        serial: u64,
        /// Every file, in name order.
        files: Vec<(String, Vec<u8>)>,
    },
    /// One delta document.
    Delta {
        /// The directory (echoed).
        dir: RepoUri,
        /// Session id the delta belongs to.
        session: u64,
        /// The serial it advances to.
        serial: u64,
        /// The publish/withdraw list.
        changes: Vec<DeltaChange>,
    },
    /// The requested document does not exist (unknown directory, RRDP
    /// disabled, or a serial outside the retained history).
    NotFound {
        /// The directory requested.
        dir: RepoUri,
        /// The serial requested, if the request named one.
        serial: Option<u64>,
    },
}

const RRESP_NOTIFICATION: u8 = 0x31;
const RRESP_SNAPSHOT: u8 = 0x32;
const RRESP_DELTA: u8 = 0x33;
const RRESP_NOT_FOUND: u8 = 0x34;

impl Encode for RrdpResponse {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RrdpResponse::Notification {
                dir,
                session,
                serial,
                content,
                snapshot_serial,
                snapshot_hash,
                deltas,
            } => {
                out.push(RRESP_NOTIFICATION);
                dir.encode(out);
                session.encode(out);
                serial.encode(out);
                content.encode(out);
                snapshot_serial.encode(out);
                snapshot_hash.encode(out);
                deltas.encode(out);
            }
            RrdpResponse::Snapshot { dir, session, serial, files } => {
                out.push(RRESP_SNAPSHOT);
                dir.encode(out);
                session.encode(out);
                serial.encode(out);
                let files: Vec<FileEntry> =
                    files.iter().map(|(n, b)| FileEntry(n.clone(), b.clone())).collect();
                files.encode(out);
            }
            RrdpResponse::Delta { dir, session, serial, changes } => {
                out.push(RRESP_DELTA);
                dir.encode(out);
                session.encode(out);
                serial.encode(out);
                changes.encode(out);
            }
            RrdpResponse::NotFound { dir, serial } => {
                out.push(RRESP_NOT_FOUND);
                dir.encode(out);
                serial.encode(out);
            }
        }
    }
}

impl Decode for RrdpResponse {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            RRESP_NOTIFICATION => Ok(RrdpResponse::Notification {
                dir: RepoUri::decode(r)?,
                session: u64::decode(r)?,
                serial: u64::decode(r)?,
                content: Digest::decode(r)?,
                snapshot_serial: u64::decode(r)?,
                snapshot_hash: Digest::decode(r)?,
                deltas: Vec::<DeltaRef>::decode(r)?,
            }),
            RRESP_SNAPSHOT => Ok(RrdpResponse::Snapshot {
                dir: RepoUri::decode(r)?,
                session: u64::decode(r)?,
                serial: u64::decode(r)?,
                files: Vec::<FileEntry>::decode(r)?
                    .into_iter()
                    .map(|FileEntry(n, b)| (n, b))
                    .collect(),
            }),
            RRESP_DELTA => Ok(RrdpResponse::Delta {
                dir: RepoUri::decode(r)?,
                session: u64::decode(r)?,
                serial: u64::decode(r)?,
                changes: Vec::<DeltaChange>::decode(r)?,
            }),
            RRESP_NOT_FOUND => Ok(RrdpResponse::NotFound {
                dir: RepoUri::decode(r)?,
                serial: Option::<u64>::decode(r)?,
            }),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

// ---------------------------------------------------------------------
// Server answering
// ---------------------------------------------------------------------

/// Serves one RRDP frame from `repo`'s publication logs and books the
/// served wire bytes into its load and per-kind
/// [`PubdServed`](crate::PubdServed) ledgers. `None` for a frame that
/// is not an RRDP request.
fn serve_rrdp(repo: &Repository, frame: &[u8]) -> Option<Vec<u8>> {
    let req = RrdpRequest::from_bytes(frame).ok()?;
    let resp = answer_rrdp(repo, &req);
    let (RrdpRequest::Notification { dir }
    | RrdpRequest::Snapshot { dir, .. }
    | RrdpRequest::Delta { dir, .. }) = &req;
    let reply = resp.to_bytes();
    repo.note_served_rrdp(dir, &resp, reply.len() as u64);
    Some(reply)
}

/// Answers one decoded RRDP request, honouring the misbehaviour knobs
/// (offline, withheld deltas, pinned views).
fn answer_rrdp(repo: &Repository, req: &RrdpRequest) -> RrdpResponse {
    let (dir, req_serial) = match req {
        RrdpRequest::Notification { dir } => (dir, None),
        RrdpRequest::Snapshot { dir, serial } | RrdpRequest::Delta { dir, serial } => {
            (dir, Some(*serial))
        }
    };
    let not_found = || RrdpResponse::NotFound { dir: dir.clone(), serial: req_serial };
    if repo.host() != dir.host() || repo.rrdp_offline() {
        return not_found();
    }
    match req {
        RrdpRequest::Notification { .. } => match repo.rrdp_notification(dir) {
            Some(info) => RrdpResponse::Notification {
                dir: dir.clone(),
                session: info.session,
                serial: info.serial,
                content: info.content,
                snapshot_serial: info.snapshot_serial,
                snapshot_hash: info.snapshot_hash,
                deltas: info.deltas,
            },
            None => not_found(),
        },
        RrdpRequest::Snapshot { serial, .. } => match repo.rrdp_snapshot(dir, *serial) {
            Some((session, files)) => {
                RrdpResponse::Snapshot { dir: dir.clone(), session, serial: *serial, files }
            }
            None => not_found(),
        },
        RrdpRequest::Delta { serial, .. } => {
            if repo.rrdp_withhold_deltas() {
                return not_found();
            }
            match repo.rrdp_delta(dir, *serial) {
                Some((session, changes)) => {
                    RrdpResponse::Delta { dir: dir.clone(), session, serial: *serial, changes }
                }
                None => not_found(),
            }
        }
    }
}

/// What one notification document says: as assembled by the store
/// (from the live log or a pinned, frozen copy of it), and as the
/// client plans its sync from once it is off the wire.
#[derive(Debug, Clone)]
pub(crate) struct NotifInfo {
    pub(crate) session: u64,
    pub(crate) serial: u64,
    pub(crate) content: Digest,
    pub(crate) snapshot_serial: u64,
    pub(crate) snapshot_hash: Digest,
    pub(crate) deltas: Vec<DeltaRef>,
}

// ---------------------------------------------------------------------
// Client state machine
// ---------------------------------------------------------------------

/// Counters an [`RrdpClientState`] accumulates across syncs. All plain
/// integers, so campaign metrics built from them replay byte-identically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RrdpStats {
    /// Notification polls attempted.
    pub polls: u64,
    /// Syncs resolved by the serial fast path (nothing to transfer).
    pub unchanged: u64,
    /// Syncs resolved by applying a delta chain.
    pub delta_syncs: u64,
    /// Individual delta documents applied.
    pub deltas_applied: u64,
    /// Syncs resolved by fetching the full snapshot.
    pub snapshot_syncs: u64,
    /// Snapshot syncs because this client had no local state yet (the
    /// unavoidable cold-start fetch).
    pub fallback_initial: u64,
    /// Snapshot syncs because the deltas this client needed were no
    /// longer retained — the history-eviction side of RFC 8182 §3.3.2,
    /// and the starvation lever a Stalloris-style authority pulls.
    pub fallback_evicted: u64,
    /// Snapshot syncs because the upstream session id changed.
    pub fallback_session_reset: u64,
    /// Snapshot syncs for every other reason: a hole inside the
    /// advertised chain, a serial that went backwards, content
    /// divergence at the same serial, or a delta fetch that failed
    /// (withheld, torn, hash mismatch, inconsistent chain).
    pub fallback_chain_gap: u64,
    /// Bridge deltas applied on top of fetched snapshots (the snapshot
    /// was materialised behind the head serial; see compaction).
    pub bridge_deltas_applied: u64,
    /// Session resets observed (the upstream feed restarted).
    pub session_resets: u64,
    /// Syncs that failed outright (caller decides the fallback).
    pub failures: u64,
    /// Times the caller fell back to the rsync path.
    pub downgrades: u64,
    /// Times a freshness cross-check caught a stale pinned feed.
    pub pinned_detected: u64,
    /// Failed syncs held back from rsync because the notification had
    /// not yet been unreachable past the fallback window.
    pub fallback_deferrals: u64,
    /// Times the timed fallback window expired and the caller switched
    /// a directory to rsync.
    pub fallback_switches: u64,
}

/// Per-directory client state.
#[derive(Debug)]
struct DirState {
    session: u64,
    serial: u64,
    /// `name → (digest, bytes)`; digests are kept so the content digest
    /// recomputes without re-hashing unchanged files.
    files: BTreeMap<String, (Digest, Vec<u8>)>,
}

impl DirState {
    fn content(&self) -> Digest {
        let entries: Vec<(&str, Digest)> =
            self.files.iter().map(|(n, (d, _))| (n.as_str(), *d)).collect();
        dir_content_digest(&entries, &[], &[])
    }

    fn outcome(&self, dir: &RepoUri) -> SyncOutcome {
        let files = self.files.iter().map(|(n, (_, b))| (n.clone(), b.clone())).collect();
        let mut out = SyncOutcome::fresh(dir.clone(), files);
        out.content = Some(self.content());
        out
    }
}

/// Persistent RRDP client state: per-directory session/serial/files,
/// plus cumulative [`RrdpStats`]. Survives across validation runs the
/// way the resilient snapshot cache does — that persistence is what
/// makes delta sync cheap.
#[derive(Debug, Default)]
pub struct RrdpClientState {
    dirs: BTreeMap<RepoUri, DirState>,
    stats: RrdpStats,
    /// Bumps every time a session reset is observed on any directory.
    /// An RTR cache keyed on this epoch starts a new RTR session
    /// (CacheReset at the routers) instead of silently bumping serials.
    epoch: u64,
    /// `dir → sim time of the first notification failure in the current
    /// unreachable streak`. Cleared on any successful sync. Drives the
    /// routinator-style timed RRDP→rsync fallback (`--rrdp-fallback-time`):
    /// the caller downgrades only once a streak outlives the window.
    unreachable_since: BTreeMap<RepoUri, u64>,
}

impl RrdpClientState {
    /// Fresh state: first sync of every directory goes via snapshot.
    pub fn new() -> Self {
        RrdpClientState::default()
    }

    /// Cumulative counters.
    pub fn stats(&self) -> RrdpStats {
        self.stats
    }

    /// The session-reset epoch: increments whenever an upstream
    /// publication point restarts its RRDP session.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The `(session, serial)` this client holds for `dir`, if synced.
    pub fn position(&self, dir: &RepoUri) -> Option<(u64, u64)> {
        self.dirs.get(dir).map(|d| (d.session, d.serial))
    }

    /// Records that the caller fell back to rsync for a directory.
    pub fn note_downgrade(&mut self) {
        self.stats.downgrades += 1;
    }

    /// Records that a freshness cross-check caught a pinned feed.
    pub fn note_pinned(&mut self) {
        self.stats.pinned_detected += 1;
    }

    /// Records a notification failure at `now` and returns when the
    /// current unreachable streak began (i.e. `now` on the first
    /// failure, the original timestamp on later ones).
    pub fn note_unreachable(&mut self, dir: &RepoUri, now: u64) -> u64 {
        *self.unreachable_since.entry(dir.clone()).or_insert(now)
    }

    /// When the current unreachable streak of `dir` began, if one is
    /// active.
    pub fn unreachable_since(&self, dir: &RepoUri) -> Option<u64> {
        self.unreachable_since.get(dir).copied()
    }

    /// Clears the unreachable streak of `dir` (a sync succeeded).
    pub fn note_reachable(&mut self, dir: &RepoUri) {
        self.unreachable_since.remove(dir);
    }

    /// Records a failed sync held back from rsync by the timed-fallback
    /// window.
    pub fn note_fallback_deferral(&mut self) {
        self.stats.fallback_deferrals += 1;
    }

    /// Records a timed-fallback window expiring into an rsync switch.
    pub fn note_fallback_switch(&mut self) {
        self.stats.fallback_switches += 1;
    }
}

/// Why one RRDP sync failed hard (the caller's cue to downgrade to the
/// rsync path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RrdpError {
    /// No (parseable) notification arrived: host absent, partitioned,
    /// down, stalled past the deadline, or the frame was torn.
    Unreachable,
    /// The server answered NotFound: RRDP disabled or the needed
    /// document withheld.
    Withheld,
    /// A document arrived but failed its hash, session, or consistency
    /// check — the feed is corrupt or lying.
    Corrupt,
}

impl RrdpError {
    /// Stable label for traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            RrdpError::Unreachable => "unreachable",
            RrdpError::Withheld => "withheld",
            RrdpError::Corrupt => "corrupt",
        }
    }
}

/// How one successful RRDP sync got its data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RrdpSyncKind {
    /// Serial unchanged: the two-frame fast path, nothing transferred.
    Unchanged,
    /// This many delta documents were fetched and applied.
    Deltas(usize),
    /// Full snapshot fetched (first sync, or a gap in the delta chain).
    Snapshot,
    /// Full snapshot fetched because the session id changed.
    SessionReset,
}

impl RrdpSyncKind {
    /// Stable label for traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            RrdpSyncKind::Unchanged => "unchanged",
            RrdpSyncKind::Deltas(_) => "deltas",
            RrdpSyncKind::Snapshot => "snapshot",
            RrdpSyncKind::SessionReset => "session_reset",
        }
    }
}

/// Why a sync went to the snapshot instead of the delta chain. Decided
/// at plan time, counted (one of the `fallback_*` [`RrdpStats`]
/// counters) only when the snapshot sync succeeds — so the cause
/// counters always sum to `snapshot_syncs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackCause {
    /// No local state: the unavoidable first fetch.
    Initial,
    /// The deltas this client needed were evicted from the retained
    /// history (the client fell behind the retention budget).
    Evicted,
    /// The upstream session id changed.
    SessionReset,
    /// A hole inside the advertised chain, a serial moving backwards,
    /// content divergence at the same serial, or a failed delta fetch.
    ChainGap,
}

impl FallbackCause {
    /// Stable label for traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            FallbackCause::Initial => "initial",
            FallbackCause::Evicted => "history_evicted",
            FallbackCause::SessionReset => "session_reset",
            FallbackCause::ChainGap => "chain_gap",
        }
    }
}

/// Runs one batch of RRDP request/response exchanges against `server`
/// as one [`Session`] and returns the parseable responses in arrival
/// order.
fn rrdp_exchange(
    net: &mut Network,
    repos: &RepoRegistry,
    client: NodeId,
    server: NodeId,
    reqs: &[RrdpRequest],
    deadline: Option<u64>,
) -> Vec<RrdpResponse> {
    let mut responses = Vec::new();
    Session { net, repos, client, server, deadline, token: RRDP_DEADLINE_TOKEN }.run(
        serve_rrdp,
        reqs.iter().map(Encode::to_bytes),
        |_, frame| {
            // A torn reply resolves its exchange with nothing.
            responses.extend(RrdpResponse::from_bytes(frame).ok());
            0
        },
    );
    responses
}

/// Polls only the notification of `dir` — the RRDP analogue of an rsync
/// digest probe (two tiny frames). The reported digest is whatever the
/// *server claims* its content is; a pinned server claims its frozen
/// view, which is exactly what makes the trusting relying party
/// attackable.
pub fn rrdp_probe_dir(
    net: &mut Network,
    repos: &RepoRegistry,
    client: NodeId,
    dir: &RepoUri,
    deadline: Option<u64>,
) -> crate::client::DirProbe {
    let mut probe = crate::client::DirProbe::unreachable(dir.clone());
    let Some(server) = repos.node_of(dir.host()) else { return probe };
    let resps = rrdp_exchange(
        net,
        repos,
        client,
        server,
        &[RrdpRequest::Notification { dir: dir.clone() }],
        deadline,
    );
    if let Some(RrdpResponse::Notification { content, .. }) = resps.into_iter().next() {
        probe.listed = true;
        probe.digest = Some(content);
    }
    probe
}

impl NotifInfo {
    /// The advertised references of the deltas that carry serial `from`
    /// to the head, oldest first; `None` when one of them is not
    /// advertised. `serial` comes straight off the wire, so a corrupted
    /// or lying notification can put the head anywhere in a `u64`: a gap
    /// wider than the advertised history cannot be covered and is
    /// refused before it is walked.
    fn chain_from(&self, from: u64) -> Option<Vec<DeltaRef>> {
        let gap = self.serial.checked_sub(from)?;
        if gap > self.deltas.len() as u64 {
            return None;
        }
        (1..=gap).map(|i| self.deltas.iter().find(|d| d.serial == from + i).copied()).collect()
    }
}

/// Fetches the delta documents `refs` names through `exchange`, keeps
/// those whose `(session, serial, hash)` are what the notification
/// advertised, and applies them in serial order to `files`.
///
/// Fails `Withheld` or `Unreachable` when some delta never arrived
/// intact (nothing is applied then), `Corrupt` when a withdraw names a
/// file the map does not hold with that hash (`files` is left
/// part-applied). What a failure means is the caller's policy.
fn fetch_and_apply_deltas(
    exchange: impl FnOnce(&[RrdpRequest]) -> Vec<RrdpResponse>,
    dir: &RepoUri,
    session: u64,
    refs: &[DeltaRef],
    files: &mut BTreeMap<String, (Digest, Vec<u8>)>,
) -> Result<(), RrdpError> {
    if refs.is_empty() {
        return Ok(());
    }
    let reqs: Vec<RrdpRequest> =
        refs.iter().map(|d| RrdpRequest::Delta { dir: dir.clone(), serial: d.serial }).collect();
    let mut by_serial: BTreeMap<u64, Vec<DeltaChange>> = BTreeMap::new();
    let mut withheld = false;
    for resp in exchange(&reqs) {
        match resp {
            RrdpResponse::Delta { session: s, serial, changes, .. } => {
                let advertised = refs.iter().find(|d| d.serial == serial);
                if s == session
                    && advertised.is_some_and(|d| d.hash == delta_digest(s, serial, &changes))
                {
                    by_serial.insert(serial, changes);
                }
            }
            RrdpResponse::NotFound { .. } => withheld = true,
            _ => {}
        }
    }
    if by_serial.len() != refs.len() {
        return Err(if withheld { RrdpError::Withheld } else { RrdpError::Unreachable });
    }
    for change in by_serial.into_values().flatten() {
        match change {
            DeltaChange::Publish { name, bytes } => {
                files.insert(name, (sha256(&bytes), bytes));
            }
            DeltaChange::Withdraw { name, hash } => match files.get(&name) {
                Some((d, _)) if *d == hash => {
                    files.remove(&name);
                }
                _ => return Err(RrdpError::Corrupt),
            },
        }
    }
    Ok(())
}

/// Runs one RRDP sync of `dir` from `client`, updating `state`.
///
/// The state machine: poll the notification; if the local serial
/// matches, confirm and stop (two frames total). If the local state is
/// behind and the notification lists a contiguous, fully-hashed delta
/// chain from it, fetch and apply the deltas. On a session reset, a
/// serial gap, or any hash or consistency failure, fall back to the
/// full snapshot (verified against the notification's snapshot hash).
/// Hard failures come back as [`RrdpError`]; the relying-party layer
/// downgrades those to the rsync path.
///
/// A successful sync's [`SyncOutcome`] is byte-identical to what a
/// complete rsync session of the same directory state produces — same
/// files, same canonical content digest — which is what lets RRDP slot
/// under the resilient source, the incremental validator, and the
/// campaign harness unchanged.
pub fn rrdp_sync_dir(
    net: &mut Network,
    repos: &RepoRegistry,
    client: NodeId,
    dir: &RepoUri,
    state: &mut RrdpClientState,
    deadline: Option<u64>,
) -> Result<(SyncOutcome, RrdpSyncKind), RrdpError> {
    let rec = net.recorder();
    let fail = |net: &mut Network, state: &mut RrdpClientState, err: RrdpError| {
        state.stats.failures += 1;
        let rec = net.recorder();
        if rec.is_enabled() {
            rec.count("repo.rrdp_failures", 1);
            rec.event(net.now(), "repo", "rrdp_fail")
                .str("host", dir.host())
                .str("reason", err.label())
                .emit();
        }
        Err(err)
    };
    let Some(server) = repos.node_of(dir.host()) else {
        return fail(net, state, RrdpError::Unreachable);
    };
    state.stats.polls += 1;
    if rec.is_enabled() {
        rec.count("repo.rrdp_polls", 1);
    }
    let exchange = |net: &mut Network, reqs: &[RrdpRequest]| {
        rrdp_exchange(net, repos, client, server, reqs, deadline)
    };
    let resps = exchange(net, &[RrdpRequest::Notification { dir: dir.clone() }]);
    let notif = match resps.into_iter().next() {
        Some(RrdpResponse::Notification {
            session,
            serial,
            content,
            snapshot_serial,
            snapshot_hash,
            deltas,
            ..
        }) => NotifInfo { session, serial, content, snapshot_serial, snapshot_hash, deltas },
        Some(RrdpResponse::NotFound { .. }) => return fail(net, state, RrdpError::Withheld),
        Some(_) => return fail(net, state, RrdpError::Corrupt),
        None => return fail(net, state, RrdpError::Unreachable),
    };

    // Decide the cheapest safe path to the notification's serial.
    enum Plan {
        Unchanged,
        Deltas(Vec<DeltaRef>),
        Snapshot(FallbackCause),
    }
    let plan = match state.dirs.get(dir) {
        Some(local) if local.session == notif.session => {
            if local.serial == notif.serial {
                if local.content() == notif.content {
                    Plan::Unchanged
                } else {
                    // Our copy diverged from what the server claims for
                    // this serial: self-heal via snapshot.
                    Plan::Snapshot(FallbackCause::ChainGap)
                }
            } else if local.serial < notif.serial {
                match notif.chain_from(local.serial) {
                    Some(needed) => Plan::Deltas(needed),
                    None => {
                        // Distinguish the §3.3.2 starvation case (our
                        // resume point aged out of the retained history)
                        // from a hole inside the advertised chain.
                        let oldest = notif.deltas.iter().map(|d| d.serial).min();
                        Plan::Snapshot(match oldest {
                            Some(o) if o <= local.serial + 1 => FallbackCause::ChainGap,
                            _ => FallbackCause::Evicted,
                        })
                    }
                }
            } else {
                // The server's serial went backwards within a session —
                // a replayed or broken feed. Resync from its snapshot.
                Plan::Snapshot(FallbackCause::ChainGap)
            }
        }
        Some(_) => Plan::Snapshot(FallbackCause::SessionReset),
        None => Plan::Snapshot(FallbackCause::Initial),
    };
    let session_reset = matches!(plan, Plan::Snapshot(FallbackCause::SessionReset));
    if session_reset {
        state.stats.session_resets += 1;
        state.epoch += 1;
        if rec.is_enabled() {
            rec.count("repo.rrdp_session_resets", 1);
        }
    }

    let emit_sync =
        |net: &Network, kind: RrdpSyncKind, serial: u64, cause: Option<FallbackCause>| {
            let rec = net.recorder();
            if rec.is_enabled() {
                let mut ev = rec
                    .event(net.now(), "repo", "rrdp_sync")
                    .str("host", dir.host())
                    .str("kind", kind.label())
                    .u64("serial", serial);
                if let Some(cause) = cause {
                    ev = ev.str("cause", cause.label());
                }
                ev.emit();
            }
        };

    if let Plan::Unchanged = plan {
        state.stats.unchanged += 1;
        if rec.is_enabled() {
            rec.count("repo.rrdp_unchanged", 1);
        }
        emit_sync(net, RrdpSyncKind::Unchanged, notif.serial, None);
        let local = &state.dirs[dir];
        return Ok((local.outcome(dir), RrdpSyncKind::Unchanged));
    }

    if let Plan::Deltas(refs) = &plan {
        // Apply the chain to a scratch copy; commit only if the result
        // reproduces the notification's content digest. Any failure
        // (withheld, torn, hash mismatch, inconsistent chain) falls
        // through to the snapshot.
        let mut files = state.dirs[dir].files.clone();
        let applied = fetch_and_apply_deltas(
            |reqs| exchange(net, reqs),
            dir,
            notif.session,
            refs,
            &mut files,
        );
        let next = DirState { session: notif.session, serial: notif.serial, files };
        if applied.is_ok() && next.content() == notif.content {
            let n = refs.len();
            state.stats.delta_syncs += 1;
            state.stats.deltas_applied += n as u64;
            if rec.is_enabled() {
                rec.count("repo.rrdp_delta_syncs", 1);
                rec.count("repo.rrdp_deltas_applied", n as u64);
            }
            emit_sync(net, RrdpSyncKind::Deltas(n), notif.serial, None);
            let outcome = next.outcome(dir);
            state.dirs.insert(dir.clone(), next);
            return Ok((outcome, RrdpSyncKind::Deltas(n)));
        }
    }

    let cause = match plan {
        Plan::Snapshot(cause) => cause,
        // The delta path fell through mid-flight.
        _ => FallbackCause::ChainGap,
    };

    // The snapshot document lives at the serial it was *materialised*
    // at, which under a compacting server trails the head. Fetch it
    // there, then bridge forward over the advertised deltas.
    let resps =
        exchange(net, &[RrdpRequest::Snapshot { dir: dir.clone(), serial: notif.snapshot_serial }]);
    let (session, serial, files) = match resps.into_iter().next() {
        Some(RrdpResponse::Snapshot { session, serial, files, .. }) => (session, serial, files),
        Some(RrdpResponse::NotFound { .. }) => return fail(net, state, RrdpError::Withheld),
        Some(_) => return fail(net, state, RrdpError::Corrupt),
        None => return fail(net, state, RrdpError::Unreachable),
    };
    let ok = session == notif.session
        && serial == notif.snapshot_serial
        && serial <= notif.serial
        && snapshot_digest(session, serial, files.iter().map(|(n, b)| (n.as_str(), b.as_slice())))
            == notif.snapshot_hash;
    if !ok {
        return fail(net, state, RrdpError::Corrupt);
    }
    let mut files: BTreeMap<String, (Digest, Vec<u8>)> =
        files.into_iter().map(|(n, b)| (n, (sha256(&b), b))).collect();

    // Bridge deltas: carry the materialised snapshot forward to the
    // notification's head serial. Every bridge serial must be advertised
    // (the server's invariant is that bridge deltas are never evicted),
    // so a missing reference means a lying or torn feed.
    let Some(bridge) = notif.chain_from(notif.snapshot_serial) else {
        return fail(net, state, RrdpError::Corrupt);
    };
    let bridged = bridge.len();
    if let Err(err) =
        fetch_and_apply_deltas(|reqs| exchange(net, reqs), dir, notif.session, &bridge, &mut files)
    {
        return fail(net, state, err);
    }

    let next = DirState { session, serial: notif.serial, files };
    if next.content() != notif.content {
        return fail(net, state, RrdpError::Corrupt);
    }
    let kind = if session_reset { RrdpSyncKind::SessionReset } else { RrdpSyncKind::Snapshot };
    state.stats.snapshot_syncs += 1;
    state.stats.bridge_deltas_applied += bridged as u64;
    match cause {
        FallbackCause::Initial => state.stats.fallback_initial += 1,
        FallbackCause::Evicted => state.stats.fallback_evicted += 1,
        FallbackCause::SessionReset => state.stats.fallback_session_reset += 1,
        FallbackCause::ChainGap => state.stats.fallback_chain_gap += 1,
    }
    if rec.is_enabled() {
        rec.count("repo.rrdp_snapshot_syncs", 1);
        match cause {
            FallbackCause::Initial => rec.count("repo.rrdp_fallback_initial", 1),
            FallbackCause::Evicted => rec.count("repo.rrdp_fallback_history_evicted", 1),
            FallbackCause::SessionReset => {
                rec.count("repo.rrdp_fallback_session_reset", 1);
            }
            FallbackCause::ChainGap => rec.count("repo.rrdp_fallback_chain_gap", 1),
        }
        if bridged > 0 {
            rec.count("repo.rrdp_bridge_deltas_applied", bridged as u64);
        }
    }
    emit_sync(net, kind, notif.serial, Some(cause));
    let outcome = next.outcome(dir);
    state.dirs.insert(dir.clone(), next);
    Ok((outcome, kind))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::sync_dir;
    use crate::pubd::{PubdPolicy, RetentionPolicy, MAX_DELTAS};
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
    fn frames_round_trip() {
        let dir = RepoUri::new("h", &["repo"]);
        for req in [
            RrdpRequest::Notification { dir: dir.clone() },
            RrdpRequest::Snapshot { dir: dir.clone(), serial: 7 },
            RrdpRequest::Delta { dir: dir.clone(), serial: 8 },
        ] {
            assert_eq!(RrdpRequest::from_bytes(&req.to_bytes()).unwrap(), req);
        }
        for resp in [
            RrdpResponse::Notification {
                dir: dir.clone(),
                session: 9,
                serial: 3,
                content: sha256(b"c"),
                snapshot_serial: 2,
                snapshot_hash: sha256(b"s"),
                deltas: vec![DeltaRef { serial: 3, hash: sha256(b"d") }],
            },
            RrdpResponse::Snapshot {
                dir: dir.clone(),
                session: 9,
                serial: 3,
                files: vec![("a".to_owned(), vec![1])],
            },
            RrdpResponse::Delta {
                dir: dir.clone(),
                session: 9,
                serial: 3,
                changes: vec![
                    DeltaChange::Publish { name: "a".to_owned(), bytes: vec![1] },
                    DeltaChange::Withdraw { name: "b".to_owned(), hash: sha256(b"x") },
                ],
            },
            RrdpResponse::NotFound { dir: dir.clone(), serial: Some(4) },
            RrdpResponse::NotFound { dir, serial: None },
        ] {
            assert_eq!(RrdpResponse::from_bytes(&resp.to_bytes()).unwrap(), resp);
        }
    }

    #[test]
    fn rrdp_and_rsync_tags_are_disjoint() {
        use crate::proto::RsyncRequest;
        let dir = RepoUri::new("h", &["repo"]);
        let rrdp = RrdpRequest::Notification { dir: dir.clone() }.to_bytes();
        assert!(RsyncRequest::from_bytes(&rrdp).is_err(), "rsync must reject rrdp frames");
        let rsync = RsyncRequest::List { dir }.to_bytes();
        assert!(RrdpRequest::from_bytes(&rsync).is_err(), "rrdp must reject rsync frames");
    }

    #[test]
    fn first_sync_fetches_snapshot_and_matches_rsync() {
        let (mut net, repos, client, _, dir) = world();
        let mut state = RrdpClientState::new();
        let (out, kind) = rrdp_sync_dir(&mut net, &repos, client, &dir, &mut state, None).unwrap();
        assert_eq!(kind, RrdpSyncKind::Snapshot);
        assert!(out.is_complete());
        let rsync = sync_dir(&mut net, &repos, client, &dir);
        assert_eq!(out, rsync, "RRDP outcome must be byte-identical to a complete rsync sync");
        assert_eq!(state.stats().snapshot_syncs, 1);
        assert_eq!(state.stats().fallback_initial, 1, "cold start is the 'initial' cause");
    }

    #[test]
    fn unchanged_serial_is_a_two_frame_fast_path() {
        let (mut net, repos, client, _, dir) = world();
        let mut state = RrdpClientState::new();
        rrdp_sync_dir(&mut net, &repos, client, &dir, &mut state, None).unwrap();
        let sent_before = net.stats().sent;
        let (out, kind) = rrdp_sync_dir(&mut net, &repos, client, &dir, &mut state, None).unwrap();
        assert_eq!(kind, RrdpSyncKind::Unchanged);
        assert_eq!(net.stats().sent - sent_before, 2, "notification poll only");
        assert!(out.is_complete());
        assert_eq!(state.stats().unchanged, 1);
    }

    #[test]
    fn delta_chain_applies_incrementally() {
        let (mut net, mut repos, client, server, dir) = world();
        let mut state = RrdpClientState::new();
        rrdp_sync_dir(&mut net, &repos, client, &dir, &mut state, None).unwrap();
        let repo = repos.get_mut(server).unwrap();
        repo.publish_raw(&dir, "c.mft", vec![9, 9]);
        repo.delete(&dir, "a.roa");
        let (out, kind) = rrdp_sync_dir(&mut net, &repos, client, &dir, &mut state, None).unwrap();
        assert_eq!(kind, RrdpSyncKind::Deltas(2));
        assert_eq!(out.files.len(), 2);
        assert!(out.files.contains_key("c.mft"));
        assert!(!out.files.contains_key("a.roa"));
        let rsync = sync_dir(&mut net, &repos, client, &dir);
        assert_eq!(out, rsync);
        assert_eq!(state.stats().delta_syncs, 1);
        assert_eq!(state.stats().deltas_applied, 2);
    }

    #[test]
    fn overwrite_and_corruption_travel_as_deltas() {
        let (mut net, mut repos, client, server, dir) = world();
        let mut state = RrdpClientState::new();
        rrdp_sync_dir(&mut net, &repos, client, &dir, &mut state, None).unwrap();
        let repo = repos.get_mut(server).unwrap();
        repo.publish_raw(&dir, "a.roa", vec![7, 7, 7]);
        assert!(repo.corrupt_at_rest(&dir, "b.cer"));
        let (out, kind) = rrdp_sync_dir(&mut net, &repos, client, &dir, &mut state, None).unwrap();
        assert!(matches!(kind, RrdpSyncKind::Deltas(2)));
        assert_eq!(out.files["a.roa"], vec![7, 7, 7]);
        assert_eq!(out.files["b.cer"], vec![4 ^ 0xff, 5], "at-rest rot must travel to the client");
        assert_eq!(out, sync_dir(&mut net, &repos, client, &dir));
    }

    #[test]
    fn deep_history_gap_falls_back_to_snapshot() {
        let (mut net, mut repos, client, server, dir) = world();
        let mut state = RrdpClientState::new();
        rrdp_sync_dir(&mut net, &repos, client, &dir, &mut state, None).unwrap();
        let repo = repos.get_mut(server).unwrap();
        for i in 0..(MAX_DELTAS + 4) {
            repo.publish_raw(&dir, "a.roa", vec![i as u8, 1]);
        }
        let (out, kind) = rrdp_sync_dir(&mut net, &repos, client, &dir, &mut state, None).unwrap();
        assert_eq!(kind, RrdpSyncKind::Snapshot, "history gap must force a snapshot");
        assert_eq!(
            state.stats().fallback_evicted,
            1,
            "falling behind the retained history is the 'history_evicted' cause"
        );
        assert_eq!(state.stats().fallback_chain_gap, 0);
        assert_eq!(out, sync_dir(&mut net, &repos, client, &dir));
    }

    #[test]
    fn session_reset_forces_snapshot_and_bumps_epoch() {
        let (mut net, mut repos, client, server, dir) = world();
        let mut state = RrdpClientState::new();
        rrdp_sync_dir(&mut net, &repos, client, &dir, &mut state, None).unwrap();
        let (old_session, _) = state.position(&dir).unwrap();
        assert_eq!(state.epoch(), 0);
        assert!(repos.get_mut(server).unwrap().rrdp_reset_session(&dir));
        let (out, kind) = rrdp_sync_dir(&mut net, &repos, client, &dir, &mut state, None).unwrap();
        assert_eq!(kind, RrdpSyncKind::SessionReset);
        assert_eq!(state.epoch(), 1);
        assert_eq!(state.stats().session_resets, 1);
        assert_eq!(state.stats().fallback_session_reset, 1);
        let (new_session, new_serial) = state.position(&dir).unwrap();
        assert_ne!(new_session, old_session);
        assert_eq!(new_serial, 1);
        assert_eq!(out, sync_dir(&mut net, &repos, client, &dir));
    }

    #[test]
    fn withheld_deltas_fall_back_to_snapshot() {
        let (mut net, mut repos, client, server, dir) = world();
        let mut state = RrdpClientState::new();
        rrdp_sync_dir(&mut net, &repos, client, &dir, &mut state, None).unwrap();
        let repo = repos.get_mut(server).unwrap();
        repo.publish_raw(&dir, "c.mft", vec![1]);
        repo.set_rrdp_withhold_deltas(true);
        let (out, kind) = rrdp_sync_dir(&mut net, &repos, client, &dir, &mut state, None).unwrap();
        assert_eq!(kind, RrdpSyncKind::Snapshot, "withheld deltas must not stall the client");
        assert!(out.files.contains_key("c.mft"));
        // One serial behind, yet a second full snapshot: the churn the
        // withholding host forces.
        assert_eq!((state.stats().snapshot_syncs, state.stats().delta_syncs), (2, 0));
    }

    #[test]
    fn offline_rrdp_is_withheld() {
        let (mut net, mut repos, client, server, dir) = world();
        repos.get_mut(server).unwrap().set_rrdp_offline(true);
        let mut state = RrdpClientState::new();
        let err = rrdp_sync_dir(&mut net, &repos, client, &dir, &mut state, None).unwrap_err();
        assert_eq!(err, RrdpError::Withheld);
        assert_eq!(state.stats().failures, 1);
        // rsync is unaffected: that is the downgrade path.
        assert!(sync_dir(&mut net, &repos, client, &dir).is_complete());
    }

    #[test]
    fn pinned_feed_serves_the_frozen_view() {
        let (mut net, mut repos, client, server, dir) = world();
        let mut state = RrdpClientState::new();
        rrdp_sync_dir(&mut net, &repos, client, &dir, &mut state, None).unwrap();
        let repo = repos.get_mut(server).unwrap();
        repo.rrdp_pin();
        repo.publish_raw(&dir, "a.roa", vec![8, 8]);
        // RRDP still confirms the stale serial; rsync sees the truth.
        let (out, kind) = rrdp_sync_dir(&mut net, &repos, client, &dir, &mut state, None).unwrap();
        assert_eq!(kind, RrdpSyncKind::Unchanged);
        assert_eq!(out.files["a.roa"], vec![1, 2, 3], "pinned view must hide the write");
        let rsync = sync_dir(&mut net, &repos, client, &dir);
        assert_eq!(rsync.files["a.roa"], vec![8, 8]);
        assert_ne!(out.content, rsync.content, "the lie is visible to a cross-check");
        // A fresh client is also served the frozen snapshot.
        let mut fresh = RrdpClientState::new();
        let (out2, _) = rrdp_sync_dir(&mut net, &repos, client, &dir, &mut fresh, None).unwrap();
        assert_eq!(out2.files["a.roa"], vec![1, 2, 3]);
        // Unpinning heals the feed.
        repos.get_mut(server).unwrap().rrdp_unpin();
        let (out3, _) = rrdp_sync_dir(&mut net, &repos, client, &dir, &mut state, None).unwrap();
        assert_eq!(out3.files["a.roa"], vec![8, 8]);
    }

    #[test]
    fn pinned_log_is_independent_of_the_live_one() {
        // The pin is a copy of the log, not a view of it: the live log
        // may evict every delta the frozen notification advertises and
        // even start a new session, and the frozen feed serves on.
        let (mut net, mut repos, client, server, dir) = world();
        let one_delta = RetentionPolicy::Count { max_deltas: 1 };
        repos
            .get_mut(server)
            .unwrap()
            .set_pubd_policy(PubdPolicy::default().with_retention(one_delta));
        let mut sync = |repos: &RepoRegistry, state: &mut RrdpClientState| {
            rrdp_sync_dir(&mut net, repos, client, &dir, state, None).unwrap()
        };
        let (mut warm, mut lagging, mut fresh) =
            (RrdpClientState::new(), RrdpClientState::new(), RrdpClientState::new());
        sync(&repos, &mut lagging);
        repos.get_mut(server).unwrap().publish_raw(&dir, "c.mft", vec![1]);
        sync(&repos, &mut warm);
        let pinned_at = warm.position(&dir).unwrap();

        let repo = repos.get_mut(server).unwrap();
        repo.rrdp_pin();
        repo.publish_raw(&dir, "a.roa", vec![8]);
        repo.publish_raw(&dir, "a.roa", vec![8, 8]);
        assert_eq!(repo.pubd_work(&dir).unwrap().retained_deltas, 1, "the live log moved on");
        assert!(repo.rrdp_reset_session(&dir));
        let live = repo.rrdp_position(&dir).unwrap();
        assert_ne!(live.0, pinned_at.0);

        // Frozen: the fast path, the advertised (live-evicted) delta,
        // and the snapshot all still answer from pin time.
        assert_eq!(sync(&repos, &mut warm).1, RrdpSyncKind::Unchanged);
        let (out, kind) = sync(&repos, &mut lagging);
        assert_eq!(kind, RrdpSyncKind::Deltas(1));
        assert_eq!((&out.files["a.roa"], &out.files["c.mft"]), (&vec![1, 2, 3], &vec![1]));
        let (out, kind) = sync(&repos, &mut fresh);
        assert_eq!(kind, RrdpSyncKind::Snapshot);
        assert_eq!(out.files["a.roa"], vec![1, 2, 3]);
        for state in [&warm, &lagging, &fresh] {
            assert_eq!(state.position(&dir), Some(pinned_at));
        }

        // Unpinned: all three find the live session.
        repos.get_mut(server).unwrap().rrdp_unpin();
        for state in [&mut warm, &mut lagging, &mut fresh] {
            let (out, kind) = sync(&repos, state);
            assert_eq!(kind, RrdpSyncKind::SessionReset);
            assert_eq!(out.files["a.roa"], vec![8, 8]);
            assert_eq!(state.position(&dir), Some(live));
        }
    }

    #[test]
    fn partition_is_unreachable() {
        let (mut net, repos, client, server, dir) = world();
        net.faults.partition(client, server);
        let mut state = RrdpClientState::new();
        let err = rrdp_sync_dir(&mut net, &repos, client, &dir, &mut state, None).unwrap_err();
        assert_eq!(err, RrdpError::Unreachable);
    }

    #[test]
    fn announced_serial_is_not_walked() {
        // The most significant byte of the notification's serial flipped
        // in flight puts the head 2^63 serials ahead of a warm client.
        // Planning must not walk that gap (it never steps the network,
        // so not even the deadline could interrupt it): no advertised
        // history covers it, so it is a snapshot plan, and the bridge
        // over the same gap is refused as a lying feed.
        let (mut net, mut repos, client, server, dir) = world();
        let mut state = RrdpClientState::new();
        rrdp_sync_dir(&mut net, &repos, client, &dir, &mut state, None).unwrap();
        repos.get_mut(server).unwrap().publish_raw(&dir, "c.mft", vec![9]);
        // Tag, directory, session, then the serial's first byte.
        let serial_high_byte = 1 + dir.to_bytes().len() + 8;
        net.faults.corrupt_nth_at(server, client, 1, serial_high_byte);
        let err = rrdp_sync_dir(&mut net, &repos, client, &dir, &mut state, Some(300)).unwrap_err();
        assert_eq!(err, RrdpError::Corrupt);
        assert_eq!(state.position(&dir).unwrap().1, 2, "a refused feed must not move the client");
        // Over a clean wire the next sync is the ordinary catch-up.
        let (out, kind) = rrdp_sync_dir(&mut net, &repos, client, &dir, &mut state, None).unwrap();
        assert_eq!(kind, RrdpSyncKind::Deltas(1));
        assert_eq!(out, sync_dir(&mut net, &repos, client, &dir));
    }

    #[test]
    fn torn_snapshot_frame_fails_cleanly() {
        let (mut net, repos, client, server, dir) = world();
        // Frame 2 server→client is the snapshot response (frame 1 is
        // the notification).
        net.faults.corrupt_nth(server, client, 2);
        let mut state = RrdpClientState::new();
        let err = rrdp_sync_dir(&mut net, &repos, client, &dir, &mut state, None).unwrap_err();
        assert_eq!(err, RrdpError::Unreachable);
    }

    #[test]
    fn probe_reports_the_servers_claimed_content() {
        let (mut net, mut repos, client, server, dir) = world();
        let probe = rrdp_probe_dir(&mut net, &repos, client, &dir, None);
        assert!(probe.listed);
        let live = sync_dir(&mut net, &repos, client, &dir);
        assert_eq!(probe.digest, live.content);
        // Under a pin the probe repeats the lie — by design.
        let repo = repos.get_mut(server).unwrap();
        repo.rrdp_pin();
        repo.publish_raw(&dir, "a.roa", vec![9]);
        let pinned = rrdp_probe_dir(&mut net, &repos, client, &dir, None);
        assert_eq!(pinned.digest, probe.digest);
        assert_ne!(pinned.digest, sync_dir(&mut net, &repos, client, &dir).content);
    }

    #[test]
    fn session_ids_are_deterministic_and_distinct() {
        let build = || {
            let mut net = Network::new(1);
            let mut repos = RepoRegistry::new();
            let server = repos.create(&mut net, "h");
            let repo = repos.get_mut(server).unwrap();
            let a = RepoUri::new("h", &["repo"]);
            let b = RepoUri::new("h", &["other"]);
            repo.publish_raw(&a, "x", vec![1]);
            repo.publish_raw(&b, "x", vec![1]);
            (repo.rrdp_position(&a).unwrap(), repo.rrdp_position(&b).unwrap())
        };
        let (a1, b1) = build();
        let (a2, b2) = build();
        assert_eq!(a1, a2, "sessions must replay identically");
        assert_eq!(b1, b2);
        assert_ne!(a1.0, b1.0, "distinct publication points get distinct sessions");
    }

    #[test]
    fn compacted_server_serves_snapshot_plus_bridge_deltas() {
        let (mut net, mut repos, client, server, dir) = world();
        let repo = repos.get_mut(server).unwrap();
        repo.set_pubd_policy(PubdPolicy::compacted(4));
        // world() materialised at serial 2 under the default policy;
        // two more writes leave the head at 4 with the snapshot at 2.
        repo.publish_raw(&dir, "c.mft", vec![6]);
        repo.publish_raw(&dir, "d.crl", vec![7]);
        assert_eq!(repo.rrdp_position(&dir).unwrap().1, 4);
        assert_eq!(repo.pubd_work(&dir).unwrap().snapshot_builds, 2, "no build since compaction");
        let mut state = RrdpClientState::new();
        let (out, kind) = rrdp_sync_dir(&mut net, &repos, client, &dir, &mut state, None).unwrap();
        assert_eq!(kind, RrdpSyncKind::Snapshot);
        assert_eq!(
            state.stats().bridge_deltas_applied,
            2,
            "snapshot at 2 plus bridge deltas 3 and 4"
        );
        assert_eq!(out, sync_dir(&mut net, &repos, client, &dir), "bridged state matches rsync");
    }

    #[test]
    fn compaction_materialises_on_the_interval() {
        let (mut net, mut repos, client, server, dir) = world();
        let repo = repos.get_mut(server).unwrap();
        repo.set_pubd_policy(PubdPolicy::compacted(3));
        for i in 0..7u8 {
            repo.publish_raw(&dir, "a.roa", vec![i, i, 1]);
        }
        // Serial 9: materialisations at 2 (pre-policy), 5, and 8.
        let work = repo.pubd_work(&dir).unwrap();
        assert_eq!(work.serials, 9);
        assert_eq!(work.snapshot_builds, 4, "serials 1, 2, then 5 and 8");
        assert_eq!(work.forced_builds, 0);
        let mut state = RrdpClientState::new();
        let (out, _) = rrdp_sync_dir(&mut net, &repos, client, &dir, &mut state, None).unwrap();
        assert_eq!(state.stats().bridge_deltas_applied, 1, "snapshot at 8, bridge to 9");
        assert_eq!(out, sync_dir(&mut net, &repos, client, &dir));
    }

    #[test]
    fn retention_budget_never_evicts_bridge_deltas() {
        let (mut net, mut repos, client, server, dir) = world();
        let repo = repos.get_mut(server).unwrap();
        // A budget of one delta under an interval of 8: every second
        // write would have to evict a bridge delta, forcing a
        // re-materialisation at the head first.
        repo.set_pubd_policy(
            PubdPolicy::compacted(8).with_retention(RetentionPolicy::Count { max_deltas: 1 }),
        );
        for i in 0..6u8 {
            repo.publish_raw(&dir, "a.roa", vec![i, 9]);
        }
        let work = repo.pubd_work(&dir).unwrap();
        assert!(work.forced_builds > 0, "undersized budget must force builds");
        assert!(work.retained_deltas <= 1, "the budget itself still holds");
        let info = repo.rrdp_notification(&dir).unwrap();
        for s in (info.snapshot_serial + 1)..=info.serial {
            assert!(
                info.deltas.iter().any(|d| d.serial == s),
                "bridge delta {s} missing from the advertised history"
            );
        }
        let mut state = RrdpClientState::new();
        let (out, _) = rrdp_sync_dir(&mut net, &repos, client, &dir, &mut state, None).unwrap();
        assert_eq!(out, sync_dir(&mut net, &repos, client, &dir));
    }

    #[test]
    fn byte_budget_starves_a_lagging_client_onto_the_snapshot() {
        let (mut net, mut repos, client, server, dir) = world();
        let mut state = RrdpClientState::new();
        rrdp_sync_dir(&mut net, &repos, client, &dir, &mut state, None).unwrap();
        let repo = repos.get_mut(server).unwrap();
        // Budget of one delta document's worth of bytes: history depth 1.
        repo.set_pubd_policy(
            PubdPolicy::default().with_retention(RetentionPolicy::Bytes { max_bytes: 64 }),
        );
        for i in 0..3u8 {
            repo.publish_raw(&dir, "a.roa", vec![i, 2, 2]);
        }
        let work = repo.pubd_work(&dir).unwrap();
        assert!(work.deltas_evicted > 0, "the byte budget must evict");
        assert!(work.retained_delta_bytes <= 64);
        let (out, kind) = rrdp_sync_dir(&mut net, &repos, client, &dir, &mut state, None).unwrap();
        assert_eq!(kind, RrdpSyncKind::Snapshot);
        assert_eq!(state.stats().fallback_evicted, 1);
        assert_eq!(out, sync_dir(&mut net, &repos, client, &dir));
    }

    #[test]
    fn default_policy_reproduces_the_count_bound() {
        let (_, mut repos, _, server, dir) = world();
        let repo = repos.get_mut(server).unwrap();
        for i in 0..(MAX_DELTAS as u16 + 9) {
            repo.publish_raw(&dir, "a.roa", vec![(i >> 8) as u8, i as u8, 3]);
        }
        let info = repo.rrdp_notification(&dir).unwrap();
        assert_eq!(info.deltas.len(), MAX_DELTAS, "default retention keeps MAX_DELTAS");
        assert_eq!(info.snapshot_serial, info.serial, "default compaction tracks the head");
        let work = repo.pubd_work(&dir).unwrap();
        assert_eq!(work.snapshot_builds, work.serials, "interval 1 builds per write");
        assert_eq!(work.forced_builds, 0);
    }

    #[test]
    fn noop_writes_do_not_advance_the_serial() {
        let (mut net, mut repos, client, server, dir) = world();
        let mut state = RrdpClientState::new();
        rrdp_sync_dir(&mut net, &repos, client, &dir, &mut state, None).unwrap();
        let (_, serial) = state.position(&dir).unwrap();
        let repo = repos.get_mut(server).unwrap();
        repo.publish_raw(&dir, "a.roa", vec![1, 2, 3]); // identical bytes
        assert_eq!(repo.rrdp_position(&dir).unwrap().1, serial, "no-op write, no new serial");
    }
}
