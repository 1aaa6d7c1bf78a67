//! The RPKI-to-Router protocol (RFC 6810-shaped).
//!
//! Validated VRPs are useless until they reach routers; production
//! deployments run the RTR protocol between the relying party's cache
//! and each router. The protocol matters to the paper's story for one
//! reason: it adds *another* stage at which the set of VRPs a router
//! acts on can lag or diverge from repository state — a whacked ROA
//! takes effect at the router only after the next serial, and a router
//! that loses too many updates falls back to a full cache reset.
//!
//! Implemented faithfully at the semantic level:
//!
//! - a [`RtrServer`] owns the session id, a monotonically increasing
//!   **serial**, the current VRP set, and a bounded history of deltas;
//! - a [`RtrClient`] (the router side) issues `ResetQuery` when it has
//!   nothing and `SerialQuery` thereafter, applies announce/withdraw
//!   PDUs, and treats `CacheReset` / session-id changes as a signal to
//!   start over;
//! - clients share their VRP sets: each holds a *version* behind an
//!   `Arc`, and at `EndOfData` a client takes the version another
//!   client already built from the same version by the same change
//!   list, changes its set in place when no one else can see it, or
//!   else copies it once and records the copy for the clients that
//!   follow. Routers that reach one serial by one delta so hold one
//!   set; each keeps its own session, serial and response buffer;
//! - PDUs use the workspace's canonical codec, so they run over
//!   `netsim` and are subject to the same fault model as everything
//!   else.

use std::collections::{BTreeSet, VecDeque};
use std::sync::{Arc, Mutex, OnceLock, Weak};

use rpki_objects::{Decode, DecodeError, Encode, Reader};

use crate::incremental::VrpDelta;
use crate::vrp::{Vrp, VrpCache};

/// RFC 1982 serial-number comparison: is `a` newer than `b`?
///
/// RTR serials are 32-bit and wrap (RFC 6810 §5.3 defers to RFC 1982),
/// so plain `u32` ordering breaks at the wrap boundary: serial `0` is
/// *newer* than serial `u32::MAX`. Two serials are comparable when
/// their distance is under `2^31`; the half-universe ambiguity never
/// arises here because the delta history is far shallower than `2^31`.
pub fn serial_newer(a: u32, b: u32) -> bool {
    a != b && a.wrapping_sub(b) < (1 << 31)
}

/// How many serial increments lead from `from` to `to`, wrapping.
/// Meaningful when `to` is not older than `from` (RFC 1982 terms).
pub fn serial_distance(from: u32, to: u32) -> u32 {
    to.wrapping_sub(from)
}

/// One unit of new data for [`RtrServer::publish`]: either a complete
/// VRP snapshot (the server diffs it against its current set) or a
/// pre-computed [`VrpDelta`] from an incremental validation run
/// (applied in O(delta) without touching the rest of the set).
#[derive(Debug, Clone)]
pub enum VrpUpdate<'a> {
    /// A full validated VRP set, e.g. [`ValidationRun::vrps`]
    /// (duplicates collapse).
    ///
    /// [`ValidationRun::vrps`]: crate::validation::ValidationRun::vrps
    Snapshot(BTreeSet<Vrp>),
    /// An announce/withdraw delta against the previous run, e.g.
    /// [`ValidationState::last_delta`].
    ///
    /// [`ValidationState::last_delta`]: crate::incremental::ValidationState::last_delta
    Delta(&'a VrpDelta),
}

impl VrpUpdate<'_> {
    /// A snapshot update from any VRP iterator.
    pub fn snapshot<I: IntoIterator<Item = Vrp>>(vrps: I) -> Self {
        VrpUpdate::Snapshot(vrps.into_iter().collect())
    }
}

impl<'a> From<&'a VrpDelta> for VrpUpdate<'a> {
    fn from(delta: &'a VrpDelta) -> Self {
        VrpUpdate::Delta(delta)
    }
}

/// One VRP change: announced (`true`) or withdrawn (`false`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delta {
    /// The payload.
    pub vrp: Vrp,
    /// `true` = announce, `false` = withdraw.
    pub announce: bool,
}

/// RTR protocol data units (the RFC 6810 set, minus transport-security
/// PDUs that have no analogue in the simulator).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtrPdu {
    /// Server → client: "I have new data" (sent after each update).
    SerialNotify {
        /// Current session.
        session: u16,
        /// The server's new serial.
        serial: u32,
    },
    /// Client → server: "send me deltas after `serial`".
    SerialQuery {
        /// The client's session (must match the server's).
        session: u16,
        /// The last serial the client applied.
        serial: u32,
    },
    /// Client → server: "send me everything".
    ResetQuery,
    /// Server → client: header opening a response.
    CacheResponse {
        /// The server's session.
        session: u16,
    },
    /// Server → client: one VRP change.
    Prefix(Delta),
    /// Server → client: response complete; client is now at `serial`.
    EndOfData {
        /// The session.
        session: u16,
        /// The serial the client has now reached.
        serial: u32,
    },
    /// Server → client: "I cannot serve deltas from your serial; issue
    /// a ResetQuery."
    CacheReset,
    /// Either direction: protocol error (the simulator treats these as
    /// fatal to the session).
    ErrorReport {
        /// Numeric error code (RFC 6810 §10 style; only a few used).
        code: u16,
    },
}

const PDU_SERIAL_NOTIFY: u8 = 0;
const PDU_SERIAL_QUERY: u8 = 1;
const PDU_RESET_QUERY: u8 = 2;
const PDU_CACHE_RESPONSE: u8 = 3;
const PDU_PREFIX: u8 = 4;
const PDU_END_OF_DATA: u8 = 7;
const PDU_CACHE_RESET: u8 = 8;
const PDU_ERROR: u8 = 10;

impl RtrPdu {
    /// The exact length of this PDU's encoding, so a frame can be
    /// allocated once at its final size.
    pub(crate) fn encoded_len(&self) -> usize {
        const SESSION_SERIAL: usize = size_of::<u16>() + size_of::<u32>();
        // Announce flag; prefix as family, address and length; max
        // length; origin AS.
        const VRP_CHANGE: usize = 1 + (1 + size_of::<u128>() + 1) + 1 + size_of::<u32>();
        1 + match self {
            RtrPdu::SerialNotify { .. } | RtrPdu::SerialQuery { .. } | RtrPdu::EndOfData { .. } => {
                SESSION_SERIAL
            }
            RtrPdu::CacheResponse { .. } | RtrPdu::ErrorReport { .. } => size_of::<u16>(),
            RtrPdu::Prefix(_) => VRP_CHANGE,
            RtrPdu::ResetQuery | RtrPdu::CacheReset => 0,
        }
    }
}

impl Encode for RtrPdu {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RtrPdu::SerialNotify { session, serial } => {
                out.push(PDU_SERIAL_NOTIFY);
                session.encode(out);
                serial.encode(out);
            }
            RtrPdu::SerialQuery { session, serial } => {
                out.push(PDU_SERIAL_QUERY);
                session.encode(out);
                serial.encode(out);
            }
            RtrPdu::ResetQuery => out.push(PDU_RESET_QUERY),
            RtrPdu::CacheResponse { session } => {
                out.push(PDU_CACHE_RESPONSE);
                session.encode(out);
            }
            RtrPdu::Prefix(delta) => {
                out.push(PDU_PREFIX);
                out.push(delta.announce as u8);
                delta.vrp.prefix.encode(out);
                out.push(delta.vrp.max_len);
                delta.vrp.asn.encode(out);
            }
            RtrPdu::EndOfData { session, serial } => {
                out.push(PDU_END_OF_DATA);
                session.encode(out);
                serial.encode(out);
            }
            RtrPdu::CacheReset => out.push(PDU_CACHE_RESET),
            RtrPdu::ErrorReport { code } => {
                out.push(PDU_ERROR);
                code.encode(out);
            }
        }
    }
}

impl Decode for RtrPdu {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            PDU_SERIAL_NOTIFY => Ok(RtrPdu::SerialNotify { session: r.u16()?, serial: r.u32()? }),
            PDU_SERIAL_QUERY => Ok(RtrPdu::SerialQuery { session: r.u16()?, serial: r.u32()? }),
            PDU_RESET_QUERY => Ok(RtrPdu::ResetQuery),
            PDU_CACHE_RESPONSE => Ok(RtrPdu::CacheResponse { session: r.u16()? }),
            PDU_PREFIX => {
                let announce = match r.u8()? {
                    0 => false,
                    1 => true,
                    t => return Err(DecodeError::BadTag(t)),
                };
                let prefix = ipres::Prefix::decode(r)?;
                let max_len = r.u8()?;
                let asn = ipres::Asn::decode(r)?;
                if max_len < prefix.len() || max_len > prefix.family().bits() {
                    return Err(DecodeError::Invalid("RTR prefix maxLength out of range"));
                }
                Ok(RtrPdu::Prefix(Delta { vrp: Vrp::new(prefix, max_len, asn), announce }))
            }
            PDU_END_OF_DATA => Ok(RtrPdu::EndOfData { session: r.u16()?, serial: r.u32()? }),
            PDU_CACHE_RESET => Ok(RtrPdu::CacheReset),
            PDU_ERROR => Ok(RtrPdu::ErrorReport { code: r.u16()? }),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

/// The cache side of the protocol.
#[derive(Debug)]
pub struct RtrServer {
    session: u16,
    serial: u32,
    current: BTreeSet<Vrp>,
    /// `(serial reached, deltas that got there)`, oldest first.
    history: VecDeque<(u32, Vec<Delta>)>,
    max_history: usize,
}

impl RtrServer {
    /// A server with the given session id and delta-history depth.
    pub fn new(session: u16, max_history: usize) -> Self {
        RtrServer::new_at(session, max_history, 0)
    }

    /// A server whose serial counter starts at `serial` — for resuming
    /// a persisted session, and for exercising the RFC 1982 wrap
    /// boundary (start near `u32::MAX` and publish across it).
    pub fn new_at(session: u16, max_history: usize, serial: u32) -> Self {
        RtrServer {
            session,
            serial,
            current: BTreeSet::new(),
            history: VecDeque::new(),
            max_history,
        }
    }

    /// The current serial.
    pub fn serial(&self) -> u32 {
        self.serial
    }

    /// The session id.
    pub fn session(&self) -> u16 {
        self.session
    }

    /// Publishes new data: the one entry point for feeding the server.
    ///
    /// A [`VrpUpdate::Snapshot`] is diffed against the current set (the
    /// post-validation path); a [`VrpUpdate::Delta`] is applied change
    /// by change in O(delta) (the incremental path), with no-ops
    /// against the current set (already-announced VRPs, withdrawals of
    /// absent VRPs) skipped. Either way the server bumps its serial
    /// (wrapping, per RFC 1982), records the effective changes in the
    /// bounded delta history, and returns the `SerialNotify` to
    /// broadcast — or `None` if nothing effectively changed.
    pub fn publish(&mut self, update: VrpUpdate<'_>) -> Option<RtrPdu> {
        let changes: Vec<Delta> = match update {
            VrpUpdate::Snapshot(new) => {
                let mut delta: Vec<Delta> = Vec::new();
                for &v in new.difference(&self.current) {
                    delta.push(Delta { vrp: v, announce: true });
                }
                for &v in self.current.difference(&new) {
                    delta.push(Delta { vrp: v, announce: false });
                }
                if !delta.is_empty() {
                    self.current = new;
                }
                delta
            }
            VrpUpdate::Delta(delta) => {
                let mut changes: Vec<Delta> = Vec::new();
                for &vrp in &delta.announce {
                    if self.current.insert(vrp) {
                        changes.push(Delta { vrp, announce: true });
                    }
                }
                for vrp in &delta.withdraw {
                    if self.current.remove(vrp) {
                        changes.push(Delta { vrp: *vrp, announce: false });
                    }
                }
                changes
            }
        };
        if changes.is_empty() {
            return None;
        }
        self.serial = self.serial.wrapping_add(1);
        self.history.push_back((self.serial, changes));
        while self.history.len() > self.max_history {
            self.history.pop_front();
        }
        Some(RtrPdu::SerialNotify { session: self.session, serial: self.serial })
    }

    /// Starts a new RTR session: new session id, serial restarted at 0,
    /// delta history cleared. The current VRP set is retained — only
    /// the *continuity story* is gone. Call this when the upstream data
    /// source loses its own continuity (an RRDP session reset, tracked
    /// by `RrdpClientState::epoch`): a connected router's next
    /// `SerialQuery` carries the old session id, gets `CacheReset`, and
    /// resynchronises from scratch instead of trusting a serial bump
    /// that no longer means "delta from what you have".
    pub fn reset_session(&mut self, session: u16) {
        self.session = session;
        self.serial = 0;
        self.history.clear();
    }

    /// The server's current VRP set, sorted.
    pub fn vrps(&self) -> Vec<Vrp> {
        self.current.iter().copied().collect()
    }

    /// Handles one client PDU, producing the response PDU sequence.
    pub fn handle(&self, pdu: &RtrPdu) -> Vec<RtrPdu> {
        match pdu {
            RtrPdu::ResetQuery => self.response(
                self.current.len(),
                self.current.iter().map(|&vrp| Delta { vrp, announce: true }),
            ),
            RtrPdu::SerialQuery { session, serial } => {
                if *session != self.session {
                    // Session mismatch: the client must start over.
                    return vec![RtrPdu::CacheReset];
                }
                if *serial == self.serial {
                    // Nothing new.
                    return self.response(0, std::iter::empty());
                }
                if serial_newer(*serial, self.serial) {
                    // The client claims a future serial: its state is
                    // not one this session produced. Start over.
                    return vec![RtrPdu::CacheReset];
                }
                // Can we replay from the client's serial? We need every
                // delta newer than the client's serial, contiguously.
                // All comparisons are RFC 1982 (wrapping): the history
                // may straddle the u32 wrap boundary.
                let available = || self.history.iter().filter(|(s, _)| serial_newer(*s, *serial));
                let (serials, changes) = available()
                    .fold((0u32, 0), |(n, len), (_, deltas)| (n + 1, len + deltas.len()));
                let contiguous =
                    available().next().is_some_and(|(s, _)| *s == serial.wrapping_add(1))
                        && serials == serial_distance(*serial, self.serial);
                if !contiguous {
                    return vec![RtrPdu::CacheReset];
                }
                self.response(changes, available().flat_map(|(_, deltas)| deltas.iter().copied()))
            }
            _ => vec![RtrPdu::ErrorReport { code: 3 /* invalid request */ }],
        }
    }

    /// `CacheResponse`, the `len` changes, `EndOfData`: allocated once.
    fn response(&self, len: usize, changes: impl Iterator<Item = Delta>) -> Vec<RtrPdu> {
        let mut out = Vec::with_capacity(len + 2);
        out.push(RtrPdu::CacheResponse { session: self.session });
        out.extend(changes.map(RtrPdu::Prefix));
        out.push(RtrPdu::EndOfData { session: self.session, serial: self.serial });
        out
    }
}

/// Whether a completed response can replace `held` in one bulk build:
/// `held` is empty and the changes are strictly ascending announcements,
/// which is how a Reset Query (or the first sync) is answered.
fn builds_in_bulk(held: &BTreeSet<Vrp>, changes: &[Delta]) -> bool {
    held.is_empty()
        && changes.iter().all(|d| d.announce)
        && changes.windows(2).all(|w| w[0].vrp < w[1].vrp)
}

/// Applies a completed response's changes to the router's set: in bulk
/// when [`builds_in_bulk`] allows it, change by change otherwise.
fn apply(held: &mut BTreeSet<Vrp>, changes: &[Delta]) {
    if builds_in_bulk(held, changes) {
        *held = changes.iter().map(|d| d.vrp).collect();
        return;
    }
    for d in changes {
        if d.announce {
            held.insert(d.vrp);
        } else {
            held.remove(&d.vrp);
        }
    }
}

/// One version of a router's VRP set, shared by every client that
/// holds it. Its set never changes while another client or a
/// [`Successor`] can see it: only a sole holder (`Arc::get_mut`)
/// applies in place.
#[derive(Default)]
struct Version {
    set: BTreeSet<Vrp>,
    /// The versions other clients built from this one, one per distinct
    /// change list. Each stays valid while this set is unchanged, so an
    /// in-place apply clears them.
    successors: Mutex<Vec<Successor>>,
}

/// A version built from another by one change list.
struct Successor {
    changes: Vec<Delta>,
    result: Weak<Version>,
}

impl Version {
    /// The version every fresh or reset client starts at: one per
    /// process, so the first full sync is shared too. The static holds
    /// it, so no client is ever its sole holder.
    fn empty() -> Arc<Version> {
        static EMPTY: OnceLock<Arc<Version>> = OnceLock::new();
        EMPTY.get_or_init(Arc::default).clone()
    }
}

/// The live version recorded as `changes` applied to the version that
/// owns `successors`.
fn recorded(successors: &[Successor], changes: &[Delta]) -> Option<Arc<Version>> {
    successors.iter().find_map(|s| s.result.upgrade().filter(|_| s.changes == changes))
}

/// Moves `held` to the version `changes` lead to: the successor another
/// client recorded for the same change list if it is still held, else
/// the same set changed in place if this client is its sole holder,
/// else a copy, recorded for the clients that follow. The lock is held
/// across the copy, so clients on one version copy once per distinct
/// change list.
fn advance(held: &mut Arc<Version>, changes: &[Delta]) {
    let next = match Arc::get_mut(held) {
        Some(sole) => {
            let successors = sole.successors.get_mut().expect("successor lock poisoned");
            match recorded(successors, changes) {
                Some(next) => next,
                None => {
                    successors.clear();
                    apply(&mut sole.set, changes);
                    return;
                }
            }
        }
        None => {
            let mut successors = held.successors.lock().expect("successor lock poisoned");
            recorded(&successors, changes).unwrap_or_else(|| {
                let mut set = held.set.clone();
                apply(&mut set, changes);
                let next = Arc::new(Version { set, successors: Mutex::default() });
                successors.retain(|s| s.result.strong_count() > 0);
                successors
                    .push(Successor { changes: changes.to_vec(), result: Arc::downgrade(&next) });
                next
            })
        }
    };
    *held = next;
}

/// The most changes whose buffer a client keeps for its next response:
/// room for a delta, while a full sync's set-sized buffer is freed
/// rather than kept by every router.
const KEPT_CHANGES: usize = 64;

/// The router side of the protocol.
pub struct RtrClient {
    session: Option<u16>,
    serial: u32,
    vrps: Arc<Version>,
    /// Deltas buffered between `CacheResponse` and `EndOfData` (applied
    /// atomically, per the RFC); one buffer reused across responses.
    pending: Vec<Delta>,
    /// Whether a `CacheResponse` opened a response not yet closed.
    open: bool,
}

impl Default for RtrClient {
    fn default() -> Self {
        RtrClient {
            session: None,
            serial: 0,
            vrps: Version::empty(),
            pending: Vec::new(),
            open: false,
        }
    }
}

impl std::fmt::Debug for RtrClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RtrClient")
            .field("session", &self.session)
            .field("serial", &self.serial)
            .field("vrps", &self.vrps.set)
            .field("pending", &self.open.then_some(&self.pending))
            .finish()
    }
}

/// What the client wants to do next after processing PDUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientAction {
    /// Nothing; wait for the next notify/poll interval.
    Idle,
    /// Send this query to the server.
    Query,
    /// Session invalid: clear state and send `ResetQuery`.
    Reset,
}

impl RtrClient {
    /// A fresh client with no data.
    pub fn new() -> Self {
        RtrClient::default()
    }

    /// The serial this client has applied.
    pub fn serial(&self) -> u32 {
        self.serial
    }

    /// The established session id, if any.
    pub fn session(&self) -> Option<u16> {
        self.session
    }

    /// The router's current VRPs as a sorted set (cheap; building a
    /// queryable [`VrpCache`] via [`cache`](RtrClient::cache) is the
    /// expensive form).
    pub fn vrp_set(&self) -> &BTreeSet<Vrp> {
        &self.vrps.set
    }

    /// The PDU to send when polling the server.
    pub fn poll(&self) -> RtrPdu {
        match self.session {
            Some(session) => RtrPdu::SerialQuery { session, serial: self.serial },
            None => RtrPdu::ResetQuery,
        }
    }

    /// Processes one server PDU; returns what to do next.
    pub fn handle(&mut self, pdu: &RtrPdu) -> ClientAction {
        match pdu {
            RtrPdu::SerialNotify { session, serial } => {
                if Some(*session) != self.session || serial_newer(*serial, self.serial) {
                    ClientAction::Query
                } else {
                    ClientAction::Idle
                }
            }
            RtrPdu::CacheResponse { session } => {
                match self.session {
                    Some(s) if s != *session => {
                        // Session changed under us: restart.
                        self.restart();
                        return ClientAction::Reset;
                    }
                    _ => {}
                }
                if self.session.is_none() {
                    // Response to our ResetQuery establishes the
                    // session; the full set replaces everything.
                    self.session = Some(*session);
                    self.vrps = Version::empty();
                }
                self.pending.clear();
                self.open = true;
                ClientAction::Idle
            }
            RtrPdu::Prefix(delta) => {
                if self.open {
                    self.pending.push(*delta);
                }
                ClientAction::Idle
            }
            RtrPdu::EndOfData { session, serial } => {
                if Some(*session) != self.session {
                    return ClientAction::Reset;
                }
                // An `EndOfData` that closes no open response means the
                // `CacheResponse` was lost and the prefixes after it
                // were ignored: taking its serial would leave the old
                // set at the new serial for good. Ask again from the
                // serial really held.
                if !std::mem::take(&mut self.open) {
                    return ClientAction::Query;
                }
                advance(&mut self.vrps, &self.pending);
                if self.pending.capacity() > KEPT_CHANGES {
                    self.pending = Vec::new();
                }
                self.serial = *serial;
                ClientAction::Idle
            }
            RtrPdu::CacheReset => {
                self.restart();
                ClientAction::Reset
            }
            RtrPdu::ErrorReport { .. } => ClientAction::Reset,
            RtrPdu::SerialQuery { .. } | RtrPdu::ResetQuery => ClientAction::Idle,
        }
    }

    /// Forgets the session and the set, back at the shared empty
    /// version; an open response is dropped.
    fn restart(&mut self) {
        self.session = None;
        self.serial = 0;
        self.vrps = Version::empty();
        self.open = false;
    }

    /// The router's current VRPs as a queryable cache.
    pub fn cache(&self) -> VrpCache {
        self.vrps.set.iter().copied().collect()
    }

    /// Number of VRPs the router holds.
    pub fn len(&self) -> usize {
        self.vrps.set.len()
    }

    /// Whether the router holds no VRPs.
    pub fn is_empty(&self) -> bool {
        self.vrps.set.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipres::{Asn, Prefix};

    fn v(s: &str, max: u8, asn: u32) -> Vrp {
        Vrp::new(s.parse::<Prefix>().unwrap(), max, Asn(asn))
    }

    fn sample() -> Vec<Vrp> {
        vec![v("10.0.0.0/16", 24, 1), v("10.1.0.0/16", 16, 2), v("2001:db8::/32", 48, 3)]
    }

    /// The direct-call sync the deprecated `poll_cycle` helper used to
    /// provide: query, answer, apply, retrying on reset. Tests here
    /// exercise the state machines in isolation; the framed transport
    /// lives in `fabric`.
    fn sync(client: &mut RtrClient, server: &RtrServer) -> usize {
        let mut exchanged = 0;
        for _ in 0..3 {
            let query = client.poll();
            exchanged += 1;
            let mut reset = false;
            for pdu in server.handle(&query) {
                exchanged += 1;
                if client.handle(&pdu) == ClientAction::Reset {
                    reset = true;
                }
            }
            if !reset {
                break;
            }
        }
        exchanged
    }

    fn publish(server: &mut RtrServer, vrps: Vec<Vrp>) -> Option<RtrPdu> {
        server.publish(VrpUpdate::snapshot(vrps))
    }

    #[test]
    fn pdus_round_trip() {
        for pdu in [
            RtrPdu::SerialNotify { session: 7, serial: 42 },
            RtrPdu::SerialQuery { session: 7, serial: 41 },
            RtrPdu::ResetQuery,
            RtrPdu::CacheResponse { session: 7 },
            RtrPdu::Prefix(Delta { vrp: v("10.0.0.0/16", 24, 1), announce: true }),
            RtrPdu::Prefix(Delta { vrp: v("2001:db8::/32", 48, 3), announce: false }),
            RtrPdu::EndOfData { session: 7, serial: 42 },
            RtrPdu::CacheReset,
            RtrPdu::ErrorReport { code: 3 },
        ] {
            assert_eq!(RtrPdu::from_bytes(&pdu.to_bytes()).unwrap(), pdu);
            assert_eq!(pdu.encoded_len(), pdu.to_bytes().len(), "{pdu:?}");
        }
    }

    #[test]
    fn corrupted_pdu_rejected() {
        let pdu = RtrPdu::Prefix(Delta { vrp: v("10.0.0.0/16", 24, 1), announce: true });
        let mut bytes = pdu.to_bytes();
        bytes[1] = 9; // bad announce flag
        assert!(RtrPdu::from_bytes(&bytes).is_err());
    }

    #[test]
    fn full_sync_from_reset() {
        let mut server = RtrServer::new(1, 8);
        assert!(publish(&mut server, sample()).is_some());
        let mut client = RtrClient::new();
        let n = sync(&mut client, &server);
        assert!(n >= 5); // query + response + 3 prefixes + EOD
        assert_eq!(client.len(), 3);
        assert_eq!(client.serial(), server.serial());
        assert_eq!(client.cache().vrps(), server.current.iter().copied().collect::<Vec<_>>());
    }

    #[test]
    fn incremental_sync_sends_only_deltas() {
        let mut server = RtrServer::new(1, 8);
        publish(&mut server, sample());
        let mut client = RtrClient::new();
        sync(&mut client, &server);

        // One VRP replaced by another.
        let mut vrps = sample();
        vrps.remove(0);
        vrps.push(v("10.9.0.0/16", 16, 9));
        let notify = publish(&mut server, vrps.clone()).expect("changed");
        assert_eq!(notify, RtrPdu::SerialNotify { session: 1, serial: 2 });

        let query = client.poll();
        let response = server.handle(&query);
        // CacheResponse + 2 deltas + EndOfData.
        assert_eq!(response.len(), 4);
        let prefix_count = response.iter().filter(|p| matches!(p, RtrPdu::Prefix(_))).count();
        assert_eq!(prefix_count, 2);
        for pdu in &response {
            client.handle(pdu);
        }
        assert_eq!(client.serial(), 2);
        let mut want = vrps;
        want.sort_unstable();
        assert_eq!(client.cache().vrps(), want);
    }

    #[test]
    fn apply_delta_matches_snapshot_update() {
        use crate::incremental::VrpDelta;

        // Two servers driven by the same changes: one with full
        // snapshots, one with deltas. They must agree serial by serial.
        let mut by_snapshot = RtrServer::new(1, 8);
        let mut by_delta = RtrServer::new(1, 8);
        let mut prev: Vec<Vrp> = Vec::new();
        let updates = [
            sample(),
            {
                let mut s = sample();
                s.remove(0);
                s.push(v("10.9.0.0/16", 16, 9));
                s
            },
            {
                let mut s = sample();
                s.remove(0);
                s
            },
        ];
        for update in updates {
            let mut sorted = update.clone();
            sorted.sort_unstable();
            sorted.dedup();
            let delta = VrpDelta::between(&prev, &sorted);
            let a = by_snapshot.publish(VrpUpdate::snapshot(update));
            let b = by_delta.publish(VrpUpdate::Delta(&delta));
            assert_eq!(a, b);
            assert_eq!(by_snapshot.vrps(), by_delta.vrps());
            assert_eq!(by_snapshot.serial(), by_delta.serial());
            prev = sorted;
        }
        // An empty delta must not bump the serial.
        assert!(by_delta.publish(VrpUpdate::Delta(&VrpDelta::default())).is_none());
        // A delta-fed server serves clients exactly like a snapshot one.
        let mut client = RtrClient::new();
        sync(&mut client, &by_delta);
        assert_eq!(client.cache().vrps(), by_delta.vrps());
    }

    #[test]
    fn no_change_no_serial_bump() {
        let mut server = RtrServer::new(1, 8);
        publish(&mut server, sample());
        assert!(publish(&mut server, sample()).is_none());
        assert_eq!(server.serial(), 1);
    }

    #[test]
    fn history_eviction_forces_cache_reset() {
        let mut server = RtrServer::new(1, 2); // only 2 deltas retained
        publish(&mut server, sample());
        let mut client = RtrClient::new();
        sync(&mut client, &server);
        assert_eq!(client.serial(), 1);

        // Four more updates: the client's serial falls off the history.
        for i in 0..4u32 {
            let mut vrps = sample();
            vrps.push(v("10.9.0.0/16", 16, 100 + i));
            publish(&mut server, vrps);
            // (each update replaces the previous extra VRP)
        }
        let response = server.handle(&client.poll());
        assert_eq!(response, vec![RtrPdu::CacheReset]);
        // The poll cycle recovers via reset.
        sync(&mut client, &server);
        assert_eq!(client.serial(), server.serial());
        assert_eq!(client.cache().vrps(), server.current.iter().copied().collect::<Vec<_>>());
    }

    #[test]
    fn reset_session_forces_cache_reset_not_a_serial_bump() {
        let mut server = RtrServer::new(1, 8);
        publish(&mut server, sample());
        let mut client = RtrClient::new();
        sync(&mut client, &server);
        assert_eq!(client.serial(), server.serial());
        // Upstream continuity lost (e.g. an RRDP session reset): the
        // server starts a new RTR session over the same VRP set.
        server.reset_session(2);
        assert_eq!(server.session(), 2);
        assert_eq!(server.serial(), 0);
        // The client's stale-session query must be answered CacheReset,
        // never a quiet delta.
        let response = server.handle(&client.poll());
        assert_eq!(response, vec![RtrPdu::CacheReset]);
        // And the poll cycle reconverges from scratch.
        sync(&mut client, &server);
        assert_eq!(client.serial(), 0);
        assert_eq!(client.cache().vrps(), server.vrps());
        assert_eq!(client.len(), 3);
    }

    #[test]
    fn session_change_resets_client() {
        let mut server = RtrServer::new(1, 8);
        publish(&mut server, sample());
        let mut client = RtrClient::new();
        sync(&mut client, &server);

        // The cache restarts with a new session id (e.g. RP rebooted).
        let mut server2 = RtrServer::new(2, 8);
        publish(&mut server2, vec![v("10.0.0.0/16", 24, 1)]);
        sync(&mut client, &server2);
        assert_eq!(client.serial(), server2.serial());
        assert_eq!(client.len(), 1);
    }

    #[test]
    fn deltas_apply_atomically_at_end_of_data() {
        let mut server = RtrServer::new(1, 8);
        publish(&mut server, sample());
        let mut client = RtrClient::new();
        // Feed the response but stop before EndOfData: nothing applied.
        let response = server.handle(&client.poll());
        for pdu in &response[..response.len() - 1] {
            client.handle(pdu);
        }
        assert_eq!(client.len(), 0, "deltas must not apply before EndOfData");
        client.handle(response.last().unwrap());
        assert_eq!(client.len(), 3);

        // At EndOfData a response landing on an empty set is built in
        // bulk only when it is strictly ascending announcements; every
        // shape gives the set that applying PDU by PDU gives.
        let (a, b) = (v("10.0.0.0/16", 24, 1), v("10.1.0.0/16", 16, 2));
        let change = |vrp, announce| Delta { vrp, announce };
        let reset: Vec<Delta> = response
            .iter()
            .filter_map(|pdu| match pdu {
                RtrPdu::Prefix(d) => Some(*d),
                _ => None,
            })
            .collect();
        for (changes, bulk) in [
            (reset, true),
            (vec![change(a, true), change(b, true), change(a, false)], false),
            (vec![change(a, true), change(a, true), change(b, true)], false),
        ] {
            assert_eq!(builds_in_bulk(&BTreeSet::new(), &changes), bulk, "{changes:?}");
            let mut one_by_one = BTreeSet::new();
            for d in &changes {
                if d.announce {
                    one_by_one.insert(d.vrp);
                } else {
                    one_by_one.remove(&d.vrp);
                }
            }
            let mut client = RtrClient::new();
            client.handle(&RtrPdu::CacheResponse { session: 1 });
            for &d in &changes {
                client.handle(&RtrPdu::Prefix(d));
            }
            client.handle(&RtrPdu::EndOfData { session: 1, serial: 1 });
            assert_eq!(client.vrp_set(), &one_by_one, "{changes:?}");
        }
    }

    /// A delta response whose `CacheResponse` was lost: the prefixes are
    /// ignored, so its `EndOfData` must not advance the serial — the
    /// next poll would be answered "nothing new" and the router would
    /// hold the old set at the new serial for good.
    #[test]
    fn end_of_data_without_an_open_response_keeps_the_serial() {
        let mut server = RtrServer::new(1, 8);
        publish(&mut server, sample());
        let mut client = RtrClient::new();
        sync(&mut client, &server);
        let held = client.serial();

        let mut vrps = sample();
        vrps.push(v("10.9.0.0/16", 16, 9));
        publish(&mut server, vrps);
        let response = server.handle(&client.poll());
        assert!(matches!(response[0], RtrPdu::CacheResponse { .. }));
        let (end, prefixes) = response[1..].split_last().expect("delta and EndOfData");
        for pdu in prefixes {
            assert_eq!(client.handle(pdu), ClientAction::Idle);
        }
        assert_eq!(client.handle(end), ClientAction::Query);
        assert_eq!(client.serial(), held, "no response was open: the serial must not move");
        assert_eq!(client.len(), 3);

        // The re-ask from the serial really held gets the delta.
        sync(&mut client, &server);
        assert_eq!(client.serial(), server.serial());
        assert_eq!(client.cache().vrps(), server.vrps());
    }

    #[test]
    fn serial_notify_prompts_query_only_when_behind() {
        let mut server = RtrServer::new(1, 8);
        publish(&mut server, sample());
        let mut client = RtrClient::new();
        sync(&mut client, &server);
        // In-sync notify: idle.
        let notify = RtrPdu::SerialNotify { session: 1, serial: server.serial() };
        assert_eq!(client.handle(&notify), ClientAction::Idle);
        // Ahead notify: query.
        let notify = RtrPdu::SerialNotify { session: 1, serial: server.serial() + 1 };
        assert_eq!(client.handle(&notify), ClientAction::Query);
    }

    /// End to end over the simulated network with a dropped frame: the
    /// router simply retries its poll on the next cycle.
    #[test]
    fn rtr_over_netsim_with_loss() {
        use netsim::{Network, Occurrence};
        use rpki_objects::{Decode as _, Encode as _};

        let mut net = Network::new(4);
        let cache_node = net.add_node("rp-cache");
        let router_node = net.add_node("router");

        let mut server = RtrServer::new(9, 8);
        publish(&mut server, sample());
        let mut client = RtrClient::new();

        // Drop the first server→router frame (the CacheResponse).
        net.faults.drop_nth(cache_node, router_node, 1);

        for _attempt in 0..3 {
            net.send(router_node, cache_node, client.poll().to_bytes());
            while let Some(occ) = net.step() {
                let Occurrence::Delivered(d) = occ else { continue };
                if d.to == cache_node {
                    if let Ok(pdu) = RtrPdu::from_bytes(&d.payload) {
                        for resp in server.handle(&pdu) {
                            net.send(cache_node, router_node, resp.to_bytes());
                        }
                    }
                } else if let Ok(pdu) = RtrPdu::from_bytes(&d.payload) {
                    client.handle(&pdu);
                }
            }
            if client.serial() == server.serial() && !client.is_empty() {
                break;
            }
        }
        assert_eq!(client.len(), 3);
        assert_eq!(client.serial(), server.serial());
    }

    /// `n` clients in session 1 at serial 1, all on one version of
    /// `base` that no other client in the process can reach.
    fn clients_on(base: &BTreeSet<Vrp>, n: usize) -> Vec<RtrClient> {
        let version = Arc::new(Version { set: base.clone(), successors: Mutex::default() });
        (0..n)
            .map(|_| RtrClient {
                session: Some(1),
                serial: 1,
                vrps: version.clone(),
                ..RtrClient::default()
            })
            .collect()
    }

    /// Delivers one complete delta response carrying `changes`.
    fn respond(client: &mut RtrClient, changes: &[Delta]) {
        let serial = client.serial() + 1;
        client.handle(&RtrPdu::CacheResponse { session: 1 });
        for &d in changes {
            client.handle(&RtrPdu::Prefix(d));
        }
        assert_eq!(client.handle(&RtrPdu::EndOfData { session: 1, serial }), ClientAction::Idle);
    }

    /// `set` with `changes` applied one by one: the unshared model.
    fn applied(set: &BTreeSet<Vrp>, changes: &[Delta]) -> BTreeSet<Vrp> {
        let mut out = set.clone();
        for d in changes {
            if d.announce {
                out.insert(d.vrp);
            } else {
                out.remove(&d.vrp);
            }
        }
        out
    }

    fn successors(client: &RtrClient) -> usize {
        client.vrps.successors.lock().unwrap().len()
    }

    fn base_and_deltas() -> (BTreeSet<Vrp>, [Vec<Delta>; 2]) {
        let base: BTreeSet<Vrp> = sample().into_iter().collect();
        let d1 = vec![
            Delta { vrp: v("10.9.0.0/16", 16, 9), announce: true },
            Delta { vrp: v("10.0.0.0/16", 24, 1), announce: false },
        ];
        let d2 = vec![Delta { vrp: v("10.8.0.0/16", 20, 8), announce: true }];
        (base, [d1, d2])
    }

    #[test]
    fn equal_change_lists_from_one_version_share_the_result() {
        let (base, [d1, _]) = base_and_deltas();
        let mut clients = clients_on(&base, 3);
        for client in &mut clients {
            respond(client, &d1);
        }
        for client in &clients {
            assert!(Arc::ptr_eq(&client.vrps, &clients[0].vrps), "one copy for one change list");
            assert_eq!(client.vrp_set(), &applied(&base, &d1));
        }
    }

    #[test]
    fn a_different_change_list_does_not_take_the_recorded_successor() {
        let (base, [d1, d2]) = base_and_deltas();
        let mut clients = clients_on(&base, 3);
        respond(&mut clients[0], &d1);
        respond(&mut clients[1], &d2);
        assert!(!Arc::ptr_eq(&clients[0].vrps, &clients[1].vrps));
        assert_eq!(clients[1].vrp_set(), &applied(&base, &d2));
        assert_eq!(successors(&clients[2]), 2, "one successor per distinct change list");
    }

    /// A successor another client may still take is never changed in
    /// place, even when only one client holds it.
    #[test]
    fn a_recorded_successor_keeps_its_set_while_its_builder_moves_on() {
        let (base, [d1, d2]) = base_and_deltas();
        let mut clients = clients_on(&base, 2);
        respond(&mut clients[0], &d1);
        respond(&mut clients[0], &d2);
        respond(&mut clients[1], &d1);
        assert_eq!(clients[0].vrp_set(), &applied(&applied(&base, &d1), &d2));
        assert_eq!(clients[1].vrp_set(), &applied(&base, &d1));
    }

    #[test]
    fn a_sole_holder_applies_in_place_and_leaves_no_successor() {
        let (base, [d1, d2]) = base_and_deltas();
        let mut clients = clients_on(&base, 2);
        let version = Arc::as_ptr(&clients[1].vrps);
        respond(&mut clients[0], &d1);
        respond(&mut clients[1], &d2);
        assert_eq!(Arc::as_ptr(&clients[1].vrps), version, "applied in place");
        assert_eq!(successors(&clients[1]), 0, "the successor built from the old set is gone");
        // The in-place set is not the one `d1` was recorded against.
        respond(&mut clients[1], &d1);
        assert_eq!(clients[1].vrp_set(), &applied(&applied(&base, &d2), &d1));
    }

    #[test]
    fn a_client_is_send_and_sync_and_debug_prints_its_set() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<RtrClient>();
        let (base, _) = base_and_deltas();
        let client = clients_on(&base, 1).pop().unwrap();
        let text = format!("{client:?}");
        assert!(text.contains(&format!("vrps: {:?}", base)), "{text}");
        assert!(text.ends_with("pending: None }"), "{text}");
    }

    #[test]
    fn rfc1982_serial_arithmetic() {
        // RFC 1982 §3.2: a > b iff (a - b) mod 2^32 < 2^31, a != b.
        assert!(serial_newer(1, 0));
        assert!(!serial_newer(0, 1));
        assert!(!serial_newer(7, 7));
        // Across the wrap: 0 is newer than u32::MAX.
        assert!(serial_newer(0, u32::MAX));
        assert!(!serial_newer(u32::MAX, 0));
        assert!(serial_newer(5, u32::MAX - 5));
        assert_eq!(serial_distance(u32::MAX, 0), 1);
        assert_eq!(serial_distance(u32::MAX - 1, 2), 4);
        assert_eq!(serial_distance(3, 3), 0);
    }

    /// A server publishing across the u32 serial wrap keeps serving
    /// contiguous deltas: a client acked at `u32::MAX - 1` catches up to
    /// serial 1 without ever seeing a Cache Reset.
    #[test]
    fn serial_wrap_boundary_syncs_by_delta() {
        let mut server = RtrServer::new_at(1, 8, u32::MAX - 2);
        publish(&mut server, sample()); // serial -> u32::MAX - 1
        assert_eq!(server.serial(), u32::MAX - 1);
        let mut client = RtrClient::new();
        sync(&mut client, &server);
        assert_eq!(client.serial(), u32::MAX - 1);

        // Three publishes carry the serial across the wrap.
        let mut vrps = sample();
        for i in 0..3u32 {
            vrps.push(v("10.9.0.0/16", 16, 200 + i));
            let notify = publish(&mut server, vrps.clone()).expect("changed");
            let RtrPdu::SerialNotify { serial, .. } = notify else {
                panic!("expected SerialNotify")
            };
            assert!(serial_newer(serial, client.serial()));
            assert_eq!(client.handle(&notify), ClientAction::Query);
        }
        assert_eq!(server.serial(), 1); // MAX-1 -> MAX -> 0 -> 1

        // The catch-up must be a pure delta run, never a reset.
        let response = server.handle(&client.poll());
        assert!(!response.contains(&RtrPdu::CacheReset));
        let prefix_count = response.iter().filter(|p| matches!(p, RtrPdu::Prefix(_))).count();
        assert_eq!(prefix_count, 3, "one announce per publish, not a full snapshot");
        for pdu in &response {
            assert_ne!(client.handle(pdu), ClientAction::Reset);
        }
        assert_eq!(client.serial(), 1);
        assert_eq!(client.cache().vrps(), server.vrps());

        // A stale query from the far side of the wrap (fallen off the
        // history window) still degrades to Cache Reset, not garbage.
        let stale = RtrPdu::SerialQuery { session: 1, serial: u32::MAX - 7 };
        assert_eq!(server.handle(&stale), vec![RtrPdu::CacheReset]);
    }
}
