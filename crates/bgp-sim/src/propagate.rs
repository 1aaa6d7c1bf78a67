//! Route propagation to a Gao–Rexford fixed point, with RPKI policies.
//!
//! Two engines compute the same fixed point:
//!
//! - [`propagate`] / [`propagate_with_stats`] — the production
//!   **worklist engine**: ASes and prefixes are interned into dense
//!   indices, per-AS tables live in one flat `Vec`, and each round
//!   re-evaluates only the `(AS, prefix)` cells whose neighbours'
//!   selections changed in the previous round. Everything the hot loop
//!   touches is an index into a `Vec`: the dirty list is a
//!   double-buffered `Vec` deduplicated by a per-cell round stamp, AS
//!   paths are `u32` links into one arena that shares tails, and the
//!   origin-validation memo — validity is round-invariant — has one
//!   slot per announcement, whose index every route carries from its
//!   origin cell. A candidate evaluation allocates nothing and hashes
//!   nothing; a route update appends one arena node.
//! - `reference` (behind the `test-oracle` cargo feature) — the
//!   original synchronous full-scan engine, kept as the oracle the
//!   equivalence property tests pin the worklist engine against (see
//!   DESIGN.md "Routing engine" for the determinism and equivalence
//!   argument).
//!
//! Both iterate *synchronised rounds* reading only previous-round
//! state, which makes the computation order-independent and therefore
//! deterministic. The worklist engine's dirty list is in insertion
//! order, which is a function of the previous round's list and the
//! topology's neighbour order — hence of the input alone — so even its
//! internal evaluation order is reproducible.

use std::fmt;

use ipres::{Asn, Prefix};
use rpki_rp::{Route, RouteValidity, VrpCache};
use serde::Serialize;

use crate::topology::{Relationship, Topology, TopologyIndex};

/// One origination: `origin` claims to be the destination for `prefix`.
/// Hijacks are simply announcements whose origin is not the legitimate
/// holder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Announcement {
    /// The announced prefix.
    pub prefix: Prefix,
    /// The announcing origin AS.
    pub origin: Asn,
}

/// The relying party's local policy for using route validity in BGP —
/// the paper's Section 5 / Table 6 knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum RpkiPolicy {
    /// Origin validation off (the pre-RPKI Internet).
    Ignore,
    /// Never select an invalid route.
    DropInvalid,
    /// Prefer valid over unknown over invalid, but still use invalid
    /// routes when nothing better exists for that exact prefix.
    DeprefInvalid,
}

/// A route selected by some AS.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SelectedRoute {
    /// The route's prefix.
    pub prefix: Prefix,
    /// The origin AS of the announcement.
    pub origin: Asn,
    /// AS path from (excluding) the selecting AS to the origin:
    /// `path[0]` is the next hop; `path.last()` is the origin. Empty
    /// for the origin itself.
    pub path: Vec<Asn>,
    /// Relationship of the next hop to the selecting AS (`None` for
    /// self-originated routes).
    pub learned_from: Option<Relationship>,
    /// RFC 6811 state of `(prefix, origin)` under the cache in force.
    pub validity: RouteValidity,
}

/// Position of `validity` in the selection order under `policy`: only
/// `DeprefInvalid` lets validity influence preference.
fn validity_rank(policy: RpkiPolicy, validity: RouteValidity) -> u8 {
    match (policy, validity) {
        (RpkiPolicy::DeprefInvalid, RouteValidity::Valid) => 0,
        (RpkiPolicy::DeprefInvalid, RouteValidity::Unknown) => 1,
        (RpkiPolicy::DeprefInvalid, RouteValidity::Invalid) => 2,
        _ => 0,
    }
}

/// The converged routing state of the whole topology.
///
/// Compares bit-for-bit (`PartialEq`): the equivalence property tests
/// assert the worklist engine and the `reference` oracle produce equal
/// states.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct RoutingState {
    /// One row per AS holding at least one route, ascending by ASN;
    /// each row's routes ascend by prefix. Both engines emit rows
    /// already in that order, and every accessor is a binary search.
    rows: Vec<(Asn, Vec<SelectedRoute>)>,
    /// The policy the state was computed under.
    policy: Option<RpkiPolicy>,
}

impl RoutingState {
    /// `asn`'s routes, ascending by prefix; empty when it holds none.
    fn row(&self, asn: Asn) -> &[SelectedRoute] {
        match self.rows.binary_search_by_key(&asn, |&(a, _)| a) {
            Ok(i) => &self.rows[i].1,
            Err(_) => &[],
        }
    }

    /// The route `asn` selected for exactly `prefix`, if any.
    pub fn best_route(&self, asn: Asn, prefix: Prefix) -> Option<&SelectedRoute> {
        let row = self.row(asn);
        row.binary_search_by_key(&prefix, |r| r.prefix).ok().map(|i| &row[i])
    }

    /// All selected routes at `asn`.
    pub fn table(&self, asn: Asn) -> impl Iterator<Item = &SelectedRoute> {
        self.row(asn).iter()
    }

    /// The policy in force when this state was computed.
    pub fn policy(&self) -> Option<RpkiPolicy> {
        self.policy
    }

    /// ASes holding at least one route.
    pub fn ases_with_routes(&self) -> usize {
        self.rows.len()
    }
}

/// Work done by a propagation run. Callers report these next to their
/// experiment output, and the scale tests assert the worklist engine
/// never runs more rounds than the `reference` oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ConvergenceStats {
    /// Synchronised rounds executed (rounds in which at least one
    /// `(AS, prefix)` pair was re-evaluated). The reference engine
    /// additionally runs a final quiescent confirmation round; the
    /// worklist engine stops as soon as the dirty list drains.
    pub rounds: usize,
    /// Route-table writes: selections that changed, including
    /// withdrawals.
    pub route_updates: usize,
    /// `(AS, prefix)` pairs re-evaluated across all rounds.
    pub pairs_evaluated: usize,
    /// Validity lookups answered from the per-call memo.
    pub memo_hits: usize,
    /// Validity lookups that ran RFC 6811 classification.
    pub memo_misses: usize,
    /// Most dirty cells at the start of any round — the worklist
    /// engine's peak working-set width.
    pub peak_worklist: usize,
}

impl ConvergenceStats {
    /// Accumulates another run's counters — for experiments that
    /// propagate several times and report the total work.
    pub fn absorb(&mut self, other: ConvergenceStats) {
        self.rounds += other.rounds;
        self.route_updates += other.route_updates;
        self.pairs_evaluated += other.pairs_evaluated;
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
        self.peak_worklist = self.peak_worklist.max(other.peak_worklist);
    }

    /// Emits this run's work counters into an observability recorder at
    /// simulated time `at`: one `convergence` event plus counters and a
    /// rounds histogram.
    pub fn emit(&self, rec: &rpki_obs::Recorder, at: u64) {
        if !rec.is_enabled() {
            return;
        }
        rec.count("bgp.propagations", 1);
        rec.count("bgp.route_updates", self.route_updates as u64);
        rec.count("bgp.pairs_evaluated", self.pairs_evaluated as u64);
        rec.observe("bgp.rounds", self.rounds as u64);
        rec.event(at, "bgp", "convergence")
            .u64("rounds", self.rounds as u64)
            .u64("route_updates", self.route_updates as u64)
            .u64("pairs_evaluated", self.pairs_evaluated as u64)
            .u64("memo_hits", self.memo_hits as u64)
            .u64("memo_misses", self.memo_misses as u64)
            .u64("peak_worklist", self.peak_worklist as u64)
            .emit();
    }
}

/// Propagation failed to converge within the round cap — which for
/// Gao–Rexford preferences indicates a cycle in the provider→customer
/// hierarchy.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ConvergenceError {
    /// The round cap that was exhausted.
    pub rounds: usize,
    /// A provider→customer cycle in the topology, if one exists (first
    /// AS repeated at the end, as returned by
    /// [`Topology::find_transit_cycle`]).
    pub cycle: Option<Vec<Asn>>,
}

impl fmt::Display for ConvergenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BGP propagation failed to converge in {} rounds", self.rounds)?;
        match &self.cycle {
            Some(cycle) => {
                write!(f, "; transit cycle:")?;
                for asn in cycle {
                    write!(f, " {asn}")?;
                }
                Ok(())
            }
            None => write!(f, "; no transit cycle found (policy oscillation?)"),
        }
    }
}

impl std::error::Error for ConvergenceError {}

/// Propagates `announcements` over `topology` under `policy`, using
/// `cache` for origin validation, and returns the converged state.
///
/// Event-driven: only `(AS, prefix)` pairs whose inputs changed are
/// re-evaluated, but the result is bit-for-bit identical to the
/// synchronous full-scan `reference` engine (pinned by the
/// equivalence property tests). Returns [`ConvergenceError`] —
/// carrying the transit cycle, if one exists — instead of looping
/// forever when the round cap is exhausted.
pub fn propagate(
    topology: &Topology,
    announcements: &[Announcement],
    policy: RpkiPolicy,
    cache: &VrpCache,
) -> Result<RoutingState, ConvergenceError> {
    propagate_with_stats(topology, announcements, policy, cache).map(|(state, _)| state)
}

/// [`propagate`], also returning the work done ([`ConvergenceStats`]).
pub fn propagate_with_stats(
    topology: &Topology,
    announcements: &[Announcement],
    policy: RpkiPolicy,
    cache: &VrpCache,
) -> Result<(RoutingState, ConvergenceStats), ConvergenceError> {
    Worklist::new(topology, announcements, policy, cache).run(announcements)
}

/// A selected route in the worklist engine's internal representation.
/// `Copy`: the AS path is a link into the [`Worklist`]'s path arena,
/// whose tail is shared with the neighbour route it was learned from,
/// so extending a path appends one node and paths common to many ASes
/// are stored once.
#[derive(Debug, Clone, Copy)]
struct WorkRoute {
    origin: Asn,
    learned_from: Option<Relationship>,
    /// Cached length of `path` (hops to the origin).
    path_len: u32,
    /// Arena index of the next hop's node; [`NO_PATH`] at the origin.
    path: u32,
    /// Index of the announcement that seeded this route's origin cell
    /// — its slot in the validity memo.
    ann: u32,
}

/// The empty path (a self-originated route), and every path's end.
const NO_PATH: u32 = u32::MAX;

/// Candidate preference key: (validity rank, relationship rank, path
/// length, next-hop ASN), lower wins. Distinct neighbours differ in
/// the last component, so the key totally orders candidates.
type CandidateKey = (u8, u8, u32, u32);

/// One hop of an AS path in the arena: a cons cell by index.
#[derive(Debug, Clone, Copy)]
struct PathNode {
    /// The AS at this hop; the head of a route's list is its next hop.
    head: Asn,
    /// The rest of the path, or [`NO_PATH`].
    tail: u32,
}

/// Every AS path of one propagation, as cons lists over one `Vec`:
/// append-only while the engine runs, freed in one drop.
#[derive(Default)]
struct PathArena(Vec<PathNode>);

impl PathArena {
    /// The path `head` followed by `tail`.
    fn cons(&mut self, head: Asn, tail: u32) -> u32 {
        let at = u32::try_from(self.0.len()).ok().filter(|&at| at != NO_PATH);
        self.0.push(PathNode { head, tail });
        at.expect("fewer than 2^32 - 1 route updates")
    }

    /// The hops of `path`, next hop first.
    fn hops(&self, path: u32) -> impl Iterator<Item = Asn> + '_ {
        let mut cur = path;
        std::iter::from_fn(move || {
            if cur == NO_PATH {
                return None;
            }
            let node = self.0[cur as usize];
            cur = node.tail;
            Some(node.head)
        })
    }

    /// Structural path equality. Shared tails make the common case —
    /// the neighbour's route is unchanged — an index comparison.
    fn equal(&self, a: u32, b: u32) -> bool {
        let (mut a, mut b) = (a, b);
        while a != b {
            if a == NO_PATH || b == NO_PATH {
                return false;
            }
            let (x, y) = (self.0[a as usize], self.0[b as usize]);
            if x.head != y.head {
                return false;
            }
            a = x.tail;
            b = y.tail;
        }
        true
    }
}

/// Per-call memo for RFC 6811 classification. Validity depends only on
/// `(prefix, origin)` and the fixed VRP cache, never on the round, and
/// every route descends from the origin cell of one announcement, so
/// each announcement is classified at most once per propagation.
struct ValidityMemo<'a> {
    cache: &'a VrpCache,
    announcements: &'a [Announcement],
    /// One slot per announcement; a duplicate's slot stays unused.
    memo: Vec<Option<RouteValidity>>,
    hits: usize,
    misses: usize,
}

impl<'a> ValidityMemo<'a> {
    fn new(cache: &'a VrpCache, announcements: &'a [Announcement]) -> Self {
        ValidityMemo {
            cache,
            announcements,
            memo: vec![None; announcements.len()],
            hits: 0,
            misses: 0,
        }
    }

    /// Validity of every route seeded by announcement `ann`.
    fn classify(&mut self, ann: u32) -> RouteValidity {
        let slot = &mut self.memo[ann as usize];
        match *slot {
            Some(validity) => {
                self.hits += 1;
                validity
            }
            None => {
                self.misses += 1;
                let a = self.announcements[ann as usize];
                *slot.insert(self.cache.classify(Route::new(a.prefix, a.origin)))
            }
        }
    }
}

struct Worklist<'a> {
    topology: &'a Topology,
    policy: RpkiPolicy,
    index: TopologyIndex,
    /// Interned announced prefixes, sorted.
    prefixes: Vec<Prefix>,
    /// Flattened route tables: `[as_idx * prefixes.len() + prefix_idx]`.
    tables: Vec<Option<WorkRoute>>,
    /// Cells holding their own announcement; never re-evaluated.
    origin_locked: Vec<bool>,
    /// Per cell, the last round it was put on the dirty list for: a
    /// cell enters a round's list at most once.
    stamp: Vec<u32>,
    paths: PathArena,
    memo: ValidityMemo<'a>,
    stats: ConvergenceStats,
}

impl<'a> Worklist<'a> {
    fn new(
        topology: &'a Topology,
        announcements: &'a [Announcement],
        policy: RpkiPolicy,
        cache: &'a VrpCache,
    ) -> Self {
        let index = TopologyIndex::with_extra(topology, announcements.iter().map(|a| a.origin));
        let mut prefixes: Vec<Prefix> = announcements.iter().map(|a| a.prefix).collect();
        prefixes.sort_unstable();
        prefixes.dedup();
        let cells = index.len() * prefixes.len();
        Worklist {
            topology,
            policy,
            index,
            prefixes,
            tables: vec![None; cells],
            origin_locked: vec![false; cells],
            stamp: vec![0; cells],
            paths: PathArena::default(),
            memo: ValidityMemo::new(cache, announcements),
            stats: ConvergenceStats::default(),
        }
    }

    fn run(
        mut self,
        announcements: &[Announcement],
    ) -> Result<(RoutingState, ConvergenceStats), ConvergenceError> {
        let mut dirty = self.seed(announcements);
        let mut next_dirty: Vec<(u32, u32)> = Vec::new();

        // Same cap as the reference engine. A worklist round is the
        // synchronous round restricted to the cells that could change,
        // so the worklist engine never needs more rounds.
        let cap = 2 * self.topology.len() + 10;
        let mut updates: Vec<(u32, u32, Option<WorkRoute>)> = Vec::new();
        while !dirty.is_empty() {
            self.stats.rounds += 1;
            self.stats.peak_worklist = self.stats.peak_worklist.max(dirty.len());
            if self.stats.rounds > cap {
                return Err(ConvergenceError {
                    rounds: cap,
                    cycle: self.topology.find_transit_cycle(),
                });
            }
            // Evaluate every dirty cell against previous-round state,
            // buffering writes: the round stays synchronous, so the
            // list's order can't influence the outcome.
            for &(as_idx, prefix_idx) in &dirty {
                self.stats.pairs_evaluated += 1;
                if let Some(new_route) = self.evaluate(as_idx, prefix_idx) {
                    updates.push((as_idx, prefix_idx, new_route));
                }
            }
            // Apply, and mark the neighbours of every changed cell
            // dirty for the next round.
            let npfx = self.prefixes.len();
            let next_round = u32::try_from(self.stats.rounds + 1).expect("round cap fits u32");
            next_dirty.clear();
            for (as_idx, prefix_idx, route) in updates.drain(..) {
                self.tables[as_idx as usize * npfx + prefix_idx as usize] = route;
                self.stats.route_updates += 1;
                self.mark_neighbors(as_idx, prefix_idx, next_round, &mut next_dirty);
            }
            std::mem::swap(&mut dirty, &mut next_dirty);
        }

        let state = self.materialize();
        self.stats.memo_hits = self.memo.hits;
        self.stats.memo_misses = self.memo.misses;
        Ok((state, self.stats))
    }

    /// Puts every neighbour cell of `(as_idx, prefix_idx)` that is not
    /// an origin on `round`'s dirty list, unless it is on it already.
    fn mark_neighbors(
        &mut self,
        as_idx: u32,
        prefix_idx: u32,
        round: u32,
        dirty: &mut Vec<(u32, u32)>,
    ) {
        let npfx = self.prefixes.len();
        for &(nbr, _) in self.index.neighbors(as_idx) {
            let cell = nbr as usize * npfx + prefix_idx as usize;
            if !self.origin_locked[cell] && self.stamp[cell] != round {
                self.stamp[cell] = round;
                dirty.push((nbr, prefix_idx));
            }
        }
    }

    /// Seeds origin routes and returns round 1's dirty list: every
    /// non-origin neighbour cell of an origin. An origin always
    /// carries its own announcement, whatever the RPKI says — it is
    /// lying deliberately or it is the legitimate holder; either way
    /// it announces — so origin cells are locked and never
    /// re-evaluated.
    fn seed(&mut self, announcements: &[Announcement]) -> Vec<(u32, u32)> {
        let npfx = self.prefixes.len();
        let mut origins: Vec<(u32, u32)> = Vec::with_capacity(announcements.len());
        for (ann, a) in announcements.iter().enumerate() {
            let as_idx = self.index.index_of(a.origin).expect("origin was interned");
            let prefix_idx =
                self.prefixes.binary_search(&a.prefix).expect("prefix interned") as u32;
            let cell = as_idx as usize * npfx + prefix_idx as usize;
            // A repeated announcement changes nothing; the first one's
            // memo slot serves the cell.
            if self.origin_locked[cell] {
                continue;
            }
            self.tables[cell] = Some(WorkRoute {
                origin: a.origin,
                learned_from: None,
                path_len: 0,
                path: NO_PATH,
                ann: ann as u32,
            });
            self.origin_locked[cell] = true;
            origins.push((as_idx, prefix_idx));
        }
        // Second pass, once all locks are set: a neighbour that is
        // itself an origin for the same prefix must not enter the
        // worklist.
        let mut dirty = Vec::new();
        for (as_idx, prefix_idx) in origins {
            self.mark_neighbors(as_idx, prefix_idx, 1, &mut dirty);
        }
        dirty
    }

    /// Re-runs best-route selection for one `(AS, prefix)` cell against
    /// current (previous-round) tables. Returns `None` when the
    /// selection is unchanged, `Some(new)` — possibly a withdrawal —
    /// when it changed. Only a changed selection appends to the path
    /// arena (one node).
    fn evaluate(&mut self, as_idx: u32, prefix_idx: u32) -> Option<Option<WorkRoute>> {
        let npfx = self.prefixes.len();
        let asn = self.index.asn(as_idx);

        // Best candidate so far, as (pref_key, neighbour's route,
        // role). The key is computed from the neighbour's stored route
        // without materialising the candidate: validity depends only on
        // the seeding announcement, the candidate's path length is the
        // neighbour's plus one, and its next hop is the neighbour.
        let mut best: Option<(CandidateKey, WorkRoute, Relationship)> = None;
        for &(nbr, rel) in self.index.neighbors(as_idx) {
            let Some(route) = self.tables[nbr as usize * npfx + prefix_idx as usize] else {
                continue;
            };
            // Export rule at the neighbour: routes learned from
            // customers (or self-originated) go to everyone;
            // peer/provider routes go to customers only. From `asn`'s
            // view `rel` is the neighbour's role; the neighbour sees
            // `asn` as a customer iff `rel` is Provider.
            let exported = match route.learned_from {
                None | Some(Relationship::Customer) => true,
                Some(Relationship::Peer) | Some(Relationship::Provider) => {
                    rel == Relationship::Provider
                }
            };
            if !exported {
                continue;
            }
            // Loop prevention.
            if route.origin == asn || self.paths.hops(route.path).any(|hop| hop == asn) {
                continue;
            }
            // Import filter and validity preference. Under Ignore,
            // validity never influences selection, so classification is
            // deferred until materialisation.
            let vrank = match self.policy {
                RpkiPolicy::Ignore => 0,
                RpkiPolicy::DropInvalid => {
                    if self.memo.classify(route.ann) == RouteValidity::Invalid {
                        continue;
                    }
                    0
                }
                RpkiPolicy::DeprefInvalid => {
                    validity_rank(self.policy, self.memo.classify(route.ann))
                }
            };
            let key = (vrank, rel.rank(), route.path_len + 1, self.index.asn(nbr).0);
            // Strictly-less-than keeps the first of equals, exactly
            // like the reference engine — and since the key totally
            // orders candidates (distinct neighbours differ in the
            // next-hop component), "first" can never matter.
            if best.as_ref().is_none_or(|(bk, _, _)| key < *bk) {
                best = Some((key, route, rel));
            }
        }

        let current = self.tables[as_idx as usize * npfx + prefix_idx as usize];
        let Some(((_, _, _, next_hop), via, rel)) = best else {
            // Withdrawal iff something was selected before.
            return current.is_some().then_some(None);
        };
        let next_hop = Asn(next_hop);
        let unchanged = current.is_some_and(|cur| {
            cur.learned_from == Some(rel)
                && cur.origin == via.origin
                && cur.path_len == via.path_len + 1
                && self.paths.0[cur.path as usize].head == next_hop
                && self.paths.equal(self.paths.0[cur.path as usize].tail, via.path)
        });
        if unchanged {
            return None;
        }
        Some(Some(WorkRoute {
            origin: via.origin,
            learned_from: Some(rel),
            path_len: via.path_len + 1,
            path: self.paths.cons(next_hop, via.path),
            ann: via.ann,
        }))
    }

    /// Converts the flat tables into the public [`RoutingState`] form,
    /// classifying each selected route's validity — from the memo, or
    /// for the first time under `Ignore`, where selection never needed
    /// it. Cells are visited in (ASN, prefix) order, which is the
    /// state's row order, so rows are built by appending.
    fn materialize(&mut self) -> RoutingState {
        let npfx = self.prefixes.len();
        let mut rows: Vec<(Asn, Vec<SelectedRoute>)> = Vec::new();
        if npfx == 0 {
            return RoutingState { rows, policy: Some(self.policy) };
        }
        for (as_idx, cells) in self.tables.chunks(npfx).enumerate() {
            let held = cells.iter().flatten().count();
            if held == 0 {
                continue;
            }
            let mut row = Vec::with_capacity(held);
            for (prefix_idx, cell) in cells.iter().enumerate() {
                let Some(route) = cell else { continue };
                let prefix = self.prefixes[prefix_idx];
                let mut path = Vec::with_capacity(route.path_len as usize);
                path.extend(self.paths.hops(route.path));
                debug_assert_eq!(path.len(), route.path_len as usize);
                row.push(SelectedRoute {
                    prefix,
                    origin: route.origin,
                    path,
                    learned_from: route.learned_from,
                    validity: self.memo.classify(route.ann),
                });
            }
            rows.push((self.index.asn(as_idx as u32), row));
        }
        RoutingState { rows, policy: Some(self.policy) }
    }
}

#[cfg(any(test, feature = "test-oracle"))]
pub mod reference {
    //! The original synchronous full-scan engine, kept (plus the typed
    //! convergence error) as the oracle for the worklist engine: every
    //! round, every `(AS, prefix)` pair re-selects from neighbours'
    //! previous-round tables, stopping after a round with no change.
    //! Compiled for this crate's own tests and, for other packages,
    //! behind the `test-oracle` feature.
    //!
    //! The only divergence from the historical implementation is that
    //! empty per-AS tables left behind by insert-then-withdraw
    //! sequences are pruned before returning, so [`RoutingState`]
    //! equality is structural rather than historical.

    use std::collections::{BTreeMap, BTreeSet};

    use super::*;

    fn pref_key(route: &SelectedRoute, policy: RpkiPolicy) -> (u8, u8, usize, u32) {
        let rel_rank = route.learned_from.map(Relationship::rank).unwrap_or(0);
        let next_hop = route.path.first().map(|a| a.0).unwrap_or(0);
        (validity_rank(policy, route.validity), rel_rank, route.path.len(), next_hop)
    }

    /// Synchronous full-scan propagation; returns the converged state
    /// and the number of rounds (including the final quiescent
    /// confirmation round the worklist engine skips).
    pub fn propagate(
        topology: &Topology,
        announcements: &[Announcement],
        policy: RpkiPolicy,
        cache: &VrpCache,
    ) -> Result<(RoutingState, usize), ConvergenceError> {
        // `AS → prefix → selected route`.
        let mut tables: BTreeMap<Asn, BTreeMap<Prefix, SelectedRoute>> = BTreeMap::new();

        // Seed origins. An origin always carries its own announcement,
        // whatever the RPKI says (it is lying deliberately or it is the
        // legitimate holder; either way it announces).
        let prefixes: BTreeSet<Prefix> = announcements.iter().map(|a| a.prefix).collect();
        for ann in announcements {
            let validity = cache.classify(Route::new(ann.prefix, ann.origin));
            tables.entry(ann.origin).or_default().insert(
                ann.prefix,
                SelectedRoute {
                    prefix: ann.prefix,
                    origin: ann.origin,
                    path: Vec::new(),
                    learned_from: None,
                    validity,
                },
            );
        }

        let cap = 2 * topology.len() + 10;
        let mut rounds = 0;
        loop {
            rounds += 1;
            if rounds > cap {
                return Err(ConvergenceError { rounds: cap, cycle: topology.find_transit_cycle() });
            }
            let mut changed = false;

            // Synchronous round: every AS re-selects from neighbours'
            // *previous-round* tables, which keeps the computation
            // deterministic and order-independent.
            let mut next = tables.clone();
            for asn in topology.ases() {
                for &prefix in &prefixes {
                    let current = tables.get(&asn).and_then(|t| t.get(&prefix));
                    // Origins never replace their own announcement.
                    if matches!(current, Some(r) if r.learned_from.is_none()) {
                        continue;
                    }
                    let mut best: Option<SelectedRoute> = None;
                    for (neighbor, rel) in topology.neighbors(asn) {
                        let Some(route) = tables.get(&neighbor).and_then(|t| t.get(&prefix)) else {
                            continue;
                        };
                        // Export rule at the neighbour: routes learned
                        // from customers (or self-originated) go to
                        // everyone; peer/provider routes go to
                        // customers only.
                        let exported = match route.learned_from {
                            None | Some(Relationship::Customer) => true,
                            Some(Relationship::Peer) | Some(Relationship::Provider) => {
                                rel == Relationship::Provider
                            }
                        };
                        if !exported {
                            continue;
                        }
                        // Loop prevention.
                        if route.path.contains(&asn) || route.origin == asn {
                            continue;
                        }
                        let mut path = Vec::with_capacity(route.path.len() + 1);
                        path.push(neighbor);
                        path.extend_from_slice(&route.path);
                        let candidate = SelectedRoute {
                            prefix,
                            origin: route.origin,
                            path,
                            learned_from: Some(rel),
                            validity: cache.classify(Route::new(prefix, route.origin)),
                        };
                        // Import filter.
                        if policy == RpkiPolicy::DropInvalid
                            && candidate.validity == RouteValidity::Invalid
                        {
                            continue;
                        }
                        let better = match &best {
                            None => true,
                            Some(b) => pref_key(&candidate, policy) < pref_key(b, policy),
                        };
                        if better {
                            best = Some(candidate);
                        }
                    }
                    if best.as_ref() != current {
                        changed = true;
                        let table = next.entry(asn).or_default();
                        match best {
                            Some(route) => {
                                table.insert(prefix, route);
                            }
                            None => {
                                table.remove(&prefix);
                            }
                        }
                    }
                }
            }
            tables = next;
            if !changed {
                break;
            }
        }
        // Insert-then-withdraw leaves empty per-AS maps behind; prune
        // them so state comparison is structural, not historical. Map
        // order is the state's row order.
        let rows = tables
            .into_iter()
            .filter(|(_, table)| !table.is_empty())
            .map(|(asn, table)| (asn, table.into_values().collect()))
            .collect();
        Ok((RoutingState { rows, policy: Some(policy) }, rounds))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpki_rp::Vrp;

    fn a(n: u32) -> Asn {
        Asn(n)
    }

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// Runs both engines, asserts they agree bit-for-bit and that the
    /// worklist engine never needs more rounds, and returns the state.
    fn propagate_checked(
        topology: &Topology,
        announcements: &[Announcement],
        policy: RpkiPolicy,
        cache: &VrpCache,
    ) -> RoutingState {
        let (state, stats) = propagate_with_stats(topology, announcements, policy, cache).unwrap();
        let (oracle, oracle_rounds) =
            reference::propagate(topology, announcements, policy, cache).unwrap();
        assert_eq!(state, oracle, "worklist and reference engines diverged");
        assert!(
            stats.rounds <= oracle_rounds,
            "worklist took {} rounds, reference only {oracle_rounds}",
            stats.rounds,
        );
        state
    }

    /// A line: 1 ← 2 ← 3 (1 is 2's provider, 2 is 3's provider).
    fn chain() -> Topology {
        let mut t = Topology::new();
        t.add_provider_customer(a(1), a(2));
        t.add_provider_customer(a(2), a(3));
        t
    }

    #[test]
    fn routes_propagate_up_and_down() {
        let t = chain();
        let state = propagate_checked(
            &t,
            &[Announcement { prefix: p("10.0.0.0/8"), origin: a(3) }],
            RpkiPolicy::Ignore,
            &VrpCache::new(),
        );
        let r1 = state.best_route(a(1), p("10.0.0.0/8")).unwrap();
        assert_eq!(r1.path, vec![a(2), a(3)]);
        assert_eq!(r1.learned_from, Some(Relationship::Customer));
        let r3 = state.best_route(a(3), p("10.0.0.0/8")).unwrap();
        assert!(r3.path.is_empty());
        assert_eq!(state.ases_with_routes(), 3);
    }

    #[test]
    fn valley_free_export_blocks_peer_to_peer_transit() {
        // 2 — 3 peers; 4 is 3's peer too. A route from 2 must not cross
        // 3 to reach 4 (peer routes are not exported to peers).
        let mut t = Topology::new();
        t.add_peering(a(2), a(3));
        t.add_peering(a(3), a(4));
        let state = propagate_checked(
            &t,
            &[Announcement { prefix: p("10.0.0.0/8"), origin: a(2) }],
            RpkiPolicy::Ignore,
            &VrpCache::new(),
        );
        assert!(state.best_route(a(3), p("10.0.0.0/8")).is_some());
        assert!(state.best_route(a(4), p("10.0.0.0/8")).is_none());
    }

    #[test]
    fn customer_route_preferred_over_peer_and_provider() {
        // AS 1 hears 10/8 from its customer 2, its peer 3, and its
        // provider 4 — all of whom hear it from origin 5.
        let mut t = Topology::new();
        t.add_provider_customer(a(1), a(2));
        t.add_peering(a(1), a(3));
        t.add_provider_customer(a(4), a(1));
        t.add_provider_customer(a(2), a(5));
        t.add_provider_customer(a(3), a(5));
        t.add_provider_customer(a(4), a(5));
        let state = propagate_checked(
            &t,
            &[Announcement { prefix: p("10.0.0.0/8"), origin: a(5) }],
            RpkiPolicy::Ignore,
            &VrpCache::new(),
        );
        let r = state.best_route(a(1), p("10.0.0.0/8")).unwrap();
        assert_eq!(r.learned_from, Some(Relationship::Customer));
        assert_eq!(r.path, vec![a(2), a(5)]);
    }

    #[test]
    fn shorter_path_wins_within_class() {
        // Two customer paths: 1←2←origin and 1←3←4←origin.
        let mut t = Topology::new();
        t.add_provider_customer(a(1), a(2));
        t.add_provider_customer(a(1), a(3));
        t.add_provider_customer(a(3), a(4));
        t.add_provider_customer(a(2), a(9));
        t.add_provider_customer(a(4), a(9));
        let state = propagate_checked(
            &t,
            &[Announcement { prefix: p("10.0.0.0/8"), origin: a(9) }],
            RpkiPolicy::Ignore,
            &VrpCache::new(),
        );
        let r = state.best_route(a(1), p("10.0.0.0/8")).unwrap();
        assert_eq!(r.path, vec![a(2), a(9)]);
    }

    #[test]
    fn drop_invalid_filters_hijack() {
        // Origin 3 holds the ROA; 66 announces the same prefix.
        let t = {
            let mut t = chain();
            t.add_provider_customer(a(1), a(66));
            t
        };
        let cache: VrpCache = [Vrp::new(p("10.0.0.0/8"), 8, a(3))].into_iter().collect();
        let hijack = [
            Announcement { prefix: p("10.0.0.0/8"), origin: a(3) },
            Announcement { prefix: p("10.0.0.0/8"), origin: a(66) },
        ];
        let state = propagate_checked(&t, &hijack, RpkiPolicy::DropInvalid, &cache);
        // AS 1 is adjacent to the hijacker (customer, path length 1 —
        // normally irresistible) but drops the invalid route.
        let r = state.best_route(a(1), p("10.0.0.0/8")).unwrap();
        assert_eq!(r.origin, a(3));
        // Under Ignore, the hijacker's shorter customer route wins.
        let state = propagate_checked(&t, &hijack, RpkiPolicy::Ignore, &cache);
        let r = state.best_route(a(1), p("10.0.0.0/8")).unwrap();
        assert_eq!(r.origin, a(66));
    }

    #[test]
    fn depref_prefers_valid_but_keeps_invalid_as_last_resort() {
        let t = {
            let mut t = chain();
            t.add_provider_customer(a(1), a(66));
            t
        };
        let cache: VrpCache = [Vrp::new(p("10.0.0.0/8"), 8, a(3))].into_iter().collect();
        // Hijack scenario: valid route exists → preferred despite the
        // hijacker's shorter path.
        let both = [
            Announcement { prefix: p("10.0.0.0/8"), origin: a(3) },
            Announcement { prefix: p("10.0.0.0/8"), origin: a(66) },
        ];
        let state = propagate_checked(&t, &both, RpkiPolicy::DeprefInvalid, &cache);
        assert_eq!(state.best_route(a(1), p("10.0.0.0/8")).unwrap().origin, a(3));
        // Manipulation scenario: only the (now-invalid) legitimate route
        // exists — depref still uses it, drop would not.
        let cache_whacked: VrpCache = [Vrp::new(p("10.0.0.0/8"), 8, a(42))].into_iter().collect(); // covering, not matching
        let legit_only = [Announcement { prefix: p("10.0.0.0/8"), origin: a(3) }];
        let state = propagate_checked(&t, &legit_only, RpkiPolicy::DeprefInvalid, &cache_whacked);
        assert_eq!(state.best_route(a(1), p("10.0.0.0/8")).unwrap().origin, a(3));
        let state = propagate_checked(&t, &legit_only, RpkiPolicy::DropInvalid, &cache_whacked);
        assert!(state.best_route(a(1), p("10.0.0.0/8")).is_none());
    }

    #[test]
    fn deterministic_tie_break() {
        // Two equal-length customer paths; lower next-hop ASN wins.
        let mut t = Topology::new();
        t.add_provider_customer(a(1), a(2));
        t.add_provider_customer(a(1), a(3));
        t.add_provider_customer(a(2), a(9));
        t.add_provider_customer(a(3), a(9));
        let state = propagate_checked(
            &t,
            &[Announcement { prefix: p("10.0.0.0/8"), origin: a(9) }],
            RpkiPolicy::Ignore,
            &VrpCache::new(),
        );
        assert_eq!(state.best_route(a(1), p("10.0.0.0/8")).unwrap().path[0], a(2));
    }

    #[test]
    fn multiple_prefixes_propagate_independently() {
        let t = chain();
        let state = propagate_checked(
            &t,
            &[
                Announcement { prefix: p("10.0.0.0/8"), origin: a(3) },
                Announcement { prefix: p("20.0.0.0/8"), origin: a(1) },
            ],
            RpkiPolicy::Ignore,
            &VrpCache::new(),
        );
        assert_eq!(state.best_route(a(1), p("10.0.0.0/8")).unwrap().origin, a(3));
        assert_eq!(state.best_route(a(3), p("20.0.0.0/8")).unwrap().origin, a(1));
    }

    #[test]
    fn converges_even_on_odd_topologies() {
        // A transit cycle (1→2→3→1) is economic nonsense but must not
        // hang the fixed point: loop prevention bounds the paths and the
        // synchronous iteration settles.
        let mut t = Topology::new();
        t.add_provider_customer(a(1), a(2));
        t.add_provider_customer(a(2), a(3));
        t.add_provider_customer(a(3), a(1));
        assert!(t.find_transit_cycle().is_some());
        let state = propagate_checked(
            &t,
            &[Announcement { prefix: p("10.0.0.0/8"), origin: a(1) }],
            RpkiPolicy::Ignore,
            &VrpCache::new(),
        );
        assert_eq!(state.ases_with_routes(), 3);
    }

    #[test]
    fn empty_announcements_converge_in_zero_rounds() {
        let t = chain();
        let (state, stats) =
            propagate_with_stats(&t, &[], RpkiPolicy::Ignore, &VrpCache::new()).unwrap();
        assert_eq!(stats.rounds, 0);
        assert_eq!(stats.route_updates, 0);
        assert_eq!(state.ases_with_routes(), 0);
        let (oracle, _) =
            reference::propagate(&t, &[], RpkiPolicy::Ignore, &VrpCache::new()).unwrap();
        assert_eq!(state, oracle);
    }

    #[test]
    fn origin_outside_topology_keeps_its_route_but_propagates_nothing() {
        let t = chain();
        let state = propagate_checked(
            &t,
            &[Announcement { prefix: p("10.0.0.0/8"), origin: a(99) }],
            RpkiPolicy::Ignore,
            &VrpCache::new(),
        );
        assert!(state.best_route(a(99), p("10.0.0.0/8")).is_some());
        assert_eq!(state.ases_with_routes(), 1);
    }

    #[test]
    fn stats_count_memoized_validity_lookups() {
        // Under DeprefInvalid every candidate evaluation consults the
        // memo; with one (prefix, origin) pair there is exactly one
        // miss, and at least one hit on any multi-AS topology.
        let t = chain();
        let cache: VrpCache = [Vrp::new(p("10.0.0.0/8"), 8, a(3))].into_iter().collect();
        let (_, stats) = propagate_with_stats(
            &t,
            &[Announcement { prefix: p("10.0.0.0/8"), origin: a(3) }],
            RpkiPolicy::DeprefInvalid,
            &cache,
        )
        .unwrap();
        assert_eq!(stats.memo_misses, 1);
        assert!(stats.memo_hits >= 1);
        assert!(stats.rounds >= 2);
        assert!(stats.route_updates >= 2);
        assert!(stats.pairs_evaluated >= stats.route_updates);
    }

    #[test]
    fn ignore_policy_defers_validity_to_materialisation() {
        // One (prefix, origin) pair → exactly one classification in
        // total under Ignore, and the stored validity still reflects
        // the cache.
        let t = chain();
        let cache: VrpCache = [Vrp::new(p("10.0.0.0/8"), 8, a(42))].into_iter().collect();
        let (state, stats) = propagate_with_stats(
            &t,
            &[Announcement { prefix: p("10.0.0.0/8"), origin: a(3) }],
            RpkiPolicy::Ignore,
            &cache,
        )
        .unwrap();
        assert_eq!(stats.memo_misses, 1);
        assert_eq!(
            state.best_route(a(1), p("10.0.0.0/8")).unwrap().validity,
            RouteValidity::Invalid
        );
    }

    #[test]
    fn convergence_error_reports_cycle() {
        let err = ConvergenceError { rounds: 16, cycle: Some(vec![a(1), a(2), a(1)]) };
        let text = err.to_string();
        assert!(text.contains("16 rounds"), "{text}");
        assert!(text.contains("transit cycle: AS1 AS2 AS1"), "{text}");
        let err = ConvergenceError { rounds: 16, cycle: None };
        assert!(err.to_string().contains("no transit cycle"), "{}", err);
    }
}
