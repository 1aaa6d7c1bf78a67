//! Route propagation to a Gao–Rexford fixed point, with RPKI policies.
//!
//! Two engines compute the same fixed point:
//!
//! - [`propagate`] / [`propagate_with_stats`] — the production
//!   **worklist engine**: ASes and prefixes are interned into dense
//!   indices, the route cells live in one flat prefix-major `Vec` (the
//!   cells of one prefix, and so the neighbours a cell reads, sit in
//!   one slab), and each round re-evaluates only the `(AS, prefix)`
//!   cells whose neighbours' selections changed in the previous round.
//!   Everything the hot loop touches is an index into a `Vec`: the
//!   dirty list is a double-buffered `Vec` deduplicated by a per-cell
//!   round stamp, neighbour lists are slices of one `Vec`, AS paths are
//!   `u32` links into one arena that shares tails, and the
//!   origin-validation memo — validity is round-invariant — has one
//!   slot per announcement, whose index every route carries from its
//!   origin cell. Each route also carries a 64-bit mask with the bit
//!   `as_idx % 64` of every AS on its path, so loop prevention walks a
//!   path only when the selecting AS's bit is set. A candidate
//!   evaluation allocates nothing and hashes nothing; a route update
//!   appends one arena node.
//! - `reference` (behind the `test-oracle` cargo feature) — the
//!   original synchronous full-scan engine, kept as the oracle the
//!   equivalence property tests pin the worklist engine against (see
//!   DESIGN.md "Routing engine" for the determinism and equivalence
//!   argument).
//!
//! The worklist engine's tables are its result: they move into the
//! [`RoutingState`] it returns, and a [`SelectedRoute`] is a `Copy`
//! view of one cell whose [`AsPath`] reads the shared arena. No route
//! is copied out of the engine.
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

/// A route selected by some AS: a view of one cell of a
/// [`RoutingState`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectedRoute<'a> {
    /// The route's prefix.
    pub prefix: Prefix,
    /// The origin AS of the announcement.
    pub origin: Asn,
    /// AS path from (excluding) the selecting AS to the origin:
    /// `path.first()` is the next hop; `path.last()` is the origin.
    /// Empty for the origin itself.
    pub path: AsPath<'a>,
    /// Relationship of the next hop to the selecting AS (`None` for
    /// self-originated routes).
    pub learned_from: Option<Relationship>,
    /// RFC 6811 state of `(prefix, origin)` under the cache in force.
    pub validity: RouteValidity,
}

/// An AS path, next hop first: a view of one cons list in a
/// [`RoutingState`]'s path arena. Prints and compares as the list of
/// its hops.
#[derive(Clone, Copy)]
pub struct AsPath<'a> {
    nodes: &'a [PathNode],
    /// Arena index of the next hop's node; [`NO_PATH`] when empty.
    head: u32,
    len: u32,
}

impl<'a> AsPath<'a> {
    /// Number of hops.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the path is empty (a self-originated route).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The next hop.
    pub fn first(&self) -> Option<&'a Asn> {
        self.iter().next()
    }

    /// The last hop: the origin.
    pub fn last(&self) -> Option<&'a Asn> {
        self.iter().last()
    }

    /// Whether `asn` is on the path.
    pub fn contains(&self, asn: &Asn) -> bool {
        self.iter().any(|hop| hop == asn)
    }

    /// The hops, next hop first.
    pub fn iter(&self) -> impl Iterator<Item = &'a Asn> + 'a {
        let (nodes, mut cur) = (self.nodes, self.head);
        std::iter::from_fn(move || {
            if cur == NO_PATH {
                return None;
            }
            let node = &nodes[cur as usize];
            cur = node.tail;
            Some(&node.head)
        })
    }

    /// The hops as an owned `Vec`.
    pub fn to_vec(&self) -> Vec<Asn> {
        let mut hops = Vec::with_capacity(self.len());
        hops.extend(self.iter().copied());
        hops
    }
}

impl fmt::Debug for AsPath<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for AsPath<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for AsPath<'_> {}

impl PartialEq<Vec<Asn>> for AsPath<'_> {
    fn eq(&self, other: &Vec<Asn>) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl std::ops::Index<usize> for AsPath<'_> {
    type Output = Asn;

    /// Hop `i` (`0` is the next hop), found by walking `i` links.
    fn index(&self, i: usize) -> &Asn {
        self.iter().nth(i).unwrap_or_else(|| panic!("hop {i} of a {}-hop path", self.len))
    }
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

/// The converged routing state of the whole topology: the worklist
/// engine's own tables, moved out of it when it converged.
///
/// Compares route by route (`PartialEq`): two states are equal when
/// every AS selected equal routes, however each engine laid its tables
/// out. The equivalence property tests assert the worklist engine and
/// the `reference` oracle produce equal states.
#[derive(Default)]
pub struct RoutingState {
    /// Interned ASes, ascending: a cell's AS index.
    ases: Vec<Asn>,
    /// Interned announced prefixes, ascending: a cell's prefix index.
    prefixes: Vec<Prefix>,
    /// Route cells, prefix-major: `[prefix_idx * ases.len() + as_idx]`.
    cells: Vec<Option<WorkRoute>>,
    /// The paths the cells link into.
    paths: PathArena,
    /// The validity memo's slots: per announcement, the validity of the
    /// routes it seeded — set for every held route.
    validity: Vec<Option<RouteValidity>>,
    /// The policy the state was computed under.
    policy: Option<RpkiPolicy>,
}

impl RoutingState {
    /// The view of `route`, held in a cell of prefix `prefix_idx`.
    fn view(&self, prefix_idx: usize, route: &WorkRoute) -> SelectedRoute<'_> {
        SelectedRoute {
            prefix: self.prefixes[prefix_idx],
            origin: route.origin,
            path: self.paths.path(route.path, route.path_len),
            learned_from: route.learned_from,
            validity: self.validity[route.ann as usize].expect("every held route is classified"),
        }
    }

    /// The routes of the AS at index `as_idx`, ascending by prefix:
    /// every `ases.len()`-th cell from `as_idx`, none when no prefix
    /// was announced.
    fn row(&self, as_idx: usize) -> impl Iterator<Item = SelectedRoute<'_>> {
        let column = self.cells.get(as_idx..).unwrap_or_default();
        column.iter().step_by(self.ases.len()).enumerate().filter_map(move |(prefix_idx, cell)| {
            cell.as_ref().map(|route| self.view(prefix_idx, route))
        })
    }

    /// Every held route with its AS, ascending by (ASN, prefix).
    fn routes(&self) -> impl Iterator<Item = (Asn, SelectedRoute<'_>)> {
        self.ases.iter().enumerate().flat_map(move |(i, &asn)| self.row(i).map(move |r| (asn, r)))
    }

    /// The route `asn` selected for exactly `prefix`, if any.
    pub fn best_route(&self, asn: Asn, prefix: Prefix) -> Option<SelectedRoute<'_>> {
        let as_idx = self.ases.binary_search(&asn).ok()?;
        let prefix_idx = self.prefixes.binary_search(&prefix).ok()?;
        let route = self.cells[prefix_idx * self.ases.len() + as_idx].as_ref()?;
        Some(self.view(prefix_idx, route))
    }

    /// All selected routes at `asn`, ascending by prefix.
    pub fn table(&self, asn: Asn) -> impl Iterator<Item = SelectedRoute<'_>> {
        self.ases.binary_search(&asn).ok().into_iter().flat_map(|as_idx| self.row(as_idx))
    }

    /// The policy in force when this state was computed.
    pub fn policy(&self) -> Option<RpkiPolicy> {
        self.policy
    }

    /// ASes holding at least one route.
    pub fn ases_with_routes(&self) -> usize {
        (0..self.ases.len()).filter(|&i| self.row(i).next().is_some()).count()
    }
}

impl PartialEq for RoutingState {
    fn eq(&self, other: &Self) -> bool {
        self.policy == other.policy && self.routes().eq(other.routes())
    }
}

impl Eq for RoutingState {}

impl fmt::Debug for RoutingState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Routes<'a>(&'a RoutingState);
        impl fmt::Debug for Routes<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.routes()).finish()
            }
        }
        f.debug_struct("RoutingState")
            .field("policy", &self.policy)
            .field("routes", &Routes(self))
            .finish()
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

/// A selected route in the worklist engine's representation, which
/// [`RoutingState`] keeps. `Copy`: the AS path is a link into the path
/// arena, whose tail is shared with the neighbour route it was learned
/// from, so extending a path appends one node and paths common to many
/// ASes are stored once.
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
    /// [`path_bit`] of every interned AS on `path`. A clear bit proves
    /// an AS is not on the path; a set bit may be another AS with the
    /// same index mod 64.
    mask: u64,
}

/// The empty path (a self-originated route), and every path's end.
const NO_PATH: u32 = u32::MAX;

/// The stamp of an origin cell: later than every round.
const LOCKED: u32 = u32::MAX;

/// The bit the AS at index `as_idx` sets in a path mask.
fn path_bit(as_idx: u32) -> u64 {
    1 << (as_idx % 64)
}

/// Candidate preference key: (validity rank, relationship rank, path
/// length, next hop's AS index), lower wins. Index order is ASN order,
/// so the last component ranks as the next-hop ASN does; distinct
/// neighbours differ in it, so the key totally orders candidates.
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
/// append-only while the engine runs, then kept by the state.
#[derive(Default)]
struct PathArena(Vec<PathNode>);

impl PathArena {
    /// The path `head` followed by `tail`.
    fn cons(&mut self, head: Asn, tail: u32) -> u32 {
        let at = u32::try_from(self.0.len()).ok().filter(|&at| at != NO_PATH);
        self.0.push(PathNode { head, tail });
        at.expect("fewer than 2^32 - 1 route updates")
    }

    /// The `len`-hop path starting at `head`.
    fn path(&self, head: u32, len: u32) -> AsPath<'_> {
        AsPath { nodes: &self.0, head, len }
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
    slots: Vec<Option<RouteValidity>>,
    hits: usize,
    misses: usize,
}

impl<'a> ValidityMemo<'a> {
    fn new(cache: &'a VrpCache, announcements: &'a [Announcement]) -> Self {
        ValidityMemo {
            cache,
            announcements,
            slots: vec![None; announcements.len()],
            hits: 0,
            misses: 0,
        }
    }

    /// Validity of every route seeded by announcement `ann`.
    fn classify(&mut self, ann: u32) -> RouteValidity {
        let slot = &mut self.slots[ann as usize];
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
    /// Route cells, prefix-major: `[prefix_idx * index.len() + as_idx]`.
    tables: Vec<Option<WorkRoute>>,
    /// Per cell, the last round it was put on the dirty list for — a
    /// cell enters a round's list at most once — or [`LOCKED`] for a
    /// cell holding its own announcement, which is never re-evaluated.
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
            stamp: vec![0; cells],
            paths: PathArena::default(),
            memo: ValidityMemo::new(cache, announcements),
            stats: ConvergenceStats::default(),
        }
    }

    /// Index of the cell of `(as_idx, prefix_idx)` in `tables`.
    fn cell(&self, as_idx: u32, prefix_idx: u32) -> usize {
        prefix_idx as usize * self.index.len() + as_idx as usize
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
            let next_round = u32::try_from(self.stats.rounds + 1).expect("round cap fits u32");
            next_dirty.clear();
            for (as_idx, prefix_idx, route) in updates.drain(..) {
                let cell = self.cell(as_idx, prefix_idx);
                self.tables[cell] = route;
                self.stats.route_updates += 1;
                self.mark_neighbors(as_idx, prefix_idx, next_round, &mut next_dirty);
            }
            std::mem::swap(&mut dirty, &mut next_dirty);
        }

        // Classify every held route once — from the memo, or for the
        // first time under `Ignore`, where selection never needed it —
        // which is also what the memo counters count.
        for route in self.tables.iter().flatten() {
            self.memo.classify(route.ann);
        }
        self.stats.memo_hits = self.memo.hits;
        self.stats.memo_misses = self.memo.misses;
        let state = RoutingState {
            ases: self.index.into_ases(),
            prefixes: self.prefixes,
            cells: self.tables,
            paths: self.paths,
            validity: self.memo.slots,
            policy: Some(self.policy),
        };
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
        let slab = self.cell(0, prefix_idx);
        for &(nbr, _) in self.index.neighbors(as_idx) {
            let cell = slab + nbr as usize;
            // Rounds only grow, so an earlier stamp is `< round`, and
            // `LOCKED` never is.
            if self.stamp[cell] < round {
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
        let mut origins: Vec<(u32, u32)> = Vec::with_capacity(announcements.len());
        for (ann, a) in announcements.iter().enumerate() {
            let as_idx = self.index.index_of(a.origin).expect("origin was interned");
            let prefix_idx =
                self.prefixes.binary_search(&a.prefix).expect("prefix interned") as u32;
            let cell = self.cell(as_idx, prefix_idx);
            // A repeated announcement changes nothing; the first one's
            // memo slot serves the cell.
            if self.stamp[cell] == LOCKED {
                continue;
            }
            self.tables[cell] = Some(WorkRoute {
                origin: a.origin,
                learned_from: None,
                path_len: 0,
                path: NO_PATH,
                ann: ann as u32,
                mask: 0,
            });
            self.stamp[cell] = LOCKED;
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
        let slab = self.cell(0, prefix_idx);
        let asn = self.index.asn(as_idx);
        let bit = path_bit(as_idx);

        // Best candidate so far, as (pref_key, neighbour's route,
        // role, neighbour's index). The key is computed from the neighbour's
        // stored route without materialising the candidate: validity
        // depends only on the seeding announcement, the candidate's
        // path length is the neighbour's plus one, and its next hop is
        // the neighbour.
        let mut best: Option<(CandidateKey, WorkRoute, Relationship, u32)> = None;
        for &(nbr, rel) in self.index.neighbors(as_idx) {
            let Some(route) = self.tables[slab + nbr as usize] else {
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
            // Loop prevention. The mask never misses an AS on the
            // path, so a clear bit settles it without walking.
            if route.origin == asn
                || (route.mask & bit != 0
                    && self.paths.path(route.path, route.path_len).contains(&asn))
            {
                continue;
            }
            // Import filter and validity preference. Under Ignore,
            // validity never influences selection, so classification is
            // deferred until convergence.
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
            let key = (vrank, rel.rank(), route.path_len + 1, nbr);
            // Strictly-less-than keeps the first of equals, exactly
            // like the reference engine — and since the key totally
            // orders candidates (distinct neighbours differ in the
            // next-hop component), "first" can never matter.
            if best.as_ref().is_none_or(|(bk, ..)| key < *bk) {
                best = Some((key, route, rel, nbr));
            }
        }

        let current = self.tables[slab + as_idx as usize];
        let Some((_, via, rel, nbr)) = best else {
            // Withdrawal iff something was selected before.
            return current.is_some().then_some(None);
        };
        let next_hop = self.index.asn(nbr);
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
            mask: via.mask | path_bit(nbr),
        }))
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

    /// A selected route as the oracle keeps it: with its own path.
    #[derive(Clone, PartialEq)]
    struct OracleRoute {
        prefix: Prefix,
        origin: Asn,
        path: Vec<Asn>,
        learned_from: Option<Relationship>,
        validity: RouteValidity,
    }

    fn pref_key(route: &OracleRoute, policy: RpkiPolicy) -> (u8, u8, usize, u32) {
        let rel_rank = route.learned_from.map(Relationship::rank).unwrap_or(0);
        let next_hop = route.path.first().map(|a| a.0).unwrap_or(0);
        (validity_rank(policy, route.validity), rel_rank, route.path.len(), next_hop)
    }

    impl RoutingState {
        /// The state holding `tables` (`AS → prefix → route`, no empty
        /// table), laid out as the worklist engine lays out its own:
        /// each route gets a memo slot of its own, and its path is
        /// consed into the arena origin first.
        fn from_tables(
            policy: RpkiPolicy,
            tables: BTreeMap<Asn, BTreeMap<Prefix, OracleRoute>>,
        ) -> RoutingState {
            let mut prefixes: Vec<Prefix> =
                tables.values().flat_map(|t| t.keys().copied()).collect();
            prefixes.sort_unstable();
            prefixes.dedup();
            let ases: Vec<Asn> = tables.keys().copied().collect();
            let n = ases.len();
            let mut state = RoutingState {
                cells: vec![None; n * prefixes.len()],
                ases,
                prefixes,
                policy: Some(policy),
                ..RoutingState::default()
            };
            for (as_idx, table) in tables.into_values().enumerate() {
                for (prefix, route) in table {
                    let prefix_idx = state.prefixes.binary_search(&prefix).expect("interned");
                    let mut path = NO_PATH;
                    let mut mask = 0;
                    for &hop in route.path.iter().rev() {
                        path = state.paths.cons(hop, path);
                        // A hop holding no route never selects, so its
                        // bit is never tested.
                        if let Ok(i) = state.ases.binary_search(&hop) {
                            mask |= path_bit(i as u32);
                        }
                    }
                    let ann = u32::try_from(state.validity.len()).expect("fewer than 2^32 routes");
                    state.validity.push(Some(route.validity));
                    state.cells[prefix_idx * n + as_idx] = Some(WorkRoute {
                        origin: route.origin,
                        learned_from: route.learned_from,
                        path_len: route.path.len() as u32,
                        path,
                        ann,
                        mask,
                    });
                }
            }
            state
        }
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
        let mut tables: BTreeMap<Asn, BTreeMap<Prefix, OracleRoute>> = BTreeMap::new();

        // Seed origins. An origin always carries its own announcement,
        // whatever the RPKI says (it is lying deliberately or it is the
        // legitimate holder; either way it announces).
        let prefixes: BTreeSet<Prefix> = announcements.iter().map(|a| a.prefix).collect();
        for ann in announcements {
            let validity = cache.classify(Route::new(ann.prefix, ann.origin));
            tables.entry(ann.origin).or_default().insert(
                ann.prefix,
                OracleRoute {
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
                    let mut best: Option<OracleRoute> = None;
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
                        let candidate = OracleRoute {
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
        // them so state comparison is structural, not historical.
        tables.retain(|_, table| !table.is_empty());
        Ok((RoutingState::from_tables(policy, tables), rounds))
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
    fn path_mask_aliasing_keeps_routes_the_reference_keeps() {
        // A 70-AS provider chain, 1 on top: ASes 1 and 65 (indices 0
        // and 64) set the same mask bit, as do 2 and 66, so the routes
        // flooding up from 70 and down from 1 carry the selecting AS's
        // bit without it being on the path. A VRP for somebody else
        // makes the mid-chain origin's prefix Invalid.
        const DEPTH: u32 = 70;
        let mut t = Topology::new();
        for i in 1..DEPTH {
            t.add_provider_customer(a(i), a(i + 1));
        }
        let anns = [
            Announcement { prefix: p("10.0.0.0/8"), origin: a(DEPTH) },
            Announcement { prefix: p("20.0.0.0/8"), origin: a(1) },
            Announcement { prefix: p("30.0.0.0/8"), origin: a(35) },
        ];
        let cache: VrpCache =
            [Vrp::new(p("10.0.0.0/8"), 8, a(DEPTH)), Vrp::new(p("30.0.0.0/8"), 8, a(64_999))]
                .into_iter()
                .collect();
        for policy in [RpkiPolicy::Ignore, RpkiPolicy::DropInvalid, RpkiPolicy::DeprefInvalid] {
            let state = propagate_checked(&t, &anns, policy, &cache);
            let up = state.best_route(a(1), p("10.0.0.0/8")).expect("the chain floods up");
            assert_eq!(up.path.to_vec(), (2..=DEPTH).map(a).collect::<Vec<_>>());
            assert_eq!((up.path.first(), up.path.last()), (Some(&a(2)), Some(&a(DEPTH))));
            assert!(up.path.contains(&a(65)) && !up.path.contains(&a(1)));
            let down = state.best_route(a(66), p("20.0.0.0/8")).expect("and down");
            assert_eq!(down.path.len(), 65);
            assert!(down.path.contains(&a(2)) && !down.path.contains(&a(66)));
            let held = state.best_route(a(1), p("30.0.0.0/8")).is_some();
            assert_eq!(held, policy != RpkiPolicy::DropInvalid, "{policy:?}");
        }
    }

    #[test]
    fn a_route_prints_as_it_did_with_an_owned_path() {
        let t = chain();
        let cache: VrpCache = [Vrp::new(p("10.0.0.0/8"), 8, a(3))].into_iter().collect();
        let state = propagate_checked(
            &t,
            &[Announcement { prefix: p("10.0.0.0/8"), origin: a(3) }],
            RpkiPolicy::DropInvalid,
            &cache,
        );
        assert_eq!(
            format!("{:?}", state.best_route(a(1), p("10.0.0.0/8")).unwrap()),
            "SelectedRoute { prefix: Prefix(10.0.0.0/8), origin: Asn(3), \
             path: [Asn(2), Asn(3)], learned_from: Some(Customer), validity: Valid }"
        );
        assert_eq!(
            format!("{:?}", state.best_route(a(3), p("10.0.0.0/8")).unwrap()),
            "SelectedRoute { prefix: Prefix(10.0.0.0/8), origin: Asn(3), \
             path: [], learned_from: None, validity: Valid }"
        );
    }

    #[test]
    fn default_state_holds_no_routes() {
        // The state a caller holds before its first propagation.
        let state = RoutingState::default();
        assert_eq!(state.ases_with_routes(), 0);
        assert_eq!(state.best_route(a(1), p("10.0.0.0/8")), None);
        assert_eq!(state.table(a(1)).count(), 0);
        assert_eq!(state.policy(), None);
        assert_eq!(state, RoutingState::default());
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
