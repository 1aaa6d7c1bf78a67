//! The relying party's contract, stated once and checked by one
//! harness over the whole option lattice.
//!
//! A case is a world seed, one or more relying parties and a list of
//! [`Step`]s. Each party is an option chain through
//! [`ValidationOptions`]: a transport (one rsync session, rsync under
//! retries, verified or trusting RRDP), a memo (none, Full, Probe), and
//! whether the degenerate schedule and the stale cache wrap it. The
//! steps are played against one [`World::tree`] that every party
//! validates, each from its own node. The oracle is a cold walk over a
//! perfect transport ([`World::validate_direct`]). After a warm-up validation and after every step:
//!
//! 1. **No panic.** A proptest runner catches one and shrinks it like
//!    any other failure.
//! 2. **Same run.** In a quiet step — no transport fault armed, and the
//!    network clock moved past every breaker's cool-down when the last
//!    one was lifted — each party's [`ValidationRun`] equals the
//!    oracle's. Equal runs emit equal JSONL: `run.emit` renders the run
//!    alone, while the per-layer `rrdp`, `schedule` and `incremental`
//!    events differ by design and are outside the contract. A degenerate
//!    schedule delegates every visit, in every step.
//! 3. **Same router state.** Each party feeds an RTR server: its memo's
//!    delta when it has a memo, its VRP set otherwise, and a snapshot
//!    after a restart. A delta bumps the serial by one exactly when it
//!    is not empty, and the server then holds the run's VRP set. A
//!    router that is not cut off holds that set after syncing, and was
//!    sent a `CacheReset` if the party's session changed (an RRDP
//!    session reset, a restart) since it last synced.
//! 4. **One view on every transport.** In a quiet step, directory by
//!    directory, an RRDP client following the delta chain holds what a
//!    fresh client and a complete rsync sync hold, and its fallback
//!    causes partition its snapshot syncs.
//! 5. **Poison stays in its subtree.** Every VRP issued outside a
//!    poisoned point's subtree validates as in a shadow world that saw
//!    every step but the poison.
//! 6. **Restarts are safe.** A party that restarts loses every layer's
//!    state and its RTR session; 2 and 3 hold afterwards.
//!
//! [`play`] checks one case. The suites that call it choose the
//! chains and the step mix: `differential.rs` draws both at random, the
//! others fix them to their subject.

#![allow(dead_code)]

use std::collections::BTreeSet;
use std::ops::Range;

use netsim::NodeId;
use proptest::prelude::*;
use rpki_attacks::CorpusKind;
use rpki_ca::{ChurnConfig, ChurnEngine};
use rpki_objects::Moment;
use rpki_repo::{
    rrdp_sync_dir, sync_dir, PubdPolicy, Repository, RetentionPolicy, RrdpClientState,
};
use rpki_risk::{Fetch, RrdpMode, ValidationOptions, VantagePoint, World};
use rpki_rp::{
    ClientAction, ResilientState, RevalidationMode, RtrClient, RtrServer, SchedulePlan,
    SchedulerState, ValidationRun, ValidationState, VrpUpdate,
};
use rpkisim_crypto::KeyId;

use crate::common::{self, Op};

/// Publication points of the tree every case grows: depth 2,
/// branching 3, two ROAs per CA.
pub const CAS: usize = 13;

/// Network seconds that pass when a fault window closes: past the
/// stale cache's breaker cool-down (`ResilienceConfig::default`, 3 600).
const RECOVERY: u64 = 7_200;

/// The delta history each party's RTR server keeps.
const RTR_HISTORY: usize = 8;

/// The serial every party's RTR server starts at: three bumps short of
/// the RFC 1982 wrap, so every case crosses it within a few non-empty
/// deltas.
pub const RTR_START_SERIAL: u32 = u32::MAX - 2;

/// One relying party's option chain: a value on every axis.
#[derive(Debug, Clone, Copy)]
pub struct Chain {
    pub fetch: Transport,
    pub memo: Option<RevalidationMode>,
    pub scheduled: bool,
    pub stale: bool,
}

impl Chain {
    /// The transport alone: no memo, schedule or stale cache.
    pub const fn bare(fetch: Transport) -> Self {
        Chain { fetch, memo: None, scheduled: false, stale: false }
    }
}

/// The transport axis ([`Fetch`] without the state it borrows).
#[derive(Debug, Clone, Copy)]
pub enum Transport {
    Once,
    Retry,
    Rrdp(RrdpMode),
}

/// One thing that happens between two validations.
#[derive(Debug, Clone, Copy)]
pub enum Step {
    /// An authority- or repository-side mutation ([`common::Op`]).
    World(Op),
    /// One step of the steady churn mix over every CA.
    Churn,
    /// A corpus case published at CA `ca`'s point, signed with its key.
    Poison { ca: usize, kind: CorpusKind, seed: u64 },
    /// A transport fault on every party's link, armed for `steps`
    /// steps, this one included.
    Fault { fault: Fault, steps: u8 },
    /// Every publication point restarts its RRDP session.
    SessionReset,
    /// The server compacts every `interval` serials and keeps deltas
    /// under `retention`.
    Pubd { interval: u64, retention: RetentionPolicy },
    /// The clock jumps this many seconds.
    Advance(u64),
    /// Party `rp` crashes and restarts with no state.
    Restart(usize),
    /// Party `rp`'s router hears nothing for `steps` steps.
    RtrPartition { rp: usize, steps: u8 },
}

#[derive(Debug, Clone, Copy)]
pub enum Fault {
    Partition,
    Loss,
    Corruption,
    RrdpOffline,
}

/// The step kinds [`arb_steps`] draws: the [`common::Op`] mutations
/// are `0..6`, every kind is `0..14`.
pub const WORLD: Range<u8> = 0..6;
pub const EVERY_STEP: Range<u8> = 0..14;

pub fn arb_chain() -> impl Strategy<Value = Chain> {
    (0u8..4, 0u8..3, 0u8..2, 0u8..2).prop_map(|(fetch, memo, scheduled, stale)| Chain {
        fetch: [
            Transport::Once,
            Transport::Retry,
            Transport::Rrdp(RrdpMode::Verified),
            Transport::Rrdp(RrdpMode::Trusting),
        ][usize::from(fetch)],
        memo: [None, Some(RevalidationMode::Full), Some(RevalidationMode::Probe)]
            [usize::from(memo)],
        scheduled: scheduled == 1,
        stale: stale == 1,
    })
}

/// `len` steps of the kinds in `kinds`. Every choice at zero is a
/// renewal of the trust anchor's ROA.
pub fn arb_steps(kinds: Range<u8>, len: Range<usize>) -> impl Strategy<Value = Vec<Step>> {
    let step = (kinds, 0..CAS, 0u8..16, 0u8..32).prop_map(|(kind, ca, a, b)| {
        let (rp, steps) = (ca % 4, 1 + a % 3);
        match kind {
            0 => Step::World(Op::Renew(ca)),
            1 => Step::World(Op::Add(ca, a % 8)),
            2 => Step::World(Op::Withdraw(ca)),
            3 => Step::World(Op::Revoke(ca)),
            4 => Step::World(Op::Takedown(ca)),
            5 => Step::World(Op::Corrupt(ca)),
            6 => Step::Churn,
            7 => Step::Poison {
                ca,
                kind: CorpusKind::ALL[usize::from(a) % CorpusKind::ALL.len()],
                seed: u64::from(b),
            },
            8 => Step::Fault {
                fault: [Fault::Partition, Fault::Loss, Fault::Corruption, Fault::RrdpOffline]
                    [usize::from(b % 4)],
                steps,
            },
            9 => Step::SessionReset,
            10 => pubd(a, b),
            11 => Step::Advance([60, 3_600, 86_400, 2 * 86_400][usize::from(b % 4)]),
            12 => Step::Restart(rp),
            _ => Step::RtrPartition { rp, steps },
        }
    });
    proptest::collection::vec(step, len)
}

/// A publication-server policy: compaction every one to twelve
/// serials, deltas kept by count, by bytes, or without bound.
pub fn arb_pubd() -> impl Strategy<Value = Step> {
    (0u8..16, 0u8..32).prop_map(|(a, b)| pubd(a, b))
}

fn pubd(a: u8, b: u8) -> Step {
    let retention = match b % 3 {
        0 => RetentionPolicy::Count { max_deltas: 1 + usize::from(b) },
        1 => RetentionPolicy::Bytes { max_bytes: 64 + 4_096 * u64::from(a) },
        _ => RetentionPolicy::Unbounded,
    };
    Step::Pubd { interval: 1 + u64::from(a % 12), retention }
}

/// One relying party: its chain, the state each layer keeps, and its
/// RTR server with one router behind it.
pub struct Rp {
    chain: Chain,
    node: NodeId,
    memo: Option<ValidationState>,
    pub rrdp: RrdpClientState,
    sched: SchedulerState,
    stale: ResilientState,
    pub server: RtrServer,
    session: u16,
    /// The RRDP epoch the server's session was started for.
    epoch: u64,
    /// Set when the server (re)started: its next update is a snapshot.
    cold_server: bool,
    router: RtrClient,
    /// Steps the router stays cut off for.
    cut_off: u8,
    /// The `CacheReset`s the router was sent.
    pub resets: usize,
}

impl Rp {
    fn new(chain: Chain, node: NodeId) -> Self {
        Rp {
            chain,
            node,
            memo: chain.memo.map(ValidationState::new),
            rrdp: RrdpClientState::new(),
            sched: SchedulerState::new(),
            stale: ResilientState::default(),
            server: RtrServer::new_at(1, RTR_HISTORY, RTR_START_SERIAL),
            session: 1,
            epoch: 0,
            cold_server: true,
            router: RtrClient::new(),
            cut_off: 0,
            resets: 0,
        }
    }

    fn validate(&mut self, w: &mut World, at: Moment) -> ValidationRun {
        let mut opts = ValidationOptions::at(at).fetch(match self.chain.fetch {
            Transport::Once => Fetch::Once,
            Transport::Retry => Fetch::Retry,
            Transport::Rrdp(mode) => Fetch::Rrdp(&mut self.rrdp, mode),
        });
        if self.chain.stale {
            opts = opts.stale_cache(&mut self.stale);
        }
        if self.chain.scheduled {
            opts = opts.scheduled(SchedulePlan::degenerate(), &mut self.sched);
        }
        if let Some(memo) = self.memo.as_mut() {
            opts = opts.incremental(memo);
        }
        opts.run(VantagePoint {
            net: &mut w.net,
            repos: &w.repos,
            node: self.node,
            tals: std::slice::from_ref(&w.tal),
        })
    }

    /// Publishes `run` to the party's RTR server and, unless the router
    /// is cut off, syncs the router.
    fn feed(&mut self, run: &ValidationRun) -> Result<(), TestCaseError> {
        if self.rrdp.epoch() != self.epoch {
            // An upstream RRDP session reset ends the RTR session too.
            self.epoch = self.rrdp.epoch();
            self.session += 1;
            self.server.reset_session(self.session);
        }
        match self.memo.as_ref().filter(|_| !self.cold_server) {
            Some(memo) => {
                let delta = memo.last_delta();
                let before = self.server.serial();
                let notify = self.server.publish(VrpUpdate::Delta(delta));
                prop_assert_eq!(notify.is_some(), !delta.is_empty(), "serial bump vs delta");
                let bump = u32::from(!delta.is_empty());
                prop_assert_eq!(self.server.serial(), before.wrapping_add(bump));
            }
            None => {
                self.server.publish(VrpUpdate::snapshot(run.vrps.iter().copied()));
            }
        }
        prop_assert_eq!(&self.server.vrps(), &run.vrps, "the server's set is not the run's");
        self.cold_server = false;
        if self.cut_off > 0 {
            self.cut_off -= 1;
            return Ok(());
        }
        let stale_session = self.router.session().is_some_and(|s| s != self.server.session());
        let reset = rtr_sync(&mut self.router, &self.server);
        self.resets += usize::from(reset);
        prop_assert!(reset || !stale_session, "a changed session reached the router unreset");
        prop_assert_eq!(self.router.vrp_set(), &run.vrps, "the router's set is not the run's");
        Ok(())
    }

    /// The party crashes: every layer comes back cold, and the RTR
    /// server restarts under a new session. The router is another box
    /// and keeps its state.
    fn restart(&mut self) {
        let mut fresh = Rp::new(self.chain, self.node);
        fresh.router = std::mem::take(&mut self.router);
        fresh.cut_off = self.cut_off;
        fresh.resets = self.resets;
        fresh.session = self.session + 1;
        fresh.server = RtrServer::new_at(fresh.session, RTR_HISTORY, RTR_START_SERIAL);
        *self = fresh;
    }
}

/// One direct-call RTR sync — query, answer, apply — repeated after a
/// reset. Returns whether the server demanded one.
fn rtr_sync(router: &mut RtrClient, server: &RtrServer) -> bool {
    let mut reset = false;
    for _ in 0..3 {
        let mut again = false;
        for pdu in server.handle(&router.poll()) {
            again |= router.handle(&pdu) == ClientAction::Reset;
        }
        reset |= again;
        if !again {
            break;
        }
    }
    reset
}

/// CA `ca` and its descendants, which preorder numbers consecutively.
fn subtree(ca: usize) -> Range<usize> {
    let size = match ca {
        0 => CAS,
        _ if (ca - 1).is_multiple_of(4) => 4,
        _ => 1,
    };
    ca..ca + size
}

/// Arms or lifts `fault` on every party's link to the repository.
fn arm(w: &mut World, parties: &[NodeId], fault: Fault, on: bool) {
    const HOST: &str = "rpki.bench.example";
    let repo = w.repos.node_of(HOST).expect("the bench host");
    let p = if on { 0.2 } else { 0.0 };
    for &rp in parties {
        let faults = &mut w.net.faults;
        match fault {
            Fault::Partition if on => faults.partition(rp, repo),
            Fault::Partition => faults.heal(rp, repo),
            Fault::Loss => {
                faults.set_loss(repo, rp, p);
                faults.set_loss(rp, repo, p);
            }
            Fault::Corruption => faults.set_corruption(repo, rp, p),
            Fault::RrdpOffline => {}
        }
    }
    if let Fault::RrdpOffline = fault {
        w.repos.by_host_mut(HOST).expect("the bench host").set_rrdp_offline(on);
    }
}

/// Applies `f` to every repository a CA publishes at, once each.
fn each_host(w: &mut World, mut f: impl FnMut(&mut Repository)) {
    let hosts: BTreeSet<String> = w.cas.iter().map(|ca| ca.sia().host().to_owned()).collect();
    for host in &hosts {
        f(w.repos.by_host_mut(host).expect("a CA's host is registered"));
    }
}

/// Contract 4: directory by directory, a client following the delta
/// chain holds what a fresh client and a complete rsync sync hold.
fn one_view(
    w: &mut World,
    witness: NodeId,
    chained: &mut RrdpClientState,
) -> Result<(), TestCaseError> {
    for ca in 0..w.cas.len() {
        let dir = w.cas[ca].sia().clone();
        let sync = |w: &mut World, state: &mut RrdpClientState| {
            rrdp_sync_dir(&mut w.net, &w.repos, witness, &dir, state, None).map(|(out, _)| out)
        };
        let via_chain = sync(w, chained);
        let via_snapshot = sync(w, &mut RrdpClientState::new());
        let via_rsync = sync_dir(&mut w.net, &w.repos, witness, &dir);
        prop_assert_eq!(&via_chain, &via_snapshot, "{}: delta chain vs snapshot", dir);
        prop_assert_eq!(via_chain, Ok(via_rsync), "{}: delta chain vs rsync", dir);
    }
    causes_partition(chained)
}

/// Every snapshot sync `state` took has exactly one recorded cause, and
/// none failed.
pub fn causes_partition(state: &RrdpClientState) -> Result<(), TestCaseError> {
    let stats = state.stats();
    prop_assert_eq!(stats.failures, 0);
    prop_assert_eq!(
        stats.fallback_initial
            + stats.fallback_evicted
            + stats.fallback_session_reset
            + stats.fallback_chain_gap,
        stats.snapshot_syncs,
        "fallback causes must partition the snapshot syncs: {:?}",
        stats
    );
    Ok(())
}

/// Contract 5: every VRP issued outside the poisoned subtrees is the
/// shadow world's.
fn contained(
    w: &World,
    oracle: &ValidationRun,
    shadow: &ValidationRun,
    poisoned: &BTreeSet<usize>,
) -> Result<(), TestCaseError> {
    let blast: BTreeSet<KeyId> =
        poisoned.iter().flat_map(|&ca| subtree(ca)).map(|i| w.cas[i].key_id()).collect();
    let outside = |run: &ValidationRun| -> BTreeSet<_> {
        run.vrp_records.iter().filter(|r| !blast.contains(&r.issuer)).map(|r| r.vrp).collect()
    };
    prop_assert_eq!(outside(oracle), outside(shadow), "poison at {:?} escaped", poisoned);
    Ok(())
}

/// Plays `steps` against the parties `chains`, checking the contract
/// after the warm-up and after every step. Returns the parties as the
/// last step left them.
pub fn play(seed: u64, chains: &[Chain], steps: &[Step]) -> Result<Vec<Rp>, TestCaseError> {
    let world = || World::tree(seed, 2, 3, 2);
    let (mut w, mut shadow) = (world(), world());
    let mut churn = ChurnEngine::new(seed, ChurnConfig::steady());
    let mut shadow_churn = ChurnEngine::new(seed, ChurnConfig::steady());
    let mut rps: Vec<Rp> = chains
        .iter()
        .enumerate()
        .map(|(i, &chain)| Rp::new(chain, w.net.add_node(&format!("rp{i}"))))
        .collect();
    let parties: Vec<NodeId> = rps.iter().map(|rp| rp.node).collect();
    let witness = w.net.add_node("witness");
    let mut chained = RrdpClientState::new();
    let mut poisoned = BTreeSet::new();
    let mut fault: Option<(Fault, u8)> = None;
    let mut t = 0;
    for step in std::iter::once(None).chain(steps.iter().copied().map(Some)) {
        t += 60;
        let now = Moment(t);
        if let Some((armed, left)) = fault.take() {
            if left > 1 {
                fault = Some((armed, left - 1));
            } else {
                arm(&mut w, &parties, armed, false);
                w.net.advance_to(w.net.now() + RECOVERY);
            }
        }
        let n = rps.len();
        match step {
            None => {}
            Some(Step::World(op)) => {
                common::apply(&mut w, op, now);
                common::apply(&mut shadow, op, now);
                if let Op::Renew(ca) | Op::Add(ca, _) = op {
                    poisoned.remove(&ca);
                }
            }
            Some(Step::Churn) => {
                for ca in w.run_churn(&mut churn, now).touched {
                    poisoned.remove(&ca);
                }
                shadow.run_churn(&mut shadow_churn, now);
            }
            Some(Step::Poison { ca, kind, seed }) => {
                let repo = w.repos.by_host_mut(w.cas[ca].sia().host()).expect("the CA's host");
                rpki_attacks::poison(repo, &w.cas[ca], kind, seed, now);
                poisoned.insert(ca);
            }
            Some(Step::Fault { fault: new, steps }) => {
                if let Some((armed, _)) = fault.take() {
                    arm(&mut w, &parties, armed, false);
                }
                arm(&mut w, &parties, new, true);
                fault = Some((new, steps));
            }
            Some(Step::SessionReset) => {
                each_host(&mut w, Repository::rrdp_reset_sessions);
            }
            Some(Step::Pubd { interval, retention }) => {
                let policy = PubdPolicy::compacted(interval).with_retention(retention);
                each_host(&mut w, |repo| repo.set_pubd_policy(policy));
            }
            Some(Step::Advance(secs)) => {
                t += secs;
                w.net.advance_to(w.net.now() + secs);
            }
            Some(Step::Restart(rp)) => rps[rp % n].restart(),
            Some(Step::RtrPartition { rp, steps }) => rps[rp % n].cut_off = steps,
        }

        let quiet = fault.is_none();
        let at = Moment(t + 30);
        let oracle = w.validate_direct(at);
        for (i, rp) in rps.iter_mut().enumerate() {
            let run = rp.validate(&mut w, at);
            if rp.chain.scheduled {
                // The degenerate plan delegates every visit, so the
                // schedule costs the wire what the bare chain costs.
                let r = rp.sched.last_run();
                prop_assert_eq!((r.not_due, r.deferred, r.backoff_skips), (0, 0, 0));
            }
            if quiet {
                prop_assert_eq!(&run, &oracle, "party {} {:?} after {:?}", i, rp.chain, step);
            }
            rp.feed(&run)?;
        }
        if !poisoned.is_empty() {
            contained(&w, &oracle, &shadow.validate_direct(at), &poisoned)?;
        }
        if quiet {
            one_view(&mut w, witness, &mut chained)?;
        }
    }
    Ok(rps)
}

/// [`play`] outside a proptest: panics with the broken clause.
pub fn must_play(seed: u64, chains: &[Chain], steps: &[Step]) -> Vec<Rp> {
    play(seed, chains, steps).unwrap_or_else(|e| panic!("seed {seed}: {e}"))
}
