//! Section 6: closing the loop — BGP ⇒ the RPKI.
//!
//! RPKI objects travel over rsync over TCP/IP, whose routes the RPKI
//! itself validates (Figure 1). [`LoopbackWorld`] wires that circle
//! together explicitly:
//!
//! 1. validate with the current cache contents;
//! 2. propagate BGP under the relying party's policy;
//! 3. a repository is *fetchable* only if the relying party's traffic
//!    to the repository's address actually reaches the repository's AS;
//! 4. re-sync from the fetchable repositories only; repeat to a fixed
//!    point.
//!
//! Side Effect 7 falls out: corrupt one fetch of the ROA that covers a
//! repository's own address, and the fixed point settles in a state
//! where the relying party can never fetch the repair — even after the
//! fault clears — because the route to the repository stays invalid
//! (under drop-invalid) without the very ROA stored there.

use std::collections::BTreeSet;

use bgp_sim::{propagate_with_stats, Announcement, ConvergenceStats, RpkiPolicy, Topology};
use ipres::Asn;
use netsim::{Network, NodeId};
use rpki_objects::{Moment, TrustAnchorLocator};
use rpki_repo::RepoRegistry;
use rpki_rp::{ResilientState, Vrp};
use serde::Serialize;

use crate::fixtures::{asn, World};
use crate::validate::{Fetch, ValidationOptions, VantagePoint};

/// The converged outcome of one loop evaluation.
#[derive(Debug, Clone, Serialize)]
pub struct LoopbackOutcome {
    /// Iterations until the fixed point (≥ 1).
    pub iterations: usize,
    /// Hosts the relying party could fetch from in the final state.
    pub reachable_repos: Vec<String>,
    /// Hosts it could not.
    pub unreachable_repos: Vec<String>,
    /// The final validated VRPs.
    pub vrps: Vec<Vrp>,
    /// Total BGP propagation work across all loop iterations.
    pub propagation: ConvergenceStats,
}

impl LoopbackOutcome {
    /// Whether `host` ended up fetchable.
    pub fn can_fetch(&self, host: &str) -> bool {
        self.reachable_repos.iter().any(|h| h == host)
    }
}

/// A world whose transport is gated by its own route validity.
pub struct LoopbackWorld<'a> {
    /// The simulated network.
    pub net: &'a mut Network,
    /// The repositories (some of which declare `hosted_at`).
    pub repos: &'a RepoRegistry,
    /// The relying party's node.
    pub rp_node: NodeId,
    /// The relying party's AS in the topology.
    pub rp_asn: Asn,
    /// The trust anchors.
    pub tals: &'a [TrustAnchorLocator],
    /// The AS topology.
    pub topology: &'a Topology,
    /// Everyone's BGP announcements.
    pub announcements: &'a [Announcement],
    /// The relying party's local policy.
    pub policy: RpkiPolicy,
}

impl World {
    /// The model closed into Figure 1's loop: its own network,
    /// repositories, topology and announcements, with the relying party
    /// ([`asn::RELYING_PARTY`]) routing under `policy`. Model only: a
    /// [`World::tree`] has no topology to route over.
    pub fn loopback(&mut self, policy: RpkiPolicy) -> LoopbackWorld<'_> {
        LoopbackWorld {
            net: &mut self.net,
            repos: &self.repos,
            rp_node: self.rp_node,
            rp_asn: asn::RELYING_PARTY,
            tals: std::slice::from_ref(&self.tal),
            topology: &self.topology,
            announcements: &self.announcements,
            policy,
        }
    }
}

impl LoopbackWorld<'_> {
    /// Hosts fetchable under a given VRP cache: those without declared
    /// addresses are always fetchable (out-of-band hosting); declared
    /// ones need the relying party's traffic to their address to reach
    /// their AS.
    fn fetchable_hosts(&self, vrps: &[Vrp], work: &mut ConvergenceStats) -> BTreeSet<String> {
        let cache = vrps.iter().copied().collect();
        let (state, stats) =
            propagate_with_stats(self.topology, self.announcements, self.policy, &cache)
                .expect("loopback topology converges");
        work.absorb(stats);
        self.repos
            .iter()
            .filter(|repo| match repo.hosted_at() {
                None => true,
                Some((prefix, origin)) => {
                    state.forward(self.rp_asn, prefix.addr()).delivered_to(origin)
                }
            })
            .map(|repo| repo.host().to_owned())
            .collect()
    }

    /// Runs the loop from an initial cache state to its fixed point.
    ///
    /// `initial_vrps` seeds the route validity used for the *first*
    /// sync round (the relying party's prior cache). The fixed point is
    /// reached when the set of fetchable hosts stops changing.
    ///
    /// With `resilient`, the loop runs the resilient fetch pipeline in
    /// place of bare syncs: each directory retries under
    /// [`SyncPolicy::default`](rpki_repo::SyncPolicy::default), and the
    /// state supplies last-good snapshots when the gated transport
    /// fails. This is the Side Effect 7 defense experiment: a relying
    /// party whose cache bridges the transient fault never hands BGP
    /// the degraded VRP set, so the circular trap cannot latch.
    pub fn run(
        &mut self,
        initial_vrps: &[Vrp],
        now: Moment,
        mut resilient: Option<&mut ResilientState>,
    ) -> LoopbackOutcome {
        let mut vrps: Vec<Vrp> = initial_vrps.to_vec();
        let mut propagation = ConvergenceStats::default();
        let mut fetchable = self.fetchable_hosts(&vrps, &mut propagation);
        let mut iterations = 0;
        loop {
            iterations += 1;
            // Snapshot fallback can add one extra transition (stale
            // data un-gates a host whose fresh fetch then changes the
            // VRPs), hence the +2.
            assert!(iterations <= 2 + self.repos.iter().count(), "loopback failed to converge");

            // Gate the transport on current fetchability.
            let gate: BTreeSet<NodeId> = self
                .repos
                .iter()
                .filter(|r| fetchable.contains(r.host()))
                .map(|r| r.node())
                .collect();
            let rp = self.rp_node;
            self.net.set_reachability(Box::new(move |from, to| {
                // Only constrain the RP↔repo paths; and only repo-bound
                // requests (responses follow the same gate since both
                // endpoints are checked symmetrically).
                if from == rp {
                    gate.contains(&to)
                } else if to == rp {
                    gate.contains(&from)
                } else {
                    true
                }
            }));

            let mut opts = ValidationOptions::at(now);
            if let Some(state) = resilient.as_deref_mut() {
                opts = opts.fetch(Fetch::Retry).stale_cache(state);
            }
            let new_vrps = opts
                .run(VantagePoint {
                    net: self.net,
                    repos: self.repos,
                    node: self.rp_node,
                    tals: self.tals,
                })
                .vrps;
            let new_fetchable = self.fetchable_hosts(&new_vrps, &mut propagation);
            let settled = new_fetchable == fetchable && new_vrps == vrps;
            vrps = new_vrps;
            fetchable = new_fetchable;
            if settled {
                break;
            }
        }
        self.net.clear_reachability();

        let all_hosts: BTreeSet<String> = self.repos.iter().map(|r| r.host().to_owned()).collect();
        LoopbackOutcome {
            iterations,
            reachable_repos: fetchable.iter().cloned().collect(),
            unreachable_repos: all_hosts.difference(&fetchable).cloned().collect(),
            vrps,
            propagation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::MODEL_SEED;

    /// Side Effect 7, end to end. Premises per Section 6: route
    /// validity as in Figure 5 (right), Continental hosts its own
    /// repository at 63.174.23.0 / AS 17054, relying party drops
    /// invalid routes.
    #[test]
    fn transient_fault_becomes_persistent() {
        let mut w = World::model(MODEL_SEED);
        w.add_figure5_right_roa(Moment(2));

        // Healthy start: full cache.
        let healthy = w.validate_direct(Moment(3));
        let full_vrps = healthy.vrps.clone();

        let mut world = w.loopback(RpkiPolicy::DropInvalid);

        // With the full cache, everything is fetchable and stays so.
        let outcome = world.run(&full_vrps, Moment(3), None);
        assert!(outcome.can_fetch("rpki.continental.example"), "{outcome:?}");
        assert_eq!(outcome.vrps, full_vrps);

        // The transient fault: the relying party's cache lost the
        // covering /20 ROA (e.g. one corrupted fetch — Side Effect 6).
        let degraded: Vec<Vrp> =
            full_vrps.iter().copied().filter(|v| v.asn != asn::CONTINENTAL).collect();

        // Even though the repository is healthy again and serves the
        // ROA, the fixed point never recovers it: the route to the
        // repository is invalid without the ROA that is stored there.
        let outcome = world.run(&degraded, Moment(4), None);
        assert!(!outcome.can_fetch("rpki.continental.example"), "{outcome:?}");
        assert!(!outcome.vrps.iter().any(|v| v.asn == asn::CONTINENTAL));
        // Everyone else is unaffected.
        assert!(outcome.can_fetch("rpki.sprint.example"));
        assert!(outcome.can_fetch("rpki.etb.example"));
    }

    /// The Side Effect 7 trap with the resilient pipeline armed: the
    /// relying party's last-good snapshot bridges the gated transport,
    /// so the degraded cache never reaches BGP and the fixed point
    /// recovers even under drop-invalid. The bare loop over the same
    /// degraded cache stays trapped — the contrast is the defense.
    #[test]
    fn transient_fault_recovers_with_resilient_source() {
        use rpki_rp::{ResilienceConfig, ResilientState};

        let mut w = World::model(MODEL_SEED);
        w.add_figure5_right_roa(Moment(2));
        let full_vrps = w.validate_direct(Moment(3)).vrps;

        // Warm the relying party's snapshot cache while the world is
        // healthy (any prior successful validation run does this).
        let mut state = ResilientState::new(ResilienceConfig::default());
        w.validate_with(
            crate::ValidationOptions::at(Moment(3))
                .fetch(crate::Fetch::Retry)
                .stale_cache(&mut state),
        );

        let degraded: Vec<Vrp> =
            full_vrps.iter().copied().filter(|v| v.asn != asn::CONTINENTAL).collect();

        let mut world = w.loopback(RpkiPolicy::DropInvalid);

        let outcome = world.run(&degraded, Moment(4), Some(&mut state));
        assert!(outcome.can_fetch("rpki.continental.example"), "{outcome:?}");
        assert_eq!(outcome.vrps, full_vrps);

        // Control: the bare loop over the same degraded cache is still
        // the persistent trap of `transient_fault_becomes_persistent`.
        let outcome = world.run(&degraded, Moment(4), None);
        assert!(!outcome.can_fetch("rpki.continental.example"), "{outcome:?}");
    }

    /// Under a healthy network the resilient pipeline has nothing to
    /// bridge: the walk a resilient `run` assembles (`retry` +
    /// `stale_cache`) settles exactly where the bare walk does.
    #[test]
    fn resilient_loop_equals_bare_loop_when_healthy() {
        let mut bare = World::model(MODEL_SEED);
        let mut armed = World::model(MODEL_SEED);
        for w in [&mut bare, &mut armed] {
            w.add_figure5_right_roa(Moment(2));
        }
        let full_vrps = bare.validate_direct(Moment(3)).vrps;
        let plain = bare.loopback(RpkiPolicy::DropInvalid).run(&full_vrps, Moment(3), None);
        let mut state = ResilientState::default();
        let resilient =
            armed.loopback(RpkiPolicy::DropInvalid).run(&full_vrps, Moment(3), Some(&mut state));
        assert_eq!(resilient.vrps, full_vrps);
        assert_eq!(format!("{plain:?}"), format!("{resilient:?}"));
    }

    /// The same fault under depref-invalid self-heals: the invalid
    /// route is still usable, the ROA is re-fetched, validity recovers.
    #[test]
    fn depref_policy_recovers() {
        let mut w = World::model(MODEL_SEED);
        w.add_figure5_right_roa(Moment(2));
        let healthy = w.validate_direct(Moment(3));
        let full_vrps = healthy.vrps.clone();
        let degraded: Vec<Vrp> =
            full_vrps.iter().copied().filter(|v| v.asn != asn::CONTINENTAL).collect();

        let mut world = w.loopback(RpkiPolicy::DeprefInvalid);
        let outcome = world.run(&degraded, Moment(4), None);
        assert!(outcome.can_fetch("rpki.continental.example"), "{outcome:?}");
        assert_eq!(outcome.vrps, full_vrps);
    }

    /// Without the Figure 5 (right) covering ROA, the missing /20 ROA
    /// leaves the repo route *unknown* (not invalid), so even
    /// drop-invalid recovers — condition (b) of the paper's circularity
    /// recipe really is necessary.
    #[test]
    fn no_covering_roa_no_trap() {
        let mut w = World::model(MODEL_SEED);
        let healthy = w.validate_direct(Moment(3));
        let full_vrps = healthy.vrps.clone();
        let degraded: Vec<Vrp> =
            full_vrps.iter().copied().filter(|v| v.asn != asn::CONTINENTAL).collect();

        let mut world = w.loopback(RpkiPolicy::DropInvalid);
        let outcome = world.run(&degraded, Moment(4), None);
        assert!(outcome.can_fetch("rpki.continental.example"), "{outcome:?}");
        assert_eq!(outcome.vrps, full_vrps);
    }
}
