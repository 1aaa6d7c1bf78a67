//! Table 6: the local-policy tradeoff.
//!
//! > "the local policy that is best at protecting against problems with
//! > BGP is worst at protecting against problems with RPKI."
//!
//! Two threat scenarios are run against the same topology and victim:
//!
//! - **Routing attack** — a subprefix hijack of the victim's prefix,
//!   with the victim's ROA intact;
//! - **RPKI manipulation** — the victim's ROA is whacked while a
//!   covering ROA remains (so the victim's route is *invalid*), and no
//!   hijacker is present.
//!
//! For each scenario × each relying-party policy, the table reports the
//! fraction of ASes whose traffic to the victim still reaches it.

use bgp_sim::{propagate_with_stats, Announcement, ConvergenceStats, RpkiPolicy, Topology};
use ipres::{Addr, Asn};
use rpki_objects::Moment;
use rpki_rp::{Vrp, VrpCache};
use serde::Serialize;

use crate::fixtures::{asn, World};

/// Reachability outcomes of one scenario under every policy.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioOutcome {
    /// Scenario label.
    pub scenario: &'static str,
    /// `(policy, fraction of ASes reaching the victim)`.
    pub reachability: Vec<(RpkiPolicy, f64)>,
}

/// The full Table 6.
#[derive(Debug, Clone, Serialize)]
pub struct TradeoffTable {
    /// One row per scenario.
    pub rows: Vec<ScenarioOutcome>,
    /// Total propagation work across all scenario × policy runs.
    pub convergence: ConvergenceStats,
}

impl TradeoffTable {
    /// The reachability for a scenario/policy pair.
    pub fn get(&self, scenario: &str, policy: RpkiPolicy) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.scenario == scenario)
            .and_then(|r| r.reachability.iter().find(|(p, _)| *p == policy))
            .map(|(_, f)| *f)
    }
}

/// Inputs for the tradeoff experiment.
#[derive(Debug)]
pub struct TradeoffScenario<'a> {
    /// The AS topology.
    pub topology: &'a Topology,
    /// Background announcements (everyone's legitimate routes),
    /// including the victim's.
    pub announcements: &'a [Announcement],
    /// The victim's announcement (must also appear in
    /// `announcements`).
    pub victim: Announcement,
    /// An address inside the victim's prefix to probe with.
    pub probe_addr: Addr,
    /// The hijacker AS (for the routing-attack scenario).
    pub attacker: Asn,
    /// The hijacker's announcement (a subprefix of the victim's).
    pub hijack: Announcement,
    /// VRP cache with the victim's ROA intact.
    pub cache_intact: &'a VrpCache,
    /// VRP cache after the manipulation (victim's ROA whacked, covering
    /// ROA present).
    pub cache_whacked: &'a VrpCache,
}

/// Runs Table 6: both scenarios under `Ignore`, `DropInvalid`, and
/// `DeprefInvalid`.
pub fn policy_tradeoff(s: &TradeoffScenario<'_>) -> TradeoffTable {
    let policies = [RpkiPolicy::Ignore, RpkiPolicy::DropInvalid, RpkiPolicy::DeprefInvalid];

    // Scenario A: routing attack (subprefix hijack), RPKI intact.
    let mut attack_anns = s.announcements.to_vec();
    attack_anns.push(s.hijack);
    let mut attack_row = ScenarioOutcome { scenario: "routing attack", reachability: Vec::new() };
    // The denominator is "other networks": the attacker (who reaches
    // itself by construction) and the victim (likewise) are excluded.
    let probes = |state: &bgp_sim::RoutingState| {
        state.reachability_of(
            s.topology.ases().filter(|a| *a != s.attacker && *a != s.victim.origin),
            s.probe_addr,
            s.victim.origin,
        )
    };
    let mut convergence = ConvergenceStats::default();
    for policy in policies {
        let (state, stats) = propagate_with_stats(s.topology, &attack_anns, policy, s.cache_intact)
            .expect("Table 6 topology converges");
        convergence.absorb(stats);
        attack_row.reachability.push((policy, probes(&state)));
    }

    // Scenario B: RPKI manipulation (ROA whacked), no hijacker.
    let mut manip_row = ScenarioOutcome { scenario: "RPKI manipulation", reachability: Vec::new() };
    for policy in policies {
        let (state, stats) =
            propagate_with_stats(s.topology, s.announcements, policy, s.cache_whacked)
                .expect("Table 6 topology converges");
        convergence.absorb(stats);
        manip_row.reachability.push((policy, probes(&state)));
    }

    TradeoffTable { rows: vec![attack_row, manip_row], convergence }
}

/// Table 6 on the paper's model world ([`World::model`]): the victim is Continental's
/// `/20`; the attacker, AS 666, is a (well-connected) customer of
/// Sprint and hijacks a `/24` inside it; the manipulation whacks
/// Continental's ROAs while Sprint's Figure 5 (right) covering
/// `63.160.0.0/12-13` ROA remains, so the victim's route is *invalid*
/// rather than unknown.
pub fn table6(w: &World) -> TradeoffTable {
    let attacker = Asn(666);
    let mut topology = w.topology.clone();
    topology.add_provider_customer(asn::SPRINT, attacker);

    let mut intact = w.validate_direct(Moment(2)).vrps;
    intact.push(Vrp::new("63.160.0.0/12".parse().expect("literal"), 13, asn::SPRINT));
    let whacked: Vec<Vrp> = intact.iter().copied().filter(|v| v.asn != asn::CONTINENTAL).collect();
    let cache_intact: VrpCache = intact.into_iter().collect();
    let cache_whacked: VrpCache = whacked.into_iter().collect();

    policy_tradeoff(&TradeoffScenario {
        topology: &topology,
        announcements: &w.announcements,
        victim: Announcement {
            prefix: "63.174.16.0/20".parse().expect("literal"),
            origin: asn::CONTINENTAL,
        },
        probe_addr: "63.174.24.9".parse().expect("literal"),
        attacker,
        hijack: Announcement {
            prefix: "63.174.24.0/24".parse().expect("literal"),
            origin: attacker,
        },
        cache_intact: &cache_intact,
        cache_whacked: &cache_whacked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::MODEL_SEED;

    #[test]
    fn table6_shape_holds() {
        let table = table6(&World::model(MODEL_SEED));

        // Table 6, row "drop invalid": protects against the attack but
        // loses the prefix under manipulation.
        let drop_attack = table.get("routing attack", RpkiPolicy::DropInvalid).unwrap();
        let drop_manip = table.get("RPKI manipulation", RpkiPolicy::DropInvalid).unwrap();
        assert_eq!(drop_attack, 1.0, "drop-invalid stops the hijack");
        assert_eq!(drop_manip, 0.0, "drop-invalid loses the whacked prefix");

        // Row "depref invalid": hijack succeeds (LPM), manipulation
        // survivable.
        let depref_attack = table.get("routing attack", RpkiPolicy::DeprefInvalid).unwrap();
        let depref_manip = table.get("RPKI manipulation", RpkiPolicy::DeprefInvalid).unwrap();
        assert!(depref_attack < 1.0, "subprefix hijack possible under depref");
        assert_eq!(depref_manip, 1.0, "depref keeps the whacked prefix reachable");

        // Baseline: ignoring the RPKI, the hijack captures traffic.
        let ignore_attack = table.get("routing attack", RpkiPolicy::Ignore).unwrap();
        assert!(ignore_attack < 1.0);
        assert_eq!(table.get("RPKI manipulation", RpkiPolicy::Ignore).unwrap(), 1.0);

        // Six propagations ran; the memo did real work.
        assert!(table.convergence.rounds >= 6);
        assert!(table.convergence.route_updates > 0);
        assert!(table.convergence.memo_misses > 0);
    }

    #[test]
    fn get_on_missing_keys() {
        let table = TradeoffTable { rows: vec![], convergence: ConvergenceStats::default() };
        assert!(table.get("nope", RpkiPolicy::Ignore).is_none());
    }
}
