//! Integration tests for the RTR fan-out fabric and the rtrtr-style
//! relay layer (DESIGN.md "RTR fabric & relay units").
//!
//! Pins the properties the `bench_rtr` experiment and the RTR fault
//! campaign rest on:
//!
//! - **delta-sized fan-out** — after a publish, each attached router
//!   exchanges frames proportional to the *delta*, not the cache size,
//!   and every router converges on the cache's exact set;
//! - **relay correctness** — a relay merging live feeds under any
//!   policy, with SLURM exceptions applied, re-serves exactly the
//!   sequential oracle `slurm.apply(reference_merge(...))`,
//!   byte-for-byte;
//! - **policy placement of divergence** — the same campaign under
//!   `Union` parks the divergence at the relay (a tier still vouches
//!   for the whacked VRP) while `All` pushes it to the stalled routers;
//! - **determinism** — the RTR fault campaign serializes to the
//!   byte-identical outcome on every replay, across seeds.

use std::collections::BTreeSet;

use ipres::{Asn, Prefix};
use netsim::Network;
use rpki_obs::Recorder;
use rpki_risk::{rtr_campaign, Campaign, RtrConfig};
use rpki_rp::{
    pump_until, reference_merge, MergePolicy, Relay, RtrEndpoint, RtrFabric, RtrRouter, SlurmFile,
    SlurmFilter, Vrp, VrpUpdate,
};

fn v(s: &str, max: u8, asn: u32) -> Vrp {
    Vrp::new(s.parse::<Prefix>().unwrap(), max, Asn(asn))
}

fn universe(n: usize) -> Vec<Vrp> {
    (0..n).map(|i| v(&format!("10.{}.{}.0/24", i / 256, i % 256), 24, 64_496 + i as u32)).collect()
}

fn pump(net: &mut Network, fabric: &mut RtrFabric, routers: &mut [RtrRouter]) {
    let deadline = net.now() + 10_000;
    let mut endpoints: Vec<&mut dyn RtrEndpoint> = Vec::with_capacity(routers.len() + 1);
    endpoints.push(fabric);
    for r in routers.iter_mut() {
        endpoints.push(r);
    }
    pump_until(net, deadline, &mut endpoints);
}

/// Fan-out frames scale with the delta, not the cache: a one-VRP churn
/// against a 64-VRP cache costs each router a six-frame exchange while
/// a cold full sweep costs `vrps + 3`.
#[test]
fn fanout_frames_scale_with_delta_not_cache_size() {
    let mut net = Network::new(9);
    let cache = net.add_node("rp-cache");
    let mut fabric = RtrFabric::new(cache, 1, 8);
    let mut routers: Vec<RtrRouter> = (0..16)
        .map(|i| {
            let node = net.add_node(&format!("router-{i}"));
            fabric.attach(node);
            RtrRouter::new(node, cache)
        })
        .collect();

    let mut vrps = universe(64);
    fabric.publish(&mut net, VrpUpdate::snapshot(vrps.clone()));
    pump(&mut net, &mut fabric, &mut routers);
    // The cold sweep each router just paid: reset + response + 64
    // prefixes + EndOfData, plus the notify that triggered it.
    let cold_per_router = 64 + 4;

    // Renew one origin: the delta is one withdraw + one announce.
    vrps[0] = v("10.0.0.0/24", 24, 65_000);
    let sent = net.stats().sent;
    fabric.publish(&mut net, VrpUpdate::snapshot(vrps.clone()));
    pump(&mut net, &mut fabric, &mut routers);
    let per_router = (net.stats().sent - sent) / 16;
    assert_eq!(per_router, 6, "notify + query + response + 2 prefixes + EndOfData");
    assert!(per_router * 4 < cold_per_router, "fan-out beats the full sweep 4x over");
    for r in &routers {
        assert!(r.vrps().iter().eq(fabric.server().vrps().iter()), "router diverged");
    }
}

/// A relay over three live feeds with SLURM exceptions re-serves the
/// sequential oracle exactly, under every merge policy.
#[test]
fn relay_output_matches_sequential_reference_merge() {
    let feeds: [BTreeSet<Vrp>; 3] = [
        universe(12).into_iter().collect(),
        universe(16).into_iter().skip(2).collect(),
        universe(20).into_iter().skip(4).collect(),
    ];
    let slurm = SlurmFile {
        filters: vec![
            SlurmFilter::prefix("10.0.1.0/24".parse().unwrap()),
            SlurmFilter::asn(Asn(64_499)),
        ],
        assertions: vec![v("192.0.2.0/24", 24, 65_551)],
    };

    for policy in [MergePolicy::Union, MergePolicy::Any, MergePolicy::All] {
        let mut net = Network::new(17);
        let relay_node = net.add_node("relay");
        let mut relay = Relay::new(relay_node, policy, slurm.clone(), 900, 8);
        let mut fabrics: Vec<RtrFabric> = feeds
            .iter()
            .enumerate()
            .map(|(i, feed)| {
                let node = net.add_node(&format!("rp-{i}"));
                let mut fabric = RtrFabric::new(node, (i + 1) as u16, 8);
                fabric.attach(relay_node);
                relay.add_feed(node);
                fabric.publish(&mut net, VrpUpdate::snapshot(feed.iter().copied()));
                fabric
            })
            .collect();
        let router_node = net.add_node("router");
        relay.attach(router_node);
        let mut router = RtrRouter::new(router_node, relay_node);

        relay.poll_feeds(&mut net);
        let deadline = net.now() + 10_000;
        let mut endpoints: Vec<&mut dyn RtrEndpoint> = vec![&mut relay, &mut router];
        for f in fabrics.iter_mut() {
            endpoints.push(f);
        }
        pump_until(&mut net, deadline, &mut endpoints);
        relay.republish(&mut net);
        router.poll(&mut net);
        let deadline = net.now() + 10_000;
        let mut endpoints: Vec<&mut dyn RtrEndpoint> = vec![&mut relay, &mut router];
        for f in fabrics.iter_mut() {
            endpoints.push(f);
        }
        pump_until(&mut net, deadline, &mut endpoints);

        let merged: Vec<Vrp> = reference_merge(policy, &feeds).into_iter().collect();
        let oracle = slurm.apply(&merged);
        assert_eq!(router.vrps(), oracle.vrps(), "policy {policy:?} diverged from the oracle");
    }
}

/// The same fault campaign, two merge policies: `Union` keeps routers
/// synced but parks the whacked VRP at the relay (a tier still vouches
/// for it); `All` drops it at the relay and the stalled routers are the
/// ones left holding it.
#[test]
fn merge_policy_chooses_where_divergence_lives() {
    let spec = rtr_campaign();
    let union_cfg = RtrConfig { routers: 4, policy: MergePolicy::Union };
    let all_cfg = RtrConfig { routers: 4, policy: MergePolicy::All };
    let run = |cfg| Campaign::Rtr(cfg, SlurmFile::empty()).run(&spec, 2013, &Recorder::disabled());
    let (union, all) = (run(union_cfg), run(all_cfg));

    // Round 4: the withdraw lands while the relay→router path stalls.
    let u4 = &union.rtr[3];
    let a4 = &all.rtr[3];
    // Union: Suspenders still vouches for the whacked VRP, so the merge
    // never shrinks — nothing new to push, routers stay synced, and the
    // divergence is the relay's own.
    assert_eq!(u4.synced_routers, 4, "{u4:?}");
    assert_eq!(u4.relay_truth_distance, 1, "{u4:?}");
    // All: the intersection drops the VRP instantly, the stall keeps
    // the routers from hearing it — divergence lives at the routers.
    assert_eq!(a4.stale_routers, 4, "{a4:?}");
    assert_eq!(a4.relay_truth_distance, 0, "{a4:?}");
    assert_eq!(a4.truth_distance_sum, 4, "{a4:?}");

    // Both worlds converge whole once the stall lifts and the ROA is
    // reissued.
    for out in [&union, &all] {
        let last = out.rtr.last().unwrap();
        assert_eq!(last.synced_routers, 4, "{last:?}");
        assert_eq!(last.truth_distance_sum, 0, "{last:?}");
        assert_eq!(last.relay_truth_distance, 0, "{last:?}");
    }
}

/// The RTR fault campaign is deterministic: byte-identical serialized
/// outcomes on replay.
#[test]
fn rtr_campaign_replays_byte_identical() {
    let cfg = RtrConfig { routers: 4, policy: MergePolicy::All };
    let campaign = Campaign::Rtr(cfg, SlurmFile::empty());
    let run = |seed| {
        serde_json::to_string(&campaign.run(&rtr_campaign(), seed, &Recorder::disabled()))
            .expect("serializes")
    };
    for seed in [2013u64, 6810] {
        assert_eq!(run(seed), run(seed), "seed {seed} replay diverged");
    }
}

/// RTR stale-router soak: the fault campaign across many seeds, replay
/// identity and recovery invariants everywhere (run explicitly or from
/// the scheduled CI job: `cargo test --release -- --ignored`).
#[test]
#[ignore = "long-running RTR campaign soak; exercised by scheduled CI"]
fn rtr_campaign_soak_across_seeds() {
    let cfg = RtrConfig { routers: 6, policy: MergePolicy::All };
    let campaign = Campaign::Rtr(cfg, SlurmFile::empty());
    for seed in 0..32u64 {
        let out = campaign.run(&rtr_campaign(), seed, &Recorder::disabled());
        let again = campaign.run(&rtr_campaign(), seed, &Recorder::disabled());
        assert_eq!(
            serde_json::to_string(&out).unwrap(),
            serde_json::to_string(&again).unwrap(),
            "seed {seed}: replay diverged"
        );
        // Healthy opening round: every router synced and truthful.
        let r1 = &out.rtr[0];
        assert_eq!(r1.synced_routers, 6, "seed {seed}: {r1:?}");
        assert_eq!(r1.truth_distance_sum, 0, "seed {seed}: {r1:?}");
        // The stalled withdraw round: every router still holds the
        // whacked VRP (the stall outlasts the pump budget at every
        // seed — it is a fixed +3600s against a 600s window).
        let r4 = &out.rtr[3];
        assert_eq!(r4.stale_routers, 6, "seed {seed}: {r4:?}");
        assert_eq!(r4.truth_distance_sum, 6, "seed {seed}: {r4:?}");
        // Fully recovered by the final round.
        let last = out.rtr.last().unwrap();
        assert_eq!(last.synced_routers, 6, "seed {seed}: {last:?}");
        assert_eq!(last.stale_routers, 0, "seed {seed}: {last:?}");
        assert_eq!(last.truth_distance_sum, 0, "seed {seed}: {last:?}");
        assert_eq!(last.relay_truth_distance, 0, "seed {seed}: {last:?}");
    }
}
