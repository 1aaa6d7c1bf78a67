//! RRDP equivalence: the delta protocol must be invisible in output.
//!
//! The RRDP subsystem's contract has three layers, each pinned here
//! under random seeded mutation sequences (the
//! `tests/incremental.rs` pattern, one level down the stack):
//!
//! - **transport** — whatever a repository did, a client applying the
//!   delta chain holds byte-identical directory content to a client
//!   fetching the latest snapshot, and both equal a complete rsync
//!   sync of the same directory (including at-rest corruption: the
//!   snapshot-equals-current-files invariant means rot travels
//!   through deltas too);
//! - **validation** — an RRDP-sourced validation run is byte-identical
//!   to an rsync cold walk of the same world, diagnostics and all;
//! - **campaigns** — across every standard fault campaign, the rrdp
//!   tier's per-round VRP counts equal the retrying-stale tier's: the
//!   transports differ, the relying party's view must not.
//!
//! The RTR test closes the session pipeline: an authority-side RRDP
//! session reset surfaces to routers as a `CacheReset`, never as a
//! silent serial bump over changed data.

mod common;

use netsim::Network;
use proptest::prelude::*;
use rpki_objects::{Moment, RepoUri, RoaPrefix};
use rpki_obs::Recorder;
use rpki_repo::{rrdp_sync_dir, sync_dir, RepoRegistry, RrdpClientState};
use rpki_risk::{
    standard_campaigns, Campaign, ModelRpki, RpTier, RrdpMode, SyntheticRpki, ValidationOptions,
    Walk,
};
use rpki_rp::{ClientAction, RtrClient, RtrServer, VrpUpdate};

/// One direct-call RTR sync (query → answer → apply, retrying on
/// reset); this test exercises the session/serial semantics, not the
/// framed transport.
fn rtr_sync(client: &mut RtrClient, server: &RtrServer) {
    for _ in 0..3 {
        let query = client.poll();
        let mut reset = false;
        for pdu in server.handle(&query) {
            if client.handle(&pdu) == ClientAction::Reset {
                reset = true;
            }
        }
        if !reset {
            break;
        }
    }
}

/// One repository-side mutation against a single publication point.
#[derive(Debug, Clone, Copy)]
enum RepoOp {
    /// Publish (or overwrite) file `slot` with `byte`-filled content.
    Publish(u8, u8),
    /// Delete file `slot` if present.
    Delete(u8),
    /// Flip a byte of file `slot` at rest if present.
    Corrupt(u8),
}

fn arb_repo_op() -> impl Strategy<Value = RepoOp> {
    (0u8..3, 0u8..6, 0u8..=255).prop_map(|(kind, slot, byte)| match kind {
        0 => RepoOp::Publish(slot, byte),
        1 => RepoOp::Delete(slot),
        _ => RepoOp::Corrupt(slot),
    })
}

fn apply_repo_op(repos: &mut RepoRegistry, dir: &RepoUri, op: RepoOp) {
    let repo = repos.by_host_mut("pp.example").expect("exists");
    match op {
        RepoOp::Publish(slot, byte) => {
            repo.publish_raw(dir, &format!("file{slot}"), vec![byte, slot]);
        }
        RepoOp::Delete(slot) => {
            repo.delete(dir, &format!("file{slot}"));
        }
        RepoOp::Corrupt(slot) => {
            repo.corrupt_at_rest(dir, &format!("file{slot}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Transport equivalence, synced after every mutation: the
    /// persistent client advances by delta chains (or the occasional
    /// forced snapshot) and must match both a from-scratch snapshot
    /// client and a complete rsync sync at every step.
    #[test]
    fn delta_chain_equals_snapshot_equals_rsync_stepwise(
        ops in proptest::collection::vec(arb_repo_op(), 1..25),
    ) {
        let mut net = Network::new(3);
        let client = net.add_node("rp");
        let mut repos = RepoRegistry::new();
        repos.create(&mut net, "pp.example");
        let dir = RepoUri::new("pp.example", &["repo"]);
        repos.by_host_mut("pp.example").unwrap().publish_raw(&dir, "file0", vec![0, 0]);

        let mut chained = RrdpClientState::new();
        rrdp_sync_dir(&mut net, &repos, client, &dir, &mut chained, None).expect("first sync");

        for op in ops {
            apply_repo_op(&mut repos, &dir, op);
            let (via_chain, _) = rrdp_sync_dir(&mut net, &repos, client, &dir, &mut chained, None)
                .expect("chained sync");
            let mut fresh = RrdpClientState::new();
            let (via_snapshot, _) = rrdp_sync_dir(&mut net, &repos, client, &dir, &mut fresh, None)
                .expect("snapshot sync");
            let via_rsync = sync_dir(&mut net, &repos, client, &dir);
            prop_assert_eq!(&via_chain, &via_snapshot, "chain vs snapshot after {:?}", op);
            prop_assert_eq!(&via_chain, &via_rsync, "chain vs rsync after {:?}", op);
        }
        // The persistent client never needed a downgrade or failed,
        // and every snapshot sync it did take has exactly one cause.
        let stats = chained.stats();
        prop_assert_eq!(stats.failures, 0);
        prop_assert_eq!(stats.downgrades, 0);
        prop_assert_eq!(
            stats.fallback_initial + stats.fallback_evicted
                + stats.fallback_session_reset + stats.fallback_chain_gap,
            stats.snapshot_syncs,
            "fallback causes must partition the snapshot syncs"
        );
    }

    /// Transport equivalence, synced once at the end: long sequences
    /// overflow the bounded delta history, so this drives both the
    /// deep-chain path and the gap-forced snapshot fallback.
    #[test]
    fn delta_chain_equals_snapshot_after_a_batch(
        ops in proptest::collection::vec(arb_repo_op(), 1..40),
    ) {
        let mut net = Network::new(4);
        let client = net.add_node("rp");
        let mut repos = RepoRegistry::new();
        repos.create(&mut net, "pp.example");
        let dir = RepoUri::new("pp.example", &["repo"]);
        repos.by_host_mut("pp.example").unwrap().publish_raw(&dir, "file0", vec![0, 0]);

        let mut chained = RrdpClientState::new();
        rrdp_sync_dir(&mut net, &repos, client, &dir, &mut chained, None).expect("first sync");
        for op in &ops {
            apply_repo_op(&mut repos, &dir, *op);
        }
        let (via_chain, _) = rrdp_sync_dir(&mut net, &repos, client, &dir, &mut chained, None)
            .expect("catch-up sync");
        let via_rsync = sync_dir(&mut net, &repos, client, &dir);
        prop_assert_eq!(&via_chain, &via_rsync, "catch-up diverged after {} ops", ops.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Validation equivalence: after every authority-side mutation, an
    /// RRDP-sourced run (persistent client state, verified mode)
    /// reproduces the rsync cold walk byte for byte.
    #[test]
    fn rrdp_validation_matches_cold_after_random_mutations(
        steps in proptest::collection::vec((0u8..4, 0usize..13), 1..8),
    ) {
        // depth 2 / branching 3: 13 publication points, 2 ROAs each.
        let mut w = SyntheticRpki::build_seeded(6, 2, 3, 2);
        let mut rrdp = RrdpClientState::new();
        w.validate_with(ValidationOptions::at(Moment(2)).rrdp(&mut rrdp, RrdpMode::Verified));

        let mut t = 60u64;
        for (kind, ca) in steps {
            let now = Moment(t);
            match kind {
                0 => {
                    let file = w.cas[ca].issued_roas().next().expect("has ROAs").file_name();
                    w.cas[ca].renew_roa(&file, now).expect("renewable");
                }
                1 => {
                    w.cas[ca]
                        .issue_roa(
                            ipres::Asn(64_000 + ca as u32),
                            vec![RoaPrefix::exact(
                                format!("10.0.{ca}.{}/32", 100 + (t / 60) % 100)
                                    .parse()
                                    .expect("literal"),
                            )],
                            now,
                        )
                        .expect("inside the CA's /24");
                }
                2 => {
                    if let Some(file) =
                        w.cas[ca].issued_roas().skip(1).last().map(|r| r.file_name())
                    {
                        w.cas[ca].withdraw(&file).expect("present");
                    }
                }
                _ => {
                    let serial = w.cas[ca].issued_certs().next().map(|c| c.data().serial);
                    if let Some(serial) = serial {
                        w.cas[ca].revoke_serial(serial);
                    }
                }
            }
            common::republish(&mut w, ca, now);

            let at = Moment(t + 30);
            let over_rrdp = w.validate_with(ValidationOptions::at(at).rrdp(&mut rrdp, RrdpMode::Verified));
            let cold = w.validate_with(ValidationOptions::at(at));
            prop_assert_eq!(
                &over_rrdp, &cold,
                "RRDP-sourced run diverged from the cold walk at step ({}, {})", kind, ca
            );
            t += 60;
        }
        // An honest world never trips the freshness cross-check, and
        // its only snapshot fallbacks are the initial cold syncs.
        let stats = rrdp.stats();
        prop_assert_eq!(stats.pinned_detected, 0);
        prop_assert_eq!(stats.downgrades, 0);
        prop_assert_eq!(
            stats.fallback_initial + stats.fallback_evicted
                + stats.fallback_session_reset + stats.fallback_chain_gap,
            stats.snapshot_syncs,
            "fallback causes must partition the snapshot syncs"
        );
        prop_assert_eq!(stats.fallback_session_reset, 0);
    }
}

/// Campaign equivalence: under every standard campaign, the rrdp tier
/// and the retrying-stale tier run the same resilient stack over
/// different transports — their per-round VRP counts must agree, fault
/// windows and all (the verified RRDP client sees through pins and
/// downgrades around outages, so transport choice never shows in the
/// relying party's view).
#[test]
fn rrdp_tier_matches_rsync_tier_on_every_standard_campaign() {
    for spec in standard_campaigns() {
        let out = Campaign::Private(Walk::Incremental).run(&spec, 2013, &Recorder::disabled());
        let rrdp: Vec<usize> = out.tier(RpTier::Rrdp).rounds.iter().map(|m| m.vrps).collect();
        let stale: Vec<usize> =
            out.tier(RpTier::RetryingStale).rounds.iter().map(|m| m.vrps).collect();
        assert_eq!(rrdp, stale, "campaign {}: transports disagreed on VRP counts", spec.name);
    }
}

/// The session pipeline end to end: an authority resetting its RRDP
/// session bumps the client's epoch; wiring that epoch into the RTR
/// server must surface as a `CacheReset` to routers, which then
/// reconverge on the same data — not as a serial bump.
#[test]
fn rrdp_session_reset_propagates_as_rtr_cache_reset() {
    let mut w = ModelRpki::build_seeded(13);
    let mut rrdp = RrdpClientState::new();
    let run = w.validate_with(ValidationOptions::at(Moment(2)).rrdp(&mut rrdp, RrdpMode::Verified));

    let session = 1 + rrdp.epoch() as u16;
    let mut server = RtrServer::new(session, 8);
    server.publish(VrpUpdate::snapshot(run.vrps.iter().copied()));
    let mut router = RtrClient::new();
    rtr_sync(&mut router, &server);
    assert_eq!(router.len(), 8);
    let converged_serial = router.serial();

    // Every publication point resets its RRDP session (key rollover,
    // database loss — RFC 8182's restart case).
    for host in
        ["rpki.arin.example", "rpki.sprint.example", "rpki.etb.example", "rpki.continental.example"]
    {
        w.repos.by_host_mut(host).expect("exists").rrdp_reset_sessions();
    }
    let epoch_before = rrdp.epoch();
    let run = w.validate_with(ValidationOptions::at(Moment(3)).rrdp(&mut rrdp, RrdpMode::Verified));
    assert!(rrdp.epoch() > epoch_before, "session resets must bump the client epoch");

    // The relying party translates the epoch change into a fresh RTR
    // session instead of silently reusing the serial space.
    server.reset_session(1 + rrdp.epoch() as u16);
    server.publish(VrpUpdate::snapshot(run.vrps.iter().copied()));

    // A router polling with its old session/serial gets a CacheReset,
    // never a delta…
    let stale_poll = server.handle(&router.poll());
    assert_eq!(stale_poll.len(), 1);
    assert!(
        matches!(stale_poll[0], rpki_rp::RtrPdu::CacheReset),
        "stale-session poll must be answered with CacheReset, got {:?}",
        stale_poll[0]
    );
    // …and a full cycle reconverges on the post-reset data set.
    rtr_sync(&mut router, &server);
    assert_eq!(router.cache().len(), run.vrps.len());
    assert!(router.serial() <= converged_serial, "the new session restarts the serial space");
}
