//! Soak test: 300 simulated days of normal RPKI operations — daily
//! publication refresh, ROA renewal before expiry, a key rollover —
//! with one injected attack and one month-long repository outage.
//! Asserts that:
//!
//! - validity never degrades outside the injected attack window;
//! - the monitor stays quiet through all the churn and flags the attack;
//! - the Suspenders layer bridges the attack window entirely;
//! - a resilient relying party fetching over the real (faultable)
//!   network bridges the outage from its snapshot cache, without a
//!   single spurious validity flip outside the two windows — and
//!   without masking the attack, which is an authority-side removal
//!   the stale cache must pass through.

use rpki_attacks::{Monitor, MonitorSnapshot};
use rpki_objects::{Moment, Span};
use rpki_repo::Freshness;
use rpki_risk::fixtures::{asn, ca};
use rpki_risk::{Fetch, SuspendersConfig, SuspendersState, ValidationOptions, World, MODEL_SEED};
use rpki_rp::{ResilienceConfig, ResilientState, Route, RouteValidity};

const DAY: u64 = 86_400;

fn day(n: u64) -> Moment {
    Moment(n * DAY)
}

#[test]
fn three_hundred_days_of_operations() {
    let mut w = World::model(MODEL_SEED);
    let mut monitor = Monitor::new();
    let mut suspenders = SuspendersState::new(SuspendersConfig { hold_down: Span::days(45) });
    let victim_route = Route::new("63.174.16.0/20".parse().unwrap(), asn::CONTINENTAL);

    // The attack: at day 100 Continental is coerced into stealthily
    // withdrawing its covering ROA; at day 140 it reissues (dispute
    // resolved).
    let attack_day = 100u64;
    let restore_day = 140u64;
    let mut withdrawn_file: Option<String> = None;

    // The outage: Continental's repository host is down for a month,
    // disjoint from the attack window and the day-200 key rollover.
    let outage_start = 220u64;
    let outage_end = 250u64;

    // The resilient relying party fetches over the simulated network
    // on the same weekly cadence, with a snapshot budget wide enough
    // to bridge the outage (last good sync day 217 → ages peak ~28d).
    let mut resilient =
        ResilientState::new(ResilienceConfig { max_stale: 35 * DAY, cooldown: DAY });

    let mut monitor_alarms: Vec<u64> = Vec::new();

    for d in 1..=300u64 {
        let now = day(d);
        // Keep the network's clock on calendar time so snapshot ages
        // and circuit cool-downs are measured in real simulated days.
        w.net.advance_to(d * DAY);

        // -- The outage window --
        if d == outage_start {
            let node = w.repos.node_of("rpki.continental.example").expect("exists");
            w.net.faults.set_down(node, true);
        }
        if d == outage_end {
            let node = w.repos.node_of("rpki.continental.example").expect("exists");
            w.net.faults.set_down(node, false);
        }

        // -- CA operations --
        // Renew ROAs within 90 days of expiry (monthly maintenance).
        if d % 30 == 0 {
            for ca in &mut w.cas {
                let expiring: Vec<String> =
                    ca.expiring_roas(now, Span::days(90)).iter().map(|r| r.file_name()).collect();
                for file in expiring {
                    ca.renew_roa(&file, now).expect("renewable");
                }
            }
            // Parent certs expire too (365d): reissue the child RCs
            // with the same resources when their window nears its end.
            if d % 180 == 0 {
                for (parent, child, handle) in [
                    (ca::ARIN, ca::SPRINT, "Sprint"),
                    (ca::SPRINT, ca::ETB, "ETB S.A. ESP."),
                    (ca::SPRINT, ca::CONTINENTAL, "Continental Broadband"),
                ] {
                    let c = &w.cas[child];
                    let (key, res, sia) = (c.public_key(), c.resources(), c.sia().clone());
                    let rc = w.cas[parent].issue_cert(handle, key, res, sia, now).expect("renewal");
                    w.cas[child].install_cert(rc);
                }
            }
        }

        // Key rollover at day 200: ETB rolls, Sprint recertifies.
        if d == 200 {
            let old_serial = w.cas[ca::SPRINT]
                .issued_cert_for(w.cas[ca::ETB].key_id())
                .expect("certified")
                .data()
                .serial;
            // Capture the allocation before rolling: `roll_key` drops
            // the certificate (the parent must re-certify), after which
            // `resources()` is empty.
            let (etb_resources, etb_sia) =
                (w.cas[ca::ETB].resources(), w.cas[ca::ETB].sia().clone());
            let report = w.cas[ca::ETB].roll_key("model-etb-key2", now);
            w.cas[ca::SPRINT].revoke_serial(old_serial);
            let rc = w.cas[ca::SPRINT]
                .issue_cert("ETB S.A. ESP.", report.new_key, etb_resources, etb_sia, now)
                .expect("rollover recert");
            w.cas[ca::ETB].install_cert(rc);
        }

        // The attack window.
        if d == attack_day {
            let file = w.covering_roa_file();
            w.cas[ca::CONTINENTAL].withdraw(&file).expect("present");
            withdrawn_file = Some(file);
        }
        if d == restore_day {
            let _ = withdrawn_file.take();
            w.cas[ca::CONTINENTAL]
                .issue_roa(
                    asn::CONTINENTAL,
                    vec![rpki_objects::RoaPrefix::exact("63.174.16.0/20".parse().unwrap())],
                    now,
                )
                .expect("reissue");
        }

        // -- Daily publication refresh --
        w.publish_all(now);

        // -- Weekly relying-party and monitor passes --
        if d % 7 == 0 {
            let run = w.validate_direct(now + Span::hours(1));
            suspenders.ingest(&run, now + Span::hours(1));
            let events = monitor.observe(MonitorSnapshot::capture(&w.repos, now));
            if events.iter().any(|e| e.classification.is_suspicious()) {
                monitor_alarms.push(d);
            }

            let bare = run.vrp_cache().classify(victim_route);
            let failsafe = suspenders.effective_cache().classify(victim_route);
            let in_attack_window = (attack_day..restore_day).contains(&d);
            if in_attack_window {
                assert_ne!(
                    bare,
                    RouteValidity::Valid,
                    "day {d}: bare RP should have lost the victim VRP"
                );
                // Suspenders bridges the whole 40-day window (hold-down
                // 45 days).
                assert_eq!(
                    failsafe,
                    RouteValidity::Valid,
                    "day {d}: fail-safe must bridge the attack window"
                );
            } else {
                assert_eq!(bare, RouteValidity::Valid, "day {d}: bare validity dipped");
                assert_eq!(failsafe, RouteValidity::Valid, "day {d}: fail-safe dipped");
            }

            // Everything else stays valid throughout.
            let cache = run.vrp_cache();
            for ann in &w.announcements {
                if ann.origin == asn::CONTINENTAL {
                    continue;
                }
                assert_eq!(
                    cache.classify(Route::new(ann.prefix, ann.origin)),
                    RouteValidity::Valid,
                    "day {d}: {} ← {} degraded",
                    ann.prefix,
                    ann.origin
                );
            }

            // -- The resilient relying party, over the real network --
            let net_run = w.validate_with(
                ValidationOptions::at(now + Span::hours(1))
                    .fetch(Fetch::Retry)
                    .stale_cache(&mut resilient),
            );
            let net_cache = net_run.vrp_cache();
            let in_outage = (outage_start..outage_end).contains(&d);
            let stale_continental = net_run.freshness.iter().any(|(dir, f)| {
                dir.contains("continental") && matches!(f, Freshness::Stale { .. })
            });
            if in_outage {
                // The snapshot cache bridges the outage: everything
                // stays valid, served stale from the last good sync.
                assert!(stale_continental, "day {d}: outage not bridged from snapshot");
            } else {
                // No spurious staleness outside the outage window.
                assert!(!stale_continental, "day {d}: stale fallback outside the outage window");
            }
            for ann in &w.announcements {
                let validity = net_cache.classify(Route::new(ann.prefix, ann.origin));
                if in_attack_window && ann.prefix == victim_route.prefix {
                    // The stale cache must NOT mask the withdrawal: the
                    // resilient RP tracks the authority like the bare
                    // one (holding on is Suspenders' job, above).
                    assert_ne!(
                        validity,
                        RouteValidity::Valid,
                        "day {d}: stale cache masked the attack"
                    );
                } else {
                    assert_eq!(
                        validity,
                        RouteValidity::Valid,
                        "day {d}: resilient RP flipped {} ← {}",
                        ann.prefix,
                        ann.origin
                    );
                }
            }
        }
    }

    // The monitor flagged the attack week and nothing else.
    let attack_week = (attack_day..attack_day + 7).find(|d| d % 7 == 0).expect("a week boundary");
    assert!(
        monitor_alarms.contains(&attack_week),
        "monitor missed the attack week; alarms at {monitor_alarms:?}"
    );
    assert!(
        monitor_alarms.iter().all(|d| (attack_day..attack_day + 7).contains(d)),
        "false alarms outside the attack week: {monitor_alarms:?}"
    );
}
