//! Ablation (conclusion / open problems): does a Suspenders-style
//! fail-safe actually blunt whacking?
//!
//! Replays three incidents against two relying parties — one bare, one
//! running the [`rpki_risk::suspenders`] hold-down layer — and compares
//! the victim's route validity over time:
//!
//! 1. a stealthy whack (the Figure 3 carve-out);
//! 2. a transparent revocation (legitimate authority action);
//! 3. a transient repository outage (Side Effect 6's fault family).
//!
//! The fail-safe should absorb 1 and 3 and honour 2 immediately.

use rpki_attacks::plan_whack;
use rpki_objects::{Moment, Span};
use rpki_risk::fixtures::{asn, ca};
use rpki_risk::{SuspendersConfig, SuspendersState, ValidationOptions, World, MODEL_SEED};
use rpki_risk_bench::{emit_json, SummaryTable};
use rpki_rp::{Route, RouteValidity};
use serde::Serialize;

#[derive(Serialize)]
struct IncidentRow {
    incident: &'static str,
    bare_rp: &'static str,
    suspenders_rp: &'static str,
}

fn victim_route() -> Route {
    Route::new("63.174.16.0/20".parse().unwrap(), asn::CONTINENTAL)
}

fn state_name(v: RouteValidity) -> &'static str {
    match v {
        RouteValidity::Valid => "valid",
        RouteValidity::Invalid => "INVALID",
        RouteValidity::Unknown => "unknown",
    }
}

fn main() {
    println!("Ablation — Suspenders fail-safe vs bare relying party\n");
    let mut rows = Vec::new();

    // Incident 1: stealthy whack.
    {
        let mut w = World::model(MODEL_SEED);
        let mut s = SuspendersState::new(SuspendersConfig::default());
        s.ingest(&w.validate_direct(Moment(2)), Moment(2));
        let view = w.continental_view();
        let file = w.covering_roa_file();
        let plan = plan_whack(std::slice::from_ref(&view), &file).unwrap();
        plan.execute(&mut w.cas[ca::SPRINT], Moment(3)).unwrap();
        w.publish_all(Moment(3));
        let run = w.validate_direct(Moment(4));
        s.ingest(&run, Moment(4));
        let bare = run.vrp_cache().classify(victim_route());
        let fs = s.effective_cache().classify(victim_route());
        rows.push(IncidentRow {
            incident: "stealthy whack (Fig 3 carve)",
            bare_rp: state_name(bare),
            suspenders_rp: state_name(fs),
        });
        assert_ne!(fs, RouteValidity::Invalid);
        assert_eq!(fs, RouteValidity::Valid);
    }

    // Incident 2: transparent revocation.
    {
        let mut w = World::model(MODEL_SEED);
        let mut s = SuspendersState::new(SuspendersConfig::default());
        s.ingest(&w.validate_direct(Moment(2)), Moment(2));
        let serial = w.cas[ca::CONTINENTAL]
            .issued_roas()
            .find(|r| r.asn() == asn::CONTINENTAL)
            .unwrap()
            .serial();
        w.cas[ca::CONTINENTAL].revoke_serial(serial);
        w.publish_all(Moment(3));
        let run = w.validate_direct(Moment(4));
        s.ingest(&run, Moment(4));
        let bare = run.vrp_cache().classify(victim_route());
        let fs = s.effective_cache().classify(victim_route());
        rows.push(IncidentRow {
            incident: "transparent revocation (CRL)",
            bare_rp: state_name(bare),
            suspenders_rp: state_name(fs),
        });
        assert_eq!(bare, fs, "revocation must not be second-guessed");
    }

    // Incident 3: transient repository outage, then recovery.
    {
        let mut w = World::model(MODEL_SEED);
        let mut s = SuspendersState::new(SuspendersConfig::default());
        s.ingest(&w.validate_with(ValidationOptions::at(Moment(2))), Moment(2));
        let node = w.repos.node_of("rpki.continental.example").unwrap();
        w.net.faults.set_down(node, true);
        let run = w.validate_with(ValidationOptions::at(Moment(3)));
        s.ingest(&run, Moment(3));
        let bare = run.vrp_cache().classify(victim_route());
        let fs = s.effective_cache().classify(victim_route());
        rows.push(IncidentRow {
            incident: "repo outage (during)",
            bare_rp: state_name(bare),
            suspenders_rp: state_name(fs),
        });
        assert_eq!(fs, RouteValidity::Valid);
        // Recovery.
        w.net.faults.set_down(node, false);
        let run = w.validate_with(ValidationOptions::at(Moment(4) + Span::hours(8)));
        let events = s.ingest(&run, Moment(4) + Span::hours(8));
        assert!(events.iter().any(|e| matches!(e, rpki_risk::SuspendersEvent::Recovered(_))));
    }

    let mut table = SummaryTable::new(&["incident", "bare RP sees", "Suspenders RP sees"]);
    for r in &rows {
        table.row(&[r.incident, r.bare_rp, r.suspenders_rp]);
    }
    table.print("Victim route validity per relying-party flavour");

    println!(
        "\nOK: the fail-safe absorbs evidence-free disappearances (whacks, faults) for the \
         hold-down window while honouring transparent revocation immediately — one concrete \
         answer to the paper's 'can abuse be made more difficult?' open problem."
    );
    emit_json("suspenders_ablation", &rows);
}
