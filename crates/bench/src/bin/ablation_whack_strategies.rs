//! Ablation (Section 3.1): collateral damage and detection surface of
//! every whacking strategy, by target depth.
//!
//! | strategy            | collateral | CRL trace | suspicious reissues |
//! |---------------------|------------|-----------|---------------------|
//! | revoke child RC     | subtree    | yes       | 0                   |
//! | stealthy withdraw*  | none       | no        | 0                   |
//! | targeted carve-out  | none       | no        | 0                   |
//! | make-before-break   | none       | no        | ≥ 1                 |
//!
//! *withdraw requires the manipulator to BE the issuer; the others work
//! from any ancestor.

use ipres::Asn;
use rpki_attacks::{damage_between, plan_whack, probes_for, CaView};
use rpki_objects::Moment;
use rpki_risk::fixtures::{asn, ca};
use rpki_risk::{World, MODEL_SEED};
use rpki_risk_bench::{emit_json, SummaryTable};
use serde::Serialize;

#[derive(Serialize)]
struct StrategyRow {
    strategy: String,
    target: String,
    collateral_vrps: usize,
    crl_trace: bool,
    suspicious_reissues: usize,
}

fn measure(w: &mut World, before: &[rpki_rp::Vrp], target_asn: Asn) -> (usize, Vec<rpki_rp::Vrp>) {
    w.publish_all(Moment(3));
    let after = w.validate_direct(Moment(4)).vrps;
    let damage = damage_between(before, &after, &probes_for(before));
    let collateral = damage.routes_degraded.iter().filter(|(r, _)| r.origin != target_asn).count();
    (collateral, after)
}

fn main() {
    println!("Ablation — whacking strategies vs collateral and detectability");
    let mut rows: Vec<StrategyRow> = Vec::new();

    // Strategy 1: revoke Continental's RC outright (Side Effect 1).
    {
        let mut w = World::model(MODEL_SEED);
        let before = w.validate_direct(Moment(2)).vrps;
        let serial = w.cas[ca::SPRINT]
            .issued_cert_for(w.cas[ca::CONTINENTAL].key_id())
            .expect("issued")
            .data()
            .serial;
        w.cas[ca::SPRINT].revoke_serial(serial);
        let (collateral, _) = measure(&mut w, &before, asn::CONTINENTAL);
        rows.push(StrategyRow {
            strategy: "revoke child RC".to_owned(),
            target: "(63.174.16.0/20, AS17054)".to_owned(),
            collateral_vrps: collateral,
            crl_trace: true,
            suspicious_reissues: 0,
        });
    }

    // Strategy 2: stealthy withdraw by the issuer itself (Side Effect
    // 2 — requires compromising/coercing Continental, not Sprint).
    {
        let mut w = World::model(MODEL_SEED);
        let before = w.validate_direct(Moment(2)).vrps;
        let file = w.covering_roa_file();
        w.cas[ca::CONTINENTAL].withdraw(&file).expect("present");
        let (collateral, _) = measure(&mut w, &before, asn::CONTINENTAL);
        rows.push(StrategyRow {
            strategy: "stealthy withdraw (by issuer)".to_owned(),
            target: "(63.174.16.0/20, AS17054)".to_owned(),
            collateral_vrps: collateral,
            crl_trace: false,
            suspicious_reissues: 0,
        });
    }

    // Strategy 3: targeted carve-out from the grandparent (Side
    // Effect 3).
    {
        let mut w = World::model(MODEL_SEED);
        let before = w.validate_direct(Moment(2)).vrps;
        let view = w.continental_view();
        let file = w.covering_roa_file();
        let plan = plan_whack(std::slice::from_ref(&view), &file).expect("plan");
        plan.execute(&mut w.cas[ca::SPRINT], Moment(3)).expect("execute");
        let (collateral, _) = measure(&mut w, &before, asn::CONTINENTAL);
        rows.push(StrategyRow {
            strategy: "targeted carve-out (grandparent)".to_owned(),
            target: "(63.174.16.0/20, AS17054)".to_owned(),
            collateral_vrps: collateral,
            crl_trace: false,
            suspicious_reissues: plan.reissued,
        });
    }

    // Strategy 4: make-before-break against the /22 (Figure 3).
    {
        let mut w = World::model(MODEL_SEED);
        let before = w.validate_direct(Moment(2)).vrps;
        let view = w.continental_view();
        let file = w.customer_roa_file();
        let plan = plan_whack(std::slice::from_ref(&view), &file).expect("plan");
        plan.execute(&mut w.cas[ca::SPRINT], Moment(3)).expect("execute");
        let (collateral, _) = measure(&mut w, &before, asn::CUSTOMER_A);
        rows.push(StrategyRow {
            strategy: "make-before-break (grandparent)".to_owned(),
            target: "(63.174.16.0/22, AS7341)".to_owned(),
            collateral_vrps: collateral,
            crl_trace: false,
            suspicious_reissues: plan.reissued,
        });
    }

    // Strategy 5: great-grandchild whack from ARIN (Side Effect 4).
    {
        let mut w = World::model(MODEL_SEED);
        let before = w.validate_direct(Moment(2)).vrps;
        let sprint_rc =
            w.cas[ca::ARIN].issued_cert_for(w.cas[ca::SPRINT].key_id()).expect("issued").clone();
        let sprint_view = CaView::from_repos(&sprint_rc, &w.repos);
        let continental_view = w.continental_view();
        let file = w.covering_roa_file();
        let chain = vec![sprint_view, continental_view];
        let plan = plan_whack(&chain, &file).expect("plan");
        plan.execute(&mut w.cas[ca::ARIN], Moment(3)).expect("execute");
        let (collateral, _) = measure(&mut w, &before, asn::CONTINENTAL);
        rows.push(StrategyRow {
            strategy: "great-grandchild whack (ARIN)".to_owned(),
            target: "(63.174.16.0/20, AS17054)".to_owned(),
            collateral_vrps: collateral,
            crl_trace: false,
            suspicious_reissues: plan.reissued,
        });
    }

    let mut table = SummaryTable::new(&[
        "strategy",
        "target",
        "collateral routes degraded",
        "CRL trace",
        "suspicious reissues",
    ]);
    for r in &rows {
        table.row(&[
            r.strategy.clone(),
            r.target.clone(),
            r.collateral_vrps.to_string(),
            r.crl_trace.to_string(),
            r.suspicious_reissues.to_string(),
        ]);
    }
    table.print("Whacking strategies");

    // Shape checks: revocation is the only collateral-heavy strategy;
    // detectability (reissues) grows with depth.
    assert_eq!(rows[0].collateral_vrps, 4, "revoking the RC whacks four extra ROAs");
    assert!(rows[2].collateral_vrps == 0 && rows[2].suspicious_reissues == 0);
    assert!(rows[3].suspicious_reissues >= 1);
    assert!(rows[4].suspicious_reissues >= 1);
    println!(
        "\nOK: targeted whacking trades the collateral (and outcry) of revocation for a \
         detection surface of suspicious reissues — Section 3.1's economy, quantified."
    );

    emit_json("whack_strategies", &rows);
}
