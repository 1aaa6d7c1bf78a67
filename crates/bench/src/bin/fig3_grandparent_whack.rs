//! Figure 3: a ROA whacked by its grandparent.
//!
//! Runs both Section 3.1 constructions against the model world:
//! the collateral-free carve (Side Effect 3) and the make-before-break
//! reissue, printing the plans, the resulting RC (the paper's two
//! address ranges), and the measured damage.

use ipres::Asn;
use rpki_attacks::{damage_between, plan_whack, probes_for, WhackStep};
use rpki_objects::Moment;
use rpki_risk::fixtures::asn;
use rpki_risk::ModelRpki;
use rpki_risk_bench::{emit_json, Table};
use serde::Serialize;

#[derive(Serialize)]
struct WhackRecord {
    target: String,
    carved: String,
    reissued: usize,
    vrps_lost: usize,
    clean: bool,
}

fn run_whack(target_asn: Asn, label: &str) -> WhackRecord {
    let mut w = ModelRpki::build();
    let before = w.validate_direct(Moment(2));

    let view = w.continental_view();
    let target_file =
        view.roas.iter().find(|r| r.asn() == target_asn).expect("target present").file_name();

    let plan = plan_whack(std::slice::from_ref(&view), &target_file).expect("plan");
    println!("\n== {label} ==");
    println!("target : {}", plan.target);
    println!("carved : {}", plan.carved);
    for step in &plan.steps {
        match step {
            WhackStep::OverwriteChildCert { handle, new_resources, .. } => {
                println!("step   : overwrite RC of {handle} → {new_resources}");
            }
            WhackStep::ReissueCertAsOwn { handle, .. } => {
                println!("step   : reissue RC of {handle} as Sprint's own (SUSPICIOUS)");
            }
            WhackStep::ReissueRoaAsOwn { asn, prefixes } => {
                let ps: Vec<String> = prefixes.iter().map(|p| p.to_string()).collect();
                println!(
                    "step   : reissue ROA ({}, {asn}) at Sprint's pub point (SUSPICIOUS)",
                    ps.join(" ")
                );
            }
        }
    }

    plan.execute(&mut w.sprint, Moment(3)).expect("execute");
    w.publish_all(Moment(3));
    let after = w.validate_direct(Moment(4));

    let damage = damage_between(&before.vrps, &after.vrps, &probes_for(&before.vrps));
    let clean = damage.clean_except(&[target_asn]);
    println!(
        "result : {} VRP(s) lost, {} reissued object(s), collateral-free: {}",
        damage.lost_vrps.len(),
        plan.reissued,
        clean
    );
    WhackRecord {
        target: plan.target,
        carved: plan.carved.to_string(),
        reissued: plan.reissued,
        vrps_lost: damage.lost_vrps.len(),
        clean,
    }
}

fn main() {
    println!("Figure 3 — targeted whacking by a grandparent (Sprint)");

    // Side Effect 3: the covering /20 ROA has free space → clean carve.
    let carve = run_whack(asn::CONTINENTAL, "Carve-out whack of (63.174.16.0/20, AS17054)");
    assert_eq!(carve.reissued, 0);
    assert!(carve.clean);

    // Figure 3 proper: the /22 customer ROA needs make-before-break.
    let mbb = run_whack(asn::CUSTOMER_A, "Make-before-break whack of (63.174.16.0/22, AS7341)");
    assert_eq!(mbb.reissued, 1);
    assert!(mbb.clean);

    let mut summary = Table::new(&["attack", "carved", "suspicious reissues", "collateral-free"]);
    summary.row(&[
        "carve-out (SE3)".to_owned(),
        carve.carved.clone(),
        carve.reissued.to_string(),
        carve.clean.to_string(),
    ]);
    summary.row(&[
        "make-before-break (Fig 3)".to_owned(),
        mbb.carved.clone(),
        mbb.reissued.to_string(),
        mbb.clean.to_string(),
    ]);
    summary.print("Summary");

    emit_json("fig3_whacks", &vec![carve, mbb]);
}
