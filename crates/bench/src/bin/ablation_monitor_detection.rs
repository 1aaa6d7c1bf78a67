//! Ablation (open problem, Section 3.1): can a snapshot-diff monitor
//! tell whacking from normal churn?
//!
//! Drives the model world through seeded rounds of benign churn
//! (renewals, fresh issuance, revocations, CRL/manifest refresh) with
//! occasional injected attacks, and scores the monitor's suspicious
//! flags as a confusion matrix.

use ipres::Prefix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpki_attacks::{plan_whack, Monitor, MonitorSnapshot};
use rpki_objects::{Moment, RoaPrefix};
use rpki_risk::fixtures::{asn, ca};
use rpki_risk::{World, MODEL_SEED};
use rpki_risk_bench::{emit_json, scale_arg, SummaryTable};
use serde::Serialize;

#[derive(Serialize, Default)]
struct Confusion {
    rounds: usize,
    attack_rounds: usize,
    true_positives: usize,
    false_negatives: usize,
    false_positives: usize,
    true_negatives: usize,
}

fn main() {
    let rounds = 40 * scale_arg();
    println!("Ablation — monitor detection over {rounds} rounds of churn with injected attacks");

    let mut w = World::model(MODEL_SEED);
    let mut rng = StdRng::seed_from_u64(77);
    let mut monitor = Monitor::new();
    monitor.observe(MonitorSnapshot::capture(&w.repos, Moment(1)));

    let mut conf = Confusion { rounds, ..Default::default() };
    let mut issued_extra = 0u32;

    for round in 0..rounds {
        let now = Moment(100 + round as u64 * 100);
        // Attack every ~8th round, while Continental still has a live
        // ROA to whack. Rounds where no attack could be executed count
        // as churn.
        let mut attack = round % 8 == 3;
        if attack {
            let view = w.continental_view();
            // Target a ROA that is still alive (its space still inside
            // the — possibly already carved — RC), so every attack
            // round changes repository state.
            let target = view
                .roas
                .iter()
                .find(|r| view.resources.contains_set(&r.resources()))
                .map(|r| r.file_name());
            attack = false;
            if let Some(target) = target {
                if let Ok(plan) = plan_whack(std::slice::from_ref(&view), &target) {
                    if plan.execute(&mut w.cas[ca::SPRINT], now).is_ok() {
                        attack = true;
                        conf.attack_rounds += 1;
                    }
                }
            }
        }
        if !attack && round % 8 != 3 {
            // Benign churn: pick one of several operations.
            match rng.gen_range(0..4u8) {
                0 => {
                    // Renew one of Sprint's ROAs.
                    let file = w.cas[ca::SPRINT].issued_roas().next().map(|r| r.file_name());
                    if let Some(file) = file {
                        let _ = w.cas[ca::SPRINT].renew_roa(&file, now);
                    }
                }
                1 => {
                    // Fresh issuance inside ETB's block.
                    let fourth = (issued_extra % 200) as u8;
                    issued_extra += 1;
                    let p: Prefix = format!("63.166.{fourth}.0/24").parse().expect("valid");
                    let _ = w.cas[ca::ETB].issue_roa(asn::ETB, vec![RoaPrefix::exact(p)], now);
                }
                2 => {
                    // Transparent revocation of the most recent extra
                    // ROA (if any besides the original).
                    let serial = w.cas[ca::ETB].issued_roas().map(|r| r.serial()).max();
                    if let Some(serial) = serial {
                        if w.cas[ca::ETB].issued_roas().count() > 1 {
                            w.cas[ca::ETB].revoke_serial(serial);
                        }
                    }
                }
                _ => { /* pure refresh round: snapshots bump CRL/manifest */ }
            }
        }
        w.publish_all(now);
        let events = monitor.observe(MonitorSnapshot::capture(&w.repos, now));
        let flagged = events.iter().any(|e| e.classification.is_suspicious());
        match (attack, flagged) {
            (true, true) => conf.true_positives += 1,
            (true, false) => conf.false_negatives += 1,
            (false, true) => conf.false_positives += 1,
            (false, false) => conf.true_negatives += 1,
        }
    }

    let mut table = SummaryTable::new(&["metric", "count"]);
    table.row(&["rounds".to_owned(), conf.rounds.to_string()]);
    table.row(&["attack rounds".to_owned(), conf.attack_rounds.to_string()]);
    table.row(&["true positives".to_owned(), conf.true_positives.to_string()]);
    table.row(&["false negatives".to_owned(), conf.false_negatives.to_string()]);
    table.row(&["false positives (churn flagged)".to_owned(), conf.false_positives.to_string()]);
    table.row(&["true negatives".to_owned(), conf.true_negatives.to_string()]);
    table.print("Monitor confusion matrix");

    let recall = conf.true_positives as f64 / conf.attack_rounds.max(1) as f64;
    let fpr =
        conf.false_positives as f64 / (conf.false_positives + conf.true_negatives).max(1) as f64;
    println!("\nrecall = {:.0}%, false-positive rate = {:.0}%", recall * 100.0, fpr * 100.0);
    assert!(recall >= 0.9, "monitor must catch whacks: recall {recall}");
    assert!(fpr <= 0.2, "churn must mostly pass: fpr {fpr}");
    println!(
        "OK: suspicious-reissue + shrunken-cert signatures separate manipulation from churn — \
         evidence for the paper's proposed monitoring direction."
    );

    emit_json("monitor_confusion", &conf);
}
