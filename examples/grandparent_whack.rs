//! The paper's Figure 3 as a story: Sprint, the *grandparent* of a
//! target ROA, whacks it — first the collateral-free carve, then the
//! make-before-break variant — while a monitor watches the
//! repositories.
//!
//! ```sh
//! cargo run --example grandparent_whack
//! ```

use rpki_attacks::{damage_between, plan_whack, probes_for, Monitor, MonitorSnapshot};
use rpki_objects::Moment;
use rpki_risk::fixtures::asn;
use rpki_risk::ModelRpki;

fn main() {
    let mut w = ModelRpki::build();
    let before = w.validate_direct(Moment(2));
    println!("model RPKI validates to {} VRPs", before.vrps.len());

    // The watchdog takes its baseline snapshot.
    let mut monitor = Monitor::new();
    monitor.observe(MonitorSnapshot::capture(&w.repos, Moment(2)));

    // Sprint plans entirely from public data: Continental's RC (which
    // Sprint itself issued) and Continental's publication point.
    let view = w.continental_view();
    let target = w.customer_roa_file(); // (63.174.16.0/22, AS7341)
    let plan = plan_whack(std::slice::from_ref(&view), &target).expect("plan");

    println!("\nSprint's plan against {}:", plan.target);
    println!("  carve {} out of Continental's RC", plan.carved);
    println!("  {} suspicious reissue(s) needed (make-before-break)", plan.reissued);

    // Execute and republish.
    for line in plan.execute(&mut w.sprint, Moment(3)).expect("execute") {
        println!("  executed: {line}");
    }
    w.publish_all(Moment(3));

    // The relying party's next validation run: the target is gone.
    let after = w.validate_direct(Moment(4));
    let damage = damage_between(&before.vrps, &after.vrps, &probes_for(&before.vrps));
    println!("\nafter the whack:");
    for (route, state) in &damage.routes_degraded {
        println!("  {route} degraded to {state}");
    }
    assert!(damage.clean_except(&[asn::CUSTOMER_A]), "no collateral damage");

    // But the monitor saw it.
    let events = monitor.observe(MonitorSnapshot::capture(&w.repos, Moment(4)));
    println!("\nmonitor events:");
    for e in events.iter().filter(|e| e.classification.is_suspicious()) {
        println!("  SUSPICIOUS {:?} {} — {:?}", e.kind, e.file, e.classification);
    }
    assert!(
        events.iter().filter(|e| e.classification.is_suspicious()).count() >= 2,
        "the whack and the reissue are both visible"
    );
    println!("\ngrandparent_whack OK: target dead, zero collateral, attack detected");
}
