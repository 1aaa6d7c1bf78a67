//! Figure 1: the dependency loop RPKI → route validity → BGP →
//! (TCP/IP) → RPKI, made executable.
//!
//! Runs the loopback fixed point from a healthy cache and from a
//! degraded one, showing that the same machinery that distributes RPKI
//! objects depends on the routes those objects validate.

use bgp_sim::RpkiPolicy;
use rpki_objects::Moment;
use rpki_risk::fixtures::asn;
use rpki_risk::ModelRpki;
use rpki_risk_bench::{emit_json, Table};
use rpki_rp::Vrp;

fn main() {
    println!("Figure 1 — the RPKI ⇆ BGP dependency loop, executed to fixed point");

    let mut w = ModelRpki::build();
    w.add_figure5_right_roa(Moment(2));
    let full = w.validate_direct(Moment(3)).vrps;
    let degraded: Vec<Vrp> = full.iter().copied().filter(|v| v.asn != asn::CONTINENTAL).collect();

    let mut world = w.loopback(RpkiPolicy::DropInvalid);

    let healthy = world.run(&full, Moment(3));
    let trapped = world.run(&degraded, Moment(4));

    let mut table = Table::new(&["starting cache", "iterations", "fetchable repos", "final VRPs"]);
    table.row(&[
        "complete".to_owned(),
        healthy.iterations.to_string(),
        healthy.reachable_repos.len().to_string(),
        healthy.vrps.len().to_string(),
    ]);
    table.row(&[
        "one ROA lost".to_owned(),
        trapped.iterations.to_string(),
        trapped.reachable_repos.len().to_string(),
        trapped.vrps.len().to_string(),
    ]);
    table.print("Fixed points under drop-invalid");

    println!("\nUnreachable at the degraded fixed point: {:?}", trapped.unreachable_repos);
    assert!(healthy.can_fetch("rpki.continental.example"));
    assert!(!trapped.can_fetch("rpki.continental.example"));
    assert!(trapped.vrps.len() < healthy.vrps.len());
    println!(
        "OK: validity gates transport gates validity — the loop of Figure 1 is closed \
         and has multiple stable states."
    );

    emit_json("fig1_healthy", &healthy);
    emit_json("fig1_trapped", &trapped);
}
