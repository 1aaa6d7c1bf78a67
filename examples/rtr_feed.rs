//! Feeding routers over the RPKI-to-Router protocol (RFC 6810): the
//! last hop of the pipeline, and one more place where a whack's effect
//! is delayed, batched — and visible as a suspicious withdraw.
//!
//! The routers sit on the simulated network behind the framed RTR
//! fabric, so the feed path is subject to the same fault model as
//! everything else: a partitioned router simply stays stale.
//!
//! ```sh
//! cargo run --example rtr_feed
//! ```

use rpki_attacks::plan_whack;
use rpki_objects::Moment;
use rpki_risk::fixtures::{asn, ca};
use rpki_risk::{World, MODEL_SEED};
use rpki_rp::fabric::{pump_until, RtrEndpoint};
use rpki_rp::{Route, RouteValidity, RtrFabric, RtrRouter, VrpUpdate};

/// Runs the network for one RTR window, dispatching frames to the
/// cache fabric and both routers.
fn pump(w: &mut World, fabric: &mut RtrFabric, a: &mut RtrRouter, b: &mut RtrRouter) {
    let deadline = w.net.now() + 1_000;
    let mut endpoints: Vec<&mut dyn RtrEndpoint> = vec![fabric, a, b];
    pump_until(&mut w.net, deadline, &mut endpoints);
}

fn main() {
    let mut w = World::model(MODEL_SEED);
    let victim = Route::new("63.174.16.0/20".parse().unwrap(), asn::CONTINENTAL);

    // The relying party serves RTR from its own node; two routers sync
    // from it over the simulated network.
    let mut fabric = RtrFabric::new(w.rp_node, 1, 16);
    let node_a = w.net.add_node("router-a");
    let node_b = w.net.add_node("router-b");
    fabric.attach(node_a);
    fabric.attach(node_b);
    let mut router_a = RtrRouter::new(node_a, w.rp_node);
    let mut router_b = RtrRouter::new(node_b, w.rp_node);

    // The relying party validates and publishes into its RTR cache: one
    // publish, a SerialNotify fanned out to each attached router.
    let run = w.validate_direct(Moment(2));
    fabric.publish(&mut w.net, VrpUpdate::snapshot(run.vrps.iter().copied()));
    pump(&mut w, &mut fabric, &mut router_a, &mut router_b);
    println!(
        "relying party validated {} VRPs; RTR cache at serial {}",
        run.vrps.len(),
        fabric.server().serial()
    );
    println!(
        "router A at serial {} with {} VRPs; router B likewise",
        router_a.client().serial(),
        router_a.client().len()
    );
    assert_eq!(router_a.client().cache().classify(victim), RouteValidity::Valid);

    // Sprint whacks Continental's covering ROA.
    let view = w.continental_view();
    let file = w.covering_roa_file();
    let plan = plan_whack(std::slice::from_ref(&view), &file).unwrap();
    plan.execute(&mut w.cas[ca::SPRINT], Moment(3)).unwrap();
    w.publish_all(Moment(3));

    // Until the RP revalidates and publishes, routers act on old data:
    // the whack has *latency*.
    assert_eq!(router_a.client().cache().classify(victim), RouteValidity::Valid);
    println!("\nafter the whack, before the next RTR cycle: routers still see the victim as valid");

    // Router B drops off the network for this cycle; the RP's next
    // validation run publishes the delta (one withdraw).
    w.net.faults.partition(w.rp_node, node_b);
    let run = w.validate_direct(Moment(4));
    assert!(fabric.publish(&mut w.net, VrpUpdate::snapshot(run.vrps.iter().copied())));
    pump(&mut w, &mut fabric, &mut router_a, &mut router_b);
    println!("cache publish → serial {}", fabric.server().serial());

    assert_eq!(router_a.client().cache().classify(victim), RouteValidity::Unknown);
    assert_eq!(router_b.client().cache().classify(victim), RouteValidity::Valid);
    println!(
        "router A now sees the victim as {}; router B (partitioned, {} serial behind) still {}",
        router_a.client().cache().classify(victim),
        fabric.serial_lag(node_b).unwrap(),
        router_b.client().cache().classify(victim)
    );

    // B reconnects and catches up from the delta history.
    w.net.faults.heal(w.rp_node, node_b);
    fabric.renotify(&mut w.net, node_b);
    pump(&mut w, &mut fabric, &mut router_a, &mut router_b);
    assert_eq!(router_b.client().serial(), fabric.server().serial());
    assert_eq!(router_b.client().cache().classify(victim), RouteValidity::Unknown);

    println!(
        "\nrtr_feed OK: whacks reach the data plane with RTR-cycle latency, \
         as a single withdraw PDU any router operator could log and question"
    );
}
