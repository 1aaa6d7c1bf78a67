//! Section 6's worked example: a transient fault becomes a persistent
//! failure because the ROA that keeps a repository reachable is stored
//! *in that repository*.
//!
//! ```sh
//! cargo run --example circular_dependency
//! ```

use bgp_sim::RpkiPolicy;
use rpki_objects::Moment;
use rpki_risk::{LoopbackWorld, ModelRpki, ValidationOptions};

fn main() {
    // Premises: Figure 5 (right) validity (Sprint's covering /12-13
    // ROA exists), Continental hosts its repository at 63.174.23.0
    // inside its own /20, the relying party drops invalid routes.
    let mut w = ModelRpki::build();
    w.add_figure5_right_roa(Moment(2));

    // A healthy relying party has the complete cache.
    let healthy = w.validate_with(ValidationOptions::at(Moment(3)));
    println!("healthy cache: {} VRPs", healthy.vrps.len());

    // The transient fault: ONE corrupted rsync session from
    // Continental's repository.
    let node = w.repos.node_of("rpki.continental.example").unwrap();
    w.net.faults.corrupt_nth(node, w.rp_node, 1);
    let faulted = w.validate_with(ValidationOptions::at(Moment(4)));
    println!(
        "after one corrupted session: {} VRPs ({} lost)",
        faulted.vrps.len(),
        healthy.vrps.len() - faulted.vrps.len()
    );

    // The fault is gone. The repository is fine. Watch the loop:
    let degraded = faulted.vrps.clone();
    let mut world = w.loopback(RpkiPolicy::DropInvalid);
    let stuck = world.run(&degraded, Moment(5));
    println!(
        "fixed point under drop-invalid: {} VRPs; unreachable repositories: {:?}",
        stuck.vrps.len(),
        stuck.unreachable_repos
    );
    assert!(!stuck.can_fetch("rpki.continental.example"));

    // Why: the route to 63.174.23.0 (Continental's repo) is INVALID —
    // covered by Sprint's /12-13 ROA, matched by nothing — unless the
    // relying party holds the (63.174.16.0/20, AS17054) ROA… which
    // lives at that very repository.
    println!(
        "\nthe trap: fetching the repairing ROA requires a route that is invalid \
         without the repairing ROA"
    );

    // Manual recovery, as the paper notes, needs an out-of-band step;
    // one option is temporarily relaxing to depref-invalid.
    let mut relaxed = LoopbackWorld { policy: RpkiPolicy::DeprefInvalid, ..world };
    let recovered = relaxed.run(&stuck.vrps, Moment(6));
    println!(
        "after temporarily depreferring instead of dropping: {} VRPs, Continental fetchable: {}",
        recovered.vrps.len(),
        recovered.can_fetch("rpki.continental.example")
    );
    assert_eq!(recovered.vrps.len(), healthy.vrps.len());
    println!("\ncircular_dependency OK: transient fault persisted until manual intervention");
}
