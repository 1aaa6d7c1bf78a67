//! Table 6 as a story: the same network, two threats, three policies —
//! and no policy wins both.
//!
//! ```sh
//! cargo run --example policy_tradeoff
//! ```

use bgp_sim::RpkiPolicy;
use rpki_risk::tradeoff::table6;
use rpki_risk::ModelRpki;

fn main() {
    // Two caches over the model world: intact (all ROAs + Sprint's
    // covering /12-13), and whacked (Continental's /20 ROA removed — its
    // route turns INVALID because the covering ROA remains); the
    // hijacker, AS 666, is a customer of Sprint announcing a /24 inside
    // the victim's /20.
    let table = table6(&ModelRpki::build());

    println!("reachability of the victim prefix (fraction of other ASes):\n");
    println!("{:<18} {:>16} {:>20}", "policy", "under hijack", "under manipulation");
    for policy in [RpkiPolicy::Ignore, RpkiPolicy::DropInvalid, RpkiPolicy::DeprefInvalid] {
        println!(
            "{:<18} {:>15.0}% {:>19.0}%",
            format!("{policy:?}"),
            table.get("routing attack", policy).unwrap() * 100.0,
            table.get("RPKI manipulation", policy).unwrap() * 100.0,
        );
    }

    println!(
        "\nno row is all-green: protecting against BGP attacks (drop invalid) hands \
         RPKI authorities a kill switch; tolerating RPKI problems (depref) re-opens \
         subprefix hijacking. That is the paper's Table 6."
    );
    assert_eq!(table.get("routing attack", RpkiPolicy::DropInvalid), Some(1.0));
    assert_eq!(table.get("RPKI manipulation", RpkiPolicy::DropInvalid), Some(0.0));
    println!("\npolicy_tradeoff OK");
}
