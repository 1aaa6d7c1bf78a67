//! Table 6: prefix reachability during a routing attack vs during an
//! RPKI manipulation, under each relying-party policy.

use bgp_sim::RpkiPolicy;
use rpki_risk::tradeoff::table6;
use rpki_risk::ModelRpki;
use rpki_risk_bench::{emit_json, Table};

fn main() {
    println!("Table 6 — impact of relying-party local policies");

    // The scenario (attacker AS 666 under Sprint, the covering
    // /12-13 ROA that keeps the whacked route INVALID rather than
    // unknown, victim, hijack, probe) is `tradeoff::table6`.
    let table = table6(&ModelRpki::build());

    let mut out = Table::new(&[
        "relying-party policy",
        "prefix reachable during routing attack",
        "…during RPKI manipulation",
    ]);
    let cell = |f: f64| -> String {
        if f >= 1.0 {
            "yes (100%)".to_owned()
        } else if f <= 0.0 {
            "NO (0%)".to_owned()
        } else {
            format!("partial ({:.0}%)", f * 100.0)
        }
    };
    for (label, policy) in [
        ("ignore RPKI", RpkiPolicy::Ignore),
        ("drop invalid", RpkiPolicy::DropInvalid),
        ("depref invalid", RpkiPolicy::DeprefInvalid),
    ] {
        out.row(&[
            label.to_owned(),
            cell(table.get("routing attack", policy).expect("cell")),
            cell(table.get("RPKI manipulation", policy).expect("cell")),
        ]);
    }
    out.print("Table 6");

    // The paper's shape: drop-invalid ✓/✗, depref ✗(hijackable)/✓.
    assert_eq!(table.get("routing attack", RpkiPolicy::DropInvalid), Some(1.0));
    assert_eq!(table.get("RPKI manipulation", RpkiPolicy::DropInvalid), Some(0.0));
    assert!(table.get("routing attack", RpkiPolicy::DeprefInvalid).expect("cell") < 1.0);
    assert_eq!(table.get("RPKI manipulation", RpkiPolicy::DeprefInvalid), Some(1.0));
    println!(
        "\nOK: the policy best against BGP attacks is worst against RPKI manipulation \
         (Section 5's tradeoff)."
    );

    let c = table.convergence;
    println!(
        "work: {} rounds, {} route updates, {} pairs evaluated, validity memo {}/{} hits",
        c.rounds,
        c.route_updates,
        c.pairs_evaluated,
        c.memo_hits,
        c.memo_hits + c.memo_misses,
    );

    emit_json("tab6", &table.rows);
    emit_json("tab6_convergence", &c);
}
