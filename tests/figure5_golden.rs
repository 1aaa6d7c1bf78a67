//! Golden test: the Figure 5 validity grids are regression-locked by
//! state counts per prefix length. Any change to the model fixture, the
//! validator, or RFC 6811 semantics that moves a single cell fails
//! here.

use ipres::Asn;
use rpki_objects::Moment;
use rpki_risk::fixtures::asn;
use rpki_risk::{validity_grid, World, MODEL_SEED};
use rpki_rp::RouteValidity;

/// Counts (valid, invalid, unknown) for one origin at one length.
fn count(rows: &[rpki_risk::GridRow], len: u8, origin: Asn) -> (usize, usize, usize) {
    let mut v = 0;
    let mut i = 0;
    let mut u = 0;
    for row in rows.iter().filter(|r| r.prefix.len() == len) {
        match row.states.iter().find(|(o, _)| *o == origin).expect("origin present").1 {
            RouteValidity::Valid => v += 1,
            RouteValidity::Invalid => i += 1,
            RouteValidity::Unknown => u += 1,
        }
    }
    (v, i, u)
}

#[test]
fn figure5_left_counts() {
    let w = World::model(MODEL_SEED);
    let cache = w.validate_direct(Moment(2)).vrp_cache();
    let rows = validity_grid(
        &cache,
        "63.160.0.0/12".parse().unwrap(),
        24,
        &[asn::SPRINT, asn::CONTINENTAL, Asn(666)],
    );

    // /12: 1 prefix, unknown for everyone (no covering ROA).
    assert_eq!(count(&rows, 12, asn::SPRINT), (0, 0, 1));
    assert_eq!(count(&rows, 12, Asn(666)), (0, 0, 1));

    // /20: 256 prefixes. Sprint: its own 63.160.64.0/20 valid; ETB's
    // /16 contributes 16 invalid /20s; Continental's /20 invalid for
    // Sprint. Everything else unknown.
    assert_eq!(count(&rows, 20, asn::SPRINT), (1, 17, 238));
    // Continental: valid exactly at its own /20, invalid at Sprint's
    // /20 + ETB's 16 /20s.
    assert_eq!(count(&rows, 20, asn::CONTINENTAL), (1, 17, 238));
    // A stranger AS: invalid everywhere a ROA covers.
    assert_eq!(count(&rows, 20, Asn(666)), (0, 18, 238));

    // /24: 4096 prefixes. Sprint's maxlen-24 ROA validates its 16
    // /24s; ETB's /16 (256) + Continental's /20 (16) are invalid for
    // Sprint. 4096 − 16 − 272 = 3808 unknown.
    assert_eq!(count(&rows, 24, asn::SPRINT), (16, 272, 3808));
    assert_eq!(count(&rows, 24, Asn(666)), (0, 288, 3808));
}

#[test]
fn figure5_right_counts() {
    let mut w = World::model(MODEL_SEED);
    w.add_figure5_right_roa(Moment(2));
    let cache = w.validate_direct(Moment(3)).vrp_cache();
    let rows =
        validity_grid(&cache, "63.160.0.0/12".parse().unwrap(), 24, &[asn::SPRINT, Asn(666)]);

    // The covering /12-13 ROA: nothing inside the /12 is unknown any
    // more — Side Effect 5's whole point.
    for len in 12..=24u8 {
        let (_, _, unknown_sprint) = count(&rows, len, asn::SPRINT);
        assert_eq!(unknown_sprint, 0, "unknown survived at /{len}");
    }
    // Sprint: /12 and both /13s now valid; nothing else changes class
    // upward.
    assert_eq!(count(&rows, 12, asn::SPRINT), (1, 0, 0));
    assert_eq!(count(&rows, 13, asn::SPRINT), (2, 0, 0));
    assert_eq!(count(&rows, 14, asn::SPRINT), (0, 4, 0));
    // The stranger is invalid everywhere in the /12.
    assert_eq!(count(&rows, 24, Asn(666)), (0, 4096, 0));
}
