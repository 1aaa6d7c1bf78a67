//! Pins on `Vrp`'s size and on the text and hash it inherits from the
//! compact `Prefix` (see `ipres/tests/layout.rs`): every router's VRP
//! set is a `BTreeSet<Vrp>`, so its size is the per-VRP cost of each.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::mem::size_of;

use ipres::{Asn, Prefix};
use rpki_rp::Vrp;

#[test]
fn vrp_is_32_bytes() {
    assert!(size_of::<Vrp>() <= 32, "Vrp is {} bytes", size_of::<Vrp>());
}

#[test]
fn vrp_text_and_hash_are_pinned() {
    let v = |p: &str, max_len, asn| Vrp::new(p.parse::<Prefix>().unwrap(), max_len, Asn(asn));
    let pins: [(Vrp, &str, &str, &str, u64); 6] = [
        (
            v("63.160.0.0/12", 24, 7018),
            "Vrp { prefix: Prefix(63.160.0.0/12), max_len: 24, asn: Asn(7018) }",
            "(63.160.0.0/12-24, AS7018)",
            r#"{"prefix":{"addr":{"family":"V4","value":1067450368},"len":12},"max_len":24,"asn":7018}"#,
            0x216f9eb7d025daf4,
        ),
        (
            v("0.0.0.0/0", 0, 0),
            "Vrp { prefix: Prefix(0.0.0.0/0), max_len: 0, asn: Asn(0) }",
            "(0.0.0.0/0, AS0)",
            r#"{"prefix":{"addr":{"family":"V4","value":0},"len":0},"max_len":0,"asn":0}"#,
            0xa451bb6d2d0e5453,
        ),
        (
            v("255.255.255.255/32", 32, u32::MAX),
            "Vrp { prefix: Prefix(255.255.255.255/32), max_len: 32, asn: Asn(4294967295) }",
            "(255.255.255.255/32, AS4294967295)",
            r#"{"prefix":{"addr":{"family":"V4","value":4294967295},"len":32},"max_len":32,"asn":4294967295}"#,
            0xbe9f7d47603774b1,
        ),
        (
            v("::/0", 48, 64512),
            "Vrp { prefix: Prefix(0:0:0:0:0:0:0:0/0), max_len: 48, asn: Asn(64512) }",
            "(0:0:0:0:0:0:0:0/0-48, AS64512)",
            r#"{"prefix":{"addr":{"family":"V6","value":0},"len":0},"max_len":48,"asn":64512}"#,
            0xaf54be4ef055591d,
        ),
        (
            v("2001:db8::1/128", 128, 3356),
            "Vrp { prefix: Prefix(2001:db8:0:0:0:0:0:1/128), max_len: 128, asn: Asn(3356) }",
            "(2001:db8:0:0:0:0:0:1/128, AS3356)",
            r#"{"prefix":{"addr":{"family":"V6","value":42540766411282592856903984951653826561},"len":128},"max_len":128,"asn":3356}"#,
            0xf1a9e28bb98db0ab,
        ),
        (
            v("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128", 128, 1),
            "Vrp { prefix: Prefix(ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128), max_len: 128, asn: Asn(1) }",
            "(ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128, AS1)",
            r#"{"prefix":{"addr":{"family":"V6","value":340282366920938463463374607431768211455},"len":128},"max_len":128,"asn":1}"#,
            0x4306a36c861e8a76,
        ),
    ];
    for (vrp, debug, display, json, hash) in pins {
        assert_eq!(format!("{vrp:?}"), debug);
        assert_eq!(vrp.to_string(), display);
        assert_eq!(serde_json::to_string(&vrp).unwrap(), json);
        let mut h = DefaultHasher::new();
        vrp.hash(&mut h);
        assert_eq!(h.finish(), hash, "hash of {display}");
    }
}
