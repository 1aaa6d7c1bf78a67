//! Pins on the compact layout of `Addr`, `Prefix` and `AddrRange`.
//!
//! The types store an address as two `u64` halves (and a prefix's
//! family and length in one byte) but must behave exactly as the
//! `{ family, value: u128 }` / `{ addr, len }` structs whose derives
//! they replace: the sizes are bounded, the text they print and
//! serialise and the hash they feed are literals taken from the derived
//! versions, and the order and hash agree with the `(family, value,
//! len)` tuple over both families.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::mem::size_of;

use ipres::{Addr, AddrRange, Family, Prefix};
use proptest::prelude::*;

fn digest<T: Hash + ?Sized>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

#[test]
fn sizes_stay_compact() {
    assert!(size_of::<Addr>() <= 24, "Addr is {} bytes", size_of::<Addr>());
    assert!(size_of::<Prefix>() <= 24, "Prefix is {} bytes", size_of::<Prefix>());
    assert!(size_of::<AddrRange>() <= 48, "AddrRange is {} bytes", size_of::<AddrRange>());
}

/// One value's `Debug`, `Display`, JSON and `DefaultHasher` digest.
type Pin = (&'static str, &'static str, &'static str, u64);

fn check<T: Hash + std::fmt::Debug + std::fmt::Display + serde::Serialize>(v: T, pin: Pin) {
    let (debug, display, json, hash) = pin;
    assert_eq!(format!("{v:?}"), debug);
    assert_eq!(v.to_string(), display);
    assert_eq!(serde_json::to_string(&v).unwrap(), json);
    assert_eq!(digest(&v), hash, "hash of {display}");
}

/// 2001:db8::1 — both stored halves non-zero.
const V6_SPLIT: u128 = 0x2001_0db8_0000_0000_0000_0000_0000_0001;

#[test]
fn addr_text_and_hash_are_pinned() {
    let pins: [(Addr, Pin); 7] = [
        (
            Addr::v4(0),
            (
                "Addr { family: V4, value: 0 }",
                "0.0.0.0",
                r#"{"family":"V4","value":0}"#,
                0xf9003207cf9e4d4c,
            ),
        ),
        (
            Addr::v4(u32::MAX),
            (
                "Addr { family: V4, value: 4294967295 }",
                "255.255.255.255",
                r#"{"family":"V4","value":4294967295}"#,
                0xd3fe610f72834804,
            ),
        ),
        (
            Addr::v4_octets(63, 160, 0, 1),
            (
                "Addr { family: V4, value: 1067450369 }",
                "63.160.0.1",
                r#"{"family":"V4","value":1067450369}"#,
                0x352759d613f2379e,
            ),
        ),
        (
            Addr::v6(0),
            (
                "Addr { family: V6, value: 0 }",
                "0:0:0:0:0:0:0:0",
                r#"{"family":"V6","value":0}"#,
                0x280c652ff8bf2ec8,
            ),
        ),
        (
            Addr::v6(u128::MAX),
            (
                "Addr { family: V6, value: 340282366920938463463374607431768211455 }",
                "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff",
                r#"{"family":"V6","value":340282366920938463463374607431768211455}"#,
                0x1030b23bf494d516,
            ),
        ),
        (
            Addr::v6(V6_SPLIT),
            (
                "Addr { family: V6, value: 42540766411282592856903984951653826561 }",
                "2001:db8:0:0:0:0:0:1",
                r#"{"family":"V6","value":42540766411282592856903984951653826561}"#,
                0x481f820ee5e50dcc,
            ),
        ),
        (
            Addr::v6(1),
            (
                "Addr { family: V6, value: 1 }",
                "0:0:0:0:0:0:0:1",
                r#"{"family":"V6","value":1}"#,
                0x13991aa64cf760e7,
            ),
        ),
    ];
    for (addr, pin) in pins {
        check(addr, pin);
    }
}

#[test]
fn prefix_text_and_hash_are_pinned() {
    let pins: [(&str, Pin); 7] = [
        (
            "0.0.0.0/0",
            (
                "Prefix(0.0.0.0/0)",
                "0.0.0.0/0",
                r#"{"addr":{"family":"V4","value":0},"len":0}"#,
                0x33eabced9e9d9a9e,
            ),
        ),
        (
            "255.255.255.255/32",
            (
                "Prefix(255.255.255.255/32)",
                "255.255.255.255/32",
                r#"{"addr":{"family":"V4","value":4294967295},"len":32}"#,
                0x4bee9fa8fa99c2cf,
            ),
        ),
        (
            "63.160.0.0/12",
            (
                "Prefix(63.160.0.0/12)",
                "63.160.0.0/12",
                r#"{"addr":{"family":"V4","value":1067450368},"len":12}"#,
                0x4132178df71cc8f8,
            ),
        ),
        (
            "::/0",
            (
                "Prefix(0:0:0:0:0:0:0:0/0)",
                "0:0:0:0:0:0:0:0/0",
                r#"{"addr":{"family":"V6","value":0},"len":0}"#,
                0x837c6f50f2ba7a62,
            ),
        ),
        (
            "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128",
            (
                "Prefix(ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128)",
                "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128",
                r#"{"addr":{"family":"V6","value":340282366920938463463374607431768211455},"len":128}"#,
                0xf8dd34ae33beeffa,
            ),
        ),
        (
            "2001:db8::1/128",
            (
                "Prefix(2001:db8:0:0:0:0:0:1/128)",
                "2001:db8:0:0:0:0:0:1/128",
                r#"{"addr":{"family":"V6","value":42540766411282592856903984951653826561},"len":128}"#,
                0x22d16b10bb93e386,
            ),
        ),
        (
            "2001:db8::/32",
            (
                "Prefix(2001:db8:0:0:0:0:0:0/32)",
                "2001:db8:0:0:0:0:0:0/32",
                r#"{"addr":{"family":"V6","value":42540766411282592856903984951653826560},"len":32}"#,
                0x0b6fbf14265de4f1,
            ),
        ),
    ];
    for (text, pin) in pins {
        check(text.parse::<Prefix>().unwrap(), pin);
    }
}

#[test]
fn range_text_and_hash_are_pinned() {
    let r = |lo: &str, hi: &str| AddrRange::new(lo.parse().unwrap(), hi.parse().unwrap());
    let pins: [(AddrRange, Pin); 4] = [
        (
            r("0.0.0.0", "255.255.255.255"),
            (
                "AddrRange([0.0.0.0-255.255.255.255])",
                "[0.0.0.0-255.255.255.255]",
                r#"{"lo":{"family":"V4","value":0},"hi":{"family":"V4","value":4294967295}}"#,
                0xa6fa57c0d3977405,
            ),
        ),
        (
            r("::", "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"),
            (
                "AddrRange([0:0:0:0:0:0:0:0-ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff])",
                "[0:0:0:0:0:0:0:0-ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff]",
                r#"{"lo":{"family":"V6","value":0},"hi":{"family":"V6","value":340282366920938463463374607431768211455}}"#,
                0x72c95263c161393e,
            ),
        ),
        (
            r("63.174.25.0", "63.174.31.255"),
            (
                "AddrRange([63.174.25.0-63.174.31.255])",
                "[63.174.25.0-63.174.31.255]",
                r#"{"lo":{"family":"V4","value":1068374272},"hi":{"family":"V4","value":1068376063}}"#,
                0xa20224d339a1b3f9,
            ),
        ),
        (
            r("2001:db8::1", "2001:db8:0:1::"),
            (
                "AddrRange([2001:db8:0:0:0:0:0:1-2001:db8:0:1:0:0:0:0])",
                "[2001:db8:0:0:0:0:0:1-2001:db8:0:1:0:0:0:0]",
                r#"{"lo":{"family":"V6","value":42540766411282592856903984951653826561},"hi":{"family":"V6","value":42540766411282592875350729025363378176}}"#,
                0xd91975d066f39b92,
            ),
        ),
    ];
    for (range, pin) in pins {
        check(range, pin);
    }
}

/// A 64-bit half: mostly the edge values, so that equal values with
/// different lengths (and equal halves across families) are common.
fn half(pick: u8, random: u64) -> u64 {
    match pick {
        0 => 0,
        1 => 1,
        2 => 1 << 63,
        3 => u64::MAX,
        _ => random,
    }
}

/// Prefixes of both families, from `/0` to host routes.
fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<bool>(), 0u8..6, 0u8..6, (any::<u64>(), any::<u64>()), 0u8..=128).prop_map(
        |(v6, pick_hi, pick_lo, (r_hi, r_lo), len)| {
            let lo = half(pick_lo, r_lo);
            let addr = if v6 {
                Addr::v6((u128::from(half(pick_hi, r_hi)) << 64) | u128::from(lo))
            } else {
                Addr::v4(lo as u32)
            };
            Prefix::new(addr, len % (addr.family().bits() + 1))
        },
    )
}

fn key(p: Prefix) -> (Family, u128, u8) {
    (p.family(), p.addr().value(), p.len())
}

/// Rebuilds a value from the untyped JSON tree of its `{family, value}`.
fn addr_from_json(v: &serde_json::Value) -> Addr {
    let family = match v["family"].as_str() {
        Some("V4") => Family::V4,
        Some("V6") => Family::V6,
        other => panic!("no family in {other:?}"),
    };
    Addr::new(family, v["value"].to_string().parse().expect("a u128 value"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Order is family, then value, then length — for prefixes and for
    /// their base addresses — and equality is equality of that key.
    #[test]
    fn order_is_the_family_value_len_tuple(a in arb_prefix(), b in arb_prefix()) {
        prop_assert_eq!(a.cmp(&b), key(a).cmp(&key(b)));
        prop_assert_eq!(a == b, key(a) == key(b));
        let (x, y) = (a.addr(), b.addr());
        prop_assert_eq!(x.cmp(&y), (x.family(), x.value()).cmp(&(y.family(), y.value())));
    }

    /// The hash is fed the family, then the `u128`, then the length: the
    /// stream a tuple of those three (or two) feeds.
    #[test]
    fn hash_feeds_family_value_len(p in arb_prefix()) {
        prop_assert_eq!(digest(&p), digest(&key(p)));
        let a = p.addr();
        prop_assert_eq!(digest(&a), digest(&(a.family(), a.value())));
    }

    /// JSON text parses back, through the untyped tree, to the value it
    /// came from.
    #[test]
    fn json_round_trips(p in arb_prefix()) {
        let text = serde_json::to_string(&p).unwrap();
        let tree = serde_json::from_str(&text).unwrap();
        let len = tree["len"].as_u64().expect("a length") as u8;
        prop_assert_eq!(Prefix::new(addr_from_json(&tree["addr"]), len), p);
        let range = p.range();
        let tree = serde_json::from_str(&serde_json::to_string(&range).unwrap()).unwrap();
        let back = AddrRange::new(addr_from_json(&tree["lo"]), addr_from_json(&tree["hi"]));
        prop_assert_eq!(back, range);
    }
}
