//! Pinned digests of the propagation engine's observable output.
//!
//! Each cell is one seeded `(topology, announcements, policy, cache)`
//! input to `propagate_with_stats`; each row is the SHA-256 of one
//! *table* of that run: `{:?}` of every `ConvergenceStats` field, or
//! what the `RoutingState` accessors return for every AS (`policy`,
//! `ases_with_routes`, each AS's `table()` in order, with `best_route`
//! checked against it), or — on the hijack cells — the `forward`
//! outcome from every AS toward three addresses. Rows hash accessor
//! output, never `{:?}` of `RoutingState` itself, so a change of the
//! state's representation cannot move one.
//!
//! The cells: the three `bench_propagation` sizes (100 / 400 / 800
//! ASes × 20 prefixes) under every policy; a `whack_bgp`-shaped cell
//! (48 prefixes, every other one Invalid under `DropInvalid`, so it
//! never leaves its origin); an exact-prefix plus subprefix hijack
//! under every policy; duplicate announcements; an origin outside the
//! topology; the empty announcement list.
//!
//! A rewrite of the engine's data structures may not move a row. An
//! intentional change prints the whole new table on mismatch; paste it
//! over [`PINS`].

use std::fmt::Write;

use bgp_sim::{propagate_with_stats, Announcement, RpkiPolicy, Topology};
use ipres::{Addr, Asn, Prefix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpki_rp::{Vrp, VrpCache};
use rpkisim_crypto::sha256;

const POLICIES: [RpkiPolicy; 3] =
    [RpkiPolicy::Ignore, RpkiPolicy::DropInvalid, RpkiPolicy::DeprefInvalid];

/// A random Gao–Rexford-shaped topology: a 3-clique of tier-1s, then
/// `extra` ASes each buying transit from 1–2 earlier ASes, with a few
/// random peerings among non-tier-1s. (Same generator as
/// `engine_equivalence.rs`; bgp-sim cannot depend on topogen.)
fn random_topology(seed: u64, extra: usize) -> Topology {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Topology::new();
    let asn = |i: usize| Asn(100 + i as u32);
    for i in 0..3 {
        for j in (i + 1)..3 {
            t.add_peering(asn(i), asn(j));
        }
    }
    let mut count = 3;
    for _ in 0..extra {
        let me = asn(count);
        let providers = 1 + rng.gen_range(0..2usize);
        let mut picked = Vec::new();
        for _ in 0..providers {
            let p = asn(rng.gen_range(0..count));
            if !picked.contains(&p) {
                t.add_provider_customer(p, me);
                picked.push(p);
            }
        }
        count += 1;
    }
    for _ in 0..extra / 4 {
        let a = asn(3 + rng.gen_range(0..extra.max(1)).min(count - 4));
        let b = asn(3 + rng.gen_range(0..extra.max(1)).min(count - 4));
        if a != b && t.relationship(a, b).is_none() {
            t.add_peering(a, b);
        }
    }
    t
}

/// `count` announcements of distinct /24s, origins spread evenly over
/// the topology's ASes.
fn spread_announcements(t: &Topology, count: usize) -> Vec<Announcement> {
    let ases: Vec<Asn> = t.ases().collect();
    (0..count)
        .map(|i| Announcement {
            prefix: format!("10.{}.{}.0/24", i / 256, i % 256).parse().expect("literal"),
            origin: ases[(i * ases.len()) / count + ases.len() / (2 * count)],
        })
        .collect()
}

/// One exact ROA per announcement: everything Valid.
fn matching_roas(anns: &[Announcement]) -> VrpCache {
    anns.iter().map(|a| Vrp::new(a.prefix, a.prefix.len(), a.origin)).collect()
}

/// Collects `(label, digest)` rows in run order.
#[derive(Default)]
struct Table(Vec<(String, String)>);

impl Table {
    fn bytes(&mut self, cell: &str, table: &str, bytes: &str) {
        self.0.push((format!("{cell}/{table}"), sha256(bytes.as_bytes()).to_hex()));
    }

    /// Runs one cell and records its `stats` and `tables` rows, plus a
    /// `forward` row when `probes` is non-empty.
    fn cell(
        &mut self,
        cell: &str,
        t: &Topology,
        anns: &[Announcement],
        policy: RpkiPolicy,
        cache: &VrpCache,
        probes: &[Addr],
    ) {
        let (state, s) = propagate_with_stats(t, anns, policy, cache).expect("converges");
        let stats = format!(
            "rounds={:?} route_updates={:?} pairs_evaluated={:?} memo_hits={:?} \
             memo_misses={:?} peak_worklist={:?}",
            s.rounds,
            s.route_updates,
            s.pairs_evaluated,
            s.memo_hits,
            s.memo_misses,
            s.peak_worklist
        );
        self.bytes(cell, "stats", &stats);

        // Every AS that could hold a route: the topology's, plus
        // origins outside it.
        let mut ases: Vec<Asn> = t.ases().chain(anns.iter().map(|a| a.origin)).collect();
        ases.sort_unstable();
        ases.dedup();
        let mut prefixes: Vec<Prefix> = anns.iter().map(|a| a.prefix).collect();
        prefixes.sort_unstable();
        prefixes.dedup();

        let mut tables = String::new();
        let (policy, with_routes) = (state.policy(), state.ases_with_routes());
        writeln!(tables, "policy={policy:?} ases_with_routes={with_routes:?}")
            .expect("string write");
        for &asn in &ases {
            writeln!(tables, "{asn:?}").expect("string write");
            let rows: Vec<_> = state.table(asn).collect();
            for route in &rows {
                writeln!(tables, "  {route:?}").expect("string write");
            }
            // `best_route` is the same rows, by key.
            let by_key: Vec<_> =
                prefixes.iter().filter_map(|&p| state.best_route(asn, p)).collect();
            assert_eq!(by_key, rows, "best_route and table disagree at {asn:?} in {cell}");
        }
        self.bytes(cell, "tables", &tables);

        if !probes.is_empty() {
            let mut forward = String::new();
            for &asn in &ases {
                for &addr in probes {
                    writeln!(forward, "{asn:?} {addr:?} {:?}", state.forward(asn, addr))
                        .expect("string write");
                }
            }
            self.bytes(cell, "forward", &forward);
        }
    }
}

fn fingerprints() -> Vec<(String, String)> {
    let mut t = Table::default();

    // The three bench_propagation sizes, 20 prefixes, full adoption.
    for ases in [100usize, 400, 800] {
        let topo = random_topology(7, ases - 3);
        let anns = spread_announcements(&topo, 20);
        let cache = matching_roas(&anns);
        for policy in POLICIES {
            t.cell(&format!("bench{ases}/{policy:?}"), &topo, &anns, policy, &cache, &[]);
        }
    }

    // whack_bgp-shaped: 48 flipped prefixes over ~450 ASes under
    // DropInvalid; every other one is covered by a ROA for somebody
    // else (whacked: Invalid, stays at its origin), the rest have their
    // ROA back (restored: Valid, floods).
    {
        let topo = random_topology(4242, 447);
        let anns = spread_announcements(&topo, 48);
        let cache: VrpCache = anns
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let holder = if i % 2 == 0 { a.origin } else { Asn(64_999) };
                Vrp::new(a.prefix, a.prefix.len(), holder)
            })
            .collect();
        t.cell("whack48/DropInvalid", &topo, &anns, RpkiPolicy::DropInvalid, &cache, &[]);
    }

    // Exact-prefix plus subprefix hijack, victim's ROA in the cache, an
    // unrelated background announcement.
    {
        let topo = random_topology(2013, 60);
        let all: Vec<Asn> = topo.ases().collect();
        let (victim, attacker, bystander) = (all[5], all[all.len() - 1], all[all.len() / 2]);
        let p16: Prefix = "10.0.0.0/16".parse().expect("literal");
        let p24: Prefix = "10.0.1.0/24".parse().expect("literal");
        let other: Prefix = "20.0.0.0/16".parse().expect("literal");
        let anns = [
            Announcement { prefix: p16, origin: victim },
            Announcement { prefix: p16, origin: attacker },
            Announcement { prefix: p24, origin: attacker },
            Announcement { prefix: other, origin: bystander },
        ];
        let cache: VrpCache = [Vrp::new(p16, 16, victim)].into_iter().collect();
        let probes: Vec<Addr> = ["10.0.1.1", "10.0.2.1", "99.0.0.1"]
            .iter()
            .map(|s| s.parse().expect("literal"))
            .collect();
        for policy in POLICIES {
            t.cell(&format!("hijack/{policy:?}"), &topo, &anns, policy, &cache, &probes);
        }
    }

    // Degenerate inputs.
    {
        let topo = random_topology(99, 30);
        let all: Vec<Asn> = topo.ases().collect();
        let p16: Prefix = "10.0.0.0/16".parse().expect("literal");
        let p17: Prefix = "10.0.128.0/17".parse().expect("literal");
        let cache: VrpCache = [Vrp::new(p16, 16, all[4])].into_iter().collect();

        // The same announcement three times, not adjacent, and a second
        // origin for the same prefix.
        let dup = [
            Announcement { prefix: p16, origin: all[4] },
            Announcement { prefix: p17, origin: all[9] },
            Announcement { prefix: p16, origin: all[4] },
            Announcement { prefix: p16, origin: all[20] },
            Announcement { prefix: p16, origin: all[4] },
        ];
        t.cell("duplicates/DeprefInvalid", &topo, &dup, RpkiPolicy::DeprefInvalid, &cache, &[]);

        // An origin nobody is connected to, next to a real one.
        let outside = [
            Announcement { prefix: p16, origin: Asn(9999) },
            Announcement { prefix: p16, origin: all[4] },
        ];
        t.cell("outside/DropInvalid", &topo, &outside, RpkiPolicy::DropInvalid, &cache, &[]);

        t.cell("empty/Ignore", &topo, &[], RpkiPolicy::Ignore, &cache, &[]);
    }

    t.0
}

#[test]
fn every_cell_matches_its_pinned_digests() {
    let got = fingerprints();
    let pinned: Vec<(String, String)> =
        PINS.iter().map(|&(label, digest)| (label.to_owned(), digest.to_owned())).collect();
    if got != pinned {
        let table: String = got
            .iter()
            .map(|(label, digest)| format!("    (\"{label}\", \"{digest}\"),\n"))
            .collect();
        let moved: Vec<&str> = got
            .iter()
            .filter(|row| !pinned.contains(row))
            .map(|(label, _)| label.as_str())
            .collect();
        panic!(
            "engine fingerprints moved: {moved:?}\n\
             if intentional, replace PINS with:\n\
             const PINS: &[(&str, &str)] = &[\n{table}];"
        );
    }
}

#[rustfmt::skip]
const PINS: &[(&str, &str)] = &[
    ("bench100/Ignore/stats", "cb4b200e16c5fdf111843f291af2e7f103415856e8a8414db520588edf9a0607"),
    ("bench100/Ignore/tables", "d174361b0c983d982dd1d9e587e676c3a74e0a2d43b9583825f40fddd1836e22"),
    ("bench100/DropInvalid/stats", "a822483cf018a70e08a63425c94943d4417b1141141b76c021762aca5f6d5a1d"),
    ("bench100/DropInvalid/tables", "5dd6cf12dcc01f41153eede68a8a1b612f0a2e91aa9ffa1efa5e7f24a59f115e"),
    ("bench100/DeprefInvalid/stats", "a822483cf018a70e08a63425c94943d4417b1141141b76c021762aca5f6d5a1d"),
    ("bench100/DeprefInvalid/tables", "3a91a0129452341d34a7c36c673b0faa3077b02436a85720cb5aa0f829c10e75"),
    ("bench400/Ignore/stats", "552856685df716a8af3262637174c639be5aeb268f0a7bda2684db2c4c2ff3b0"),
    ("bench400/Ignore/tables", "4565364735cb9717916f32780da617281810d2a34aad074a37589846e25b7d2f"),
    ("bench400/DropInvalid/stats", "31f29c6c4b6a2d6243930dd5561c40b57f769c75ea06859db490196ca7b98d32"),
    ("bench400/DropInvalid/tables", "a21265db5d5987c18e80b8718f47066a316c1c6d8a14788a612bd030ff6c640a"),
    ("bench400/DeprefInvalid/stats", "31f29c6c4b6a2d6243930dd5561c40b57f769c75ea06859db490196ca7b98d32"),
    ("bench400/DeprefInvalid/tables", "035d5338144d38d028499b0b350e041a97c0881dd74c413036ab574fff3f9d9f"),
    ("bench800/Ignore/stats", "bcc401f5c10301760b6b8bcdba7591eab576992f0fdf99ce521cba97d058380f"),
    ("bench800/Ignore/tables", "f491b9c1bed3ddd1b7e1496301449d59c3d35c3a625641d674dc024438caf632"),
    ("bench800/DropInvalid/stats", "554ac979a53ada3c975a1c8d9f14e7af51211f112a455b495dc9566c36a7c0e2"),
    ("bench800/DropInvalid/tables", "0285506f07477f3dfc859575dba0bb209e09c1787d609eea1743360103d68ee4"),
    ("bench800/DeprefInvalid/stats", "554ac979a53ada3c975a1c8d9f14e7af51211f112a455b495dc9566c36a7c0e2"),
    ("bench800/DeprefInvalid/tables", "42a5fdbc74da9a3cacdc79769ec62a9269c4a079aa0d92e44cf5bfef9d64e223"),
    ("whack48/DropInvalid/stats", "f3a5ab1c4770c0a0a67e0e7ac78334815f3b8849acf14f72e15c9f590ee75a36"),
    ("whack48/DropInvalid/tables", "01e0058501743700ec8b75584cecc97d680be00be1a112a6a7a539629038249b"),
    ("hijack/Ignore/stats", "16930b2fb487b5b718e8ab5ff35f1073e0dae4dd8caaea50899f8f4c4da17e36"),
    ("hijack/Ignore/tables", "2c9e22c2f2d43e8ed533c3bf34dfd8d5eb692048d7520c355290377b0c30da42"),
    ("hijack/Ignore/forward", "da9cc1f00a392d25502c0d3828513b6f94a64c671c016cdbedb5ae9639b2fd5d"),
    ("hijack/DropInvalid/stats", "7ed547ce92873063ce99b1d199e79e6ac4763eb610946f9bb93c7a0cbaa05b45"),
    ("hijack/DropInvalid/tables", "2a56ac0fc29a571e29f9fcde2dd90b3ba07d618e5f5adcb66e1a46e534146306"),
    ("hijack/DropInvalid/forward", "522d177776d1556d0459354907ad50250008d449e41dc2ce0126920657a27d5f"),
    ("hijack/DeprefInvalid/stats", "224a588f9ffe8376111b47223f9b1fdb36f4265309505570b157e65b639579d4"),
    ("hijack/DeprefInvalid/tables", "572308338df425ccc6a8a528623ecbf213519550f6ae9fed1473cccee119c011"),
    ("hijack/DeprefInvalid/forward", "3260b86777da1abd5361ec7e8a7fec92dd3ac4d00387b88ce7638ad7760547a1"),
    ("duplicates/DeprefInvalid/stats", "ccb35003825e77e9e53cb736e5d99f4d5af3dcc8fba259c13e6e6efc63458958"),
    ("duplicates/DeprefInvalid/tables", "84cb3bdc2c2d6f0b71fcee15c07a0d87738197b6b313989ba5d36a1b28169d87"),
    ("outside/DropInvalid/stats", "c62a07ea5cd98e9ae707c19306182968a38068c5236904e4283e9055dd7b11f3"),
    ("outside/DropInvalid/tables", "24efe89544c5a6741743bf266445482eae8ee682d3ecebe4c6c334962d7463f8"),
    ("empty/Ignore/stats", "8c73a2e0a5e8dff6aa219e92ad8bfc5f5a61e5a94deddcfca3a86e2515a8308a"),
    ("empty/Ignore/tables", "49f7946e96fffff845a1dea91ba7c926f0feb639a2814b2290a7055aa529576c"),
];
