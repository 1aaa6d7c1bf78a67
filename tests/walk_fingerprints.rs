//! Pinned digests of the validation walk's two entry points.
//!
//! Each row is the SHA-256 of one *table* of one `(entry point, world)`
//! run: the `{:?}` of every round's `ValidationRun`, its JSONL trace,
//! the `RevalidationStats`, the `{:?}` of the `ValidationState` after
//! every round, and the network's frame counters. A `World::tree` is
//! walked once and then through three mutation rounds (the
//! `tests/common` vocabulary), over a clean network, over one
//! with seeded 5 % loss in both directions (so the order in which the
//! walk asks for directories decides which dice each directory gets),
//! and with `max_depth` low enough that the leaves hit the depth guard.
//! Every run starts from two TALs, the first of which points at a file
//! nobody publishes.
//!
//! A refactor of the walk may not move a row. An intentional change
//! prints the whole new table on mismatch; paste it over [`PINS`].

mod common;

use std::fmt::Write;

use common::{apply, Op};
use rpki_objects::{Moment, RepoUri, TrustAnchorLocator};
use rpki_obs::Recorder;
use rpki_risk::World;
use rpki_rp::{NetworkSource, RevalidationMode, ValidationConfig, ValidationState, Validator};
use rpkisim_crypto::sha256;

/// The mutation rounds: every op kind, a takedown healed by a later
/// renewal, and one round that leaves most directories untouched.
const ROUNDS: [&[Op]; 3] = [
    &[Op::Renew(3), Op::Add(5, 1), Op::Takedown(7)],
    &[Op::Withdraw(5), Op::Corrupt(2), Op::Renew(0)],
    &[Op::Add(9, 2), Op::Renew(7)],
];

/// `(label, memo mode)`: the two entry points, the incremental one in
/// both revalidation modes. A memo mode selects `run_incremental`.
const ENTRIES: [(&str, Option<RevalidationMode>); 3] = [
    ("run", None),
    ("incremental-full", Some(RevalidationMode::Full)),
    ("incremental-probe", Some(RevalidationMode::Probe)),
];

/// `(label, loss probability, max_depth)`.
const WORLDS: [(&str, f64, usize); 3] =
    [("clean", 0.0, 32), ("lossy", 0.05, 32), ("clean-depth2", 0.0, 2)];

/// Collects `(label, digest)` rows in run order.
#[derive(Default)]
struct Table(Vec<(String, String)>);

impl Table {
    fn bytes(&mut self, run: &str, table: &str, bytes: &str) {
        self.0.push((format!("{run}/{table}"), sha256(bytes.as_bytes()).to_hex()));
    }
}

fn walk(
    t: &mut Table,
    (entry, mode): (&str, Option<RevalidationMode>),
    (world, loss, max_depth): (&str, f64, usize),
) {
    let label = format!("{entry}/{world}");
    // depth 2 / branching 3: 13 publication points, 3 ROAs each.
    let mut w = World::tree(2013, 2, 3, 3);
    let host = w.cas[0].sia().host().to_owned();
    let server = w.repos.node_of(&host).expect("exists");
    w.net.faults.set_loss(server, w.rp_node, loss);
    w.net.faults.set_loss(w.rp_node, server, loss);
    let tals = [
        TrustAnchorLocator::new(RepoUri::new(&host, &["ta", "absent.cer"]), w.cas[0].public_key()),
        w.tal.clone(),
    ];
    let mut state = mode.map(ValidationState::new);

    let (mut runs, mut trace, mut stats, mut states) =
        (String::new(), String::new(), String::new(), String::new());
    for round in 0..=ROUNDS.len() {
        let t0 = 60 * round as u64;
        if round > 0 {
            for &op in ROUNDS[round - 1] {
                apply(&mut w, op, Moment(t0));
            }
        }
        let v =
            Validator::new(ValidationConfig { max_depth, ..ValidationConfig::at(Moment(t0 + 30)) });
        let mut source = NetworkSource::new(&mut w.net, &w.repos, w.rp_node);
        let run = match state.as_mut() {
            Some(state) => v.run_incremental(&mut source, &tals, state),
            None => v.run(&mut source, &tals),
        };
        writeln!(runs, "{run:?}").expect("string write");
        let rec = Recorder::new();
        run.emit(&rec, t0);
        trace.push_str(&rec.trace_jsonl());
        if let Some(state) = &state {
            writeln!(stats, "{:?}", state.stats()).expect("string write");
            writeln!(states, "{state:?}").expect("string write");
        }
    }

    t.bytes(&label, "runs", &runs);
    t.bytes(&label, "trace", &trace);
    if state.is_some() {
        t.bytes(&label, "stats", &stats);
        t.bytes(&label, "state", &states);
    }
    t.bytes(&label, "net", &format!("{:?}", w.net.stats()));
}

#[test]
fn every_entry_point_matches_its_pinned_digests() {
    let mut t = Table::default();
    for entry in ENTRIES {
        for world in WORLDS {
            walk(&mut t, entry, world);
        }
    }
    let got = t.0;
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
            "walk fingerprints moved: {moved:?}\n\
             if intentional, replace PINS with:\n\
             const PINS: &[(&str, &str)] = &[\n{table}];"
        );
    }
}

#[rustfmt::skip]
const PINS: &[(&str, &str)] = &[
    ("run/clean/runs", "1241fce13ae648a9e0fb8151c255a846ae8e989c618d438e63b69ca6a4622a98"),
    ("run/clean/trace", "32a2469998151422771e9704600b9621c81295f6c17c639622109e386fb72e35"),
    ("run/clean/net", "5475e10dd7065e9bd94c3ea74c2399ed1873999a950e026013b37d9bcf9a6fbb"),
    ("run/lossy/runs", "9b06883d8a3bde38a98b4f55ed94f57c57e017f3b9846d606fcd6d0bdce76284"),
    ("run/lossy/trace", "bf6bd0877604975cd6a74df69e72b6ee7dfdb867bee1b7d34fbbc0698470d37b"),
    ("run/lossy/net", "e020c71a4cb68f67cb81801ac2fb86729445b4fef67c79b682504acbd168d921"),
    ("run/clean-depth2/runs", "740280b493b4e7616d0d6768c199b10bb36f74ed9a67c8dbb05843bb2bf2dd59"),
    ("run/clean-depth2/trace", "070770893937db1ee30512ee3efca972870f6aa0340a9e5d2644cadf957a9e19"),
    ("run/clean-depth2/net", "1287509cd1e12f265768abd9ddb5930bb26fd3b8abfa7926c11469b5d2268fa4"),
    ("incremental-full/clean/runs", "1241fce13ae648a9e0fb8151c255a846ae8e989c618d438e63b69ca6a4622a98"),
    ("incremental-full/clean/trace", "32a2469998151422771e9704600b9621c81295f6c17c639622109e386fb72e35"),
    ("incremental-full/clean/stats", "68bb121e3b4eed348df96d8ce6e664a1d1528da5679fb9e4737e8d92ea0f6bb0"),
    ("incremental-full/clean/state", "16be40445c16fb14f522dd174f3c5a7b426b8cdd0b3fd0f65c15c3df67b5c23f"),
    ("incremental-full/clean/net", "5475e10dd7065e9bd94c3ea74c2399ed1873999a950e026013b37d9bcf9a6fbb"),
    ("incremental-full/lossy/runs", "9b06883d8a3bde38a98b4f55ed94f57c57e017f3b9846d606fcd6d0bdce76284"),
    ("incremental-full/lossy/trace", "bf6bd0877604975cd6a74df69e72b6ee7dfdb867bee1b7d34fbbc0698470d37b"),
    ("incremental-full/lossy/stats", "f790b6304d0aca7b451cc88315b5133cc75982931790584edc3a423f50e099ce"),
    ("incremental-full/lossy/state", "364f8bb2db377f8f56433a37d9645455a01c8c55597b373fee839bf94ec0f88b"),
    ("incremental-full/lossy/net", "e020c71a4cb68f67cb81801ac2fb86729445b4fef67c79b682504acbd168d921"),
    ("incremental-full/clean-depth2/runs", "740280b493b4e7616d0d6768c199b10bb36f74ed9a67c8dbb05843bb2bf2dd59"),
    ("incremental-full/clean-depth2/trace", "070770893937db1ee30512ee3efca972870f6aa0340a9e5d2644cadf957a9e19"),
    ("incremental-full/clean-depth2/stats", "e54d89e664490c5465c9e7b8d2c08eb13f140d98163dc1d7288b00612285dac8"),
    ("incremental-full/clean-depth2/state", "9d41f51846c4994c9718a4fe9445df4be86f8f202f42c7ccf0c6975ed8c46cf5"),
    ("incremental-full/clean-depth2/net", "1287509cd1e12f265768abd9ddb5930bb26fd3b8abfa7926c11469b5d2268fa4"),
    ("incremental-probe/clean/runs", "1241fce13ae648a9e0fb8151c255a846ae8e989c618d438e63b69ca6a4622a98"),
    ("incremental-probe/clean/trace", "32a2469998151422771e9704600b9621c81295f6c17c639622109e386fb72e35"),
    ("incremental-probe/clean/stats", "73a0a6ab704f846a94b6a048ad0d541fd13a11d927c295812832cc951cbacc00"),
    ("incremental-probe/clean/state", "630ca51314c79329ccf06177cbfdac533e25eb1559f92077950840b58edb5faf"),
    ("incremental-probe/clean/net", "9dc79598ad4739315163dbfeb70f50009a2013df713af0ff06ecd04b6b84bab5"),
    ("incremental-probe/lossy/runs", "e4b981d2668d957702a27024544f3b8cf544cde0c151d38986a28878a28c97a3"),
    ("incremental-probe/lossy/trace", "9883d7bd8b51360a13d2aaacae40cc949f00b084868c1ff1a34c0f0d878ec70e"),
    ("incremental-probe/lossy/stats", "6e79a5650bca380e314fd4168aa098b41a73cdfb2d2d3c7c3653ab1c460b493a"),
    ("incremental-probe/lossy/state", "7b6cfb956f369b3ac2ea67cbb48bd2592d255b4a6e17accfe61a318d0044ae93"),
    ("incremental-probe/lossy/net", "3b163252d3d63be1ed8b13593c2774179fa6476f8b1d3237cd060c8e1837418e"),
    ("incremental-probe/clean-depth2/runs", "740280b493b4e7616d0d6768c199b10bb36f74ed9a67c8dbb05843bb2bf2dd59"),
    ("incremental-probe/clean-depth2/trace", "070770893937db1ee30512ee3efca972870f6aa0340a9e5d2644cadf957a9e19"),
    ("incremental-probe/clean-depth2/stats", "ecc46ad7cf45749d95f6ebb960c32070a81bfdd3a81188071295b028d1d067ab"),
    ("incremental-probe/clean-depth2/state", "45cff31725d117166f94d5c5559b1c4c9020ac8af357ba962e9d736956483944"),
    ("incremental-probe/clean-depth2/net", "0db10a8128b50171c96492f17064dee27b5bef613a7fca54184ef926a55a71df"),
];
