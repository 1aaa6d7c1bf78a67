//! Propagation-engine benchmark: worklist vs the full-scan reference,
//! at growing topology sizes, exported to `BENCH_propagation.json`.
//!
//! The comparative harness behind EXPERIMENTS.md: it times both
//! engines on identical inputs and records the speedup, the round
//! counts, and the validity memo's hit rate.
//!
//! ```sh
//! cargo run --release -p rpki-risk-bench --bin bench_propagation
//! ```
//!
//! `--scale N` multiplies every topology size; `--json` additionally
//! mirrors the records to stderr like the other harness binaries.

use bgp_sim::{propagate_with_stats, reference, Announcement, RpkiPolicy, Topology};
use ipres::Asn;
use std::time::Duration;

use rpki_risk_bench::{
    assert_counts_unmoved, export, interleaved_ratio, scale_arg, time_min, Recorder, RunStamp,
    Summary, SummaryTable,
};
use rpki_rp::{Route, RouteValidity, Vrp, VrpCache};
use serde::Serialize;
use topogen::{Config, SyntheticInternet};

/// One measured configuration.
#[derive(Debug, Serialize)]
struct Record {
    ases: usize,
    prefixes: usize,
    /// Announcements the cache makes Invalid (they never leave their
    /// origin under `DropInvalid`).
    invalid_announcements: usize,
    policy: String,
    worklist_ns: u128,
    reference_ns: u128,
    speedup: f64,
    worklist_rounds: usize,
    reference_rounds: usize,
    route_updates: usize,
    pairs_evaluated: usize,
    memo_hits: usize,
    memo_misses: usize,
    peak_worklist: usize,
}

/// The columns that are a function of the input alone: a run may not
/// move them against the committed record of the same cell.
const COUNT_COLUMNS: [&str; 7] = [
    "worklist_rounds",
    "reference_rounds",
    "route_updates",
    "pairs_evaluated",
    "memo_hits",
    "memo_misses",
    "peak_worklist",
];

/// Rounds of the disabled-recorder gate, and the least wall time of
/// each side's region in a round: plain and instrumented regions run
/// back to back, so a burst of host load falls on both.
const GATE_SAMPLES: usize = 61;
const GATE_REGION: Duration = Duration::from_millis(20);

/// Runs both engines on one cell, asserts they agree, and times them.
fn measure(
    topology: &Topology,
    announcements: &[Announcement],
    policy: RpkiPolicy,
    cache: &VrpCache,
) -> Record {
    let ases = topology.len();
    let (state, stats) =
        propagate_with_stats(topology, announcements, policy, cache).expect("worklist converges");
    let (oracle, oracle_rounds) =
        reference::propagate(topology, announcements, policy, cache).expect("reference converges");
    assert_eq!(state, oracle, "engines diverged under {policy:?} at {ases} ASes");

    let worklist_ns = time_min(5, || {
        propagate_with_stats(topology, announcements, policy, cache).expect("worklist converges");
    });
    let reference_ns = time_min(3, || {
        reference::propagate(topology, announcements, policy, cache).expect("reference converges");
    });
    Record {
        ases,
        prefixes: announcements.len(),
        invalid_announcements: announcements
            .iter()
            .filter(|a| cache.classify(Route::new(a.prefix, a.origin)) == RouteValidity::Invalid)
            .count(),
        policy: format!("{policy:?}"),
        worklist_ns,
        reference_ns,
        speedup: reference_ns as f64 / worklist_ns as f64,
        worklist_rounds: stats.rounds,
        reference_rounds: oracle_rounds,
        route_updates: stats.route_updates,
        pairs_evaluated: stats.pairs_evaluated,
        memo_hits: stats.memo_hits,
        memo_misses: stats.memo_misses,
        peak_worklist: stats.peak_worklist,
    }
}

fn main() {
    // `--scale 0` would generate an empty world and a NaN speedup.
    let scale = scale_arg();
    let stamp = RunStamp::capture();
    let committed = std::fs::read_to_string("BENCH_propagation.json").ok();
    let mut report = Summary::new(&format!("Propagation engine benchmark (scale {scale})"));

    let sizes = [(15usize, 85usize), (40, 360), (80, 720)];
    // Observability overhead probe: time the worklist engine with and
    // without a disabled-recorder emit at the largest size, interleaved,
    // and assert the disabled path costs ≤5% (the crate's zero-cost
    // contract).
    let mut overhead: Option<f64> = None;
    let mut records: Vec<Record> = Vec::new();
    for (transits, stubs) in sizes {
        let world = SyntheticInternet::generate(Config {
            seed: 7,
            transits: transits * scale,
            stubs: stubs * scale,
            roa_adoption: 1.0,
            cross_border: 0.1,
            anchors: false,
            self_hosting: 1.0,
        });
        let cache: VrpCache = world
            .orgs
            .iter()
            .filter(|o| o.adopted_roa)
            .flat_map(|o| o.prefixes.iter().map(move |&p| Vrp::new(p, p.len(), o.asn)))
            .collect();
        let slice: Vec<_> = world.announcements.iter().copied().take(20).collect();

        for policy in [RpkiPolicy::Ignore, RpkiPolicy::DropInvalid, RpkiPolicy::DeprefInvalid] {
            let record = measure(&world.topology, &slice, policy, &cache);
            if (transits, stubs) == sizes[sizes.len() - 1] && policy == RpkiPolicy::DropInvalid {
                let disabled = Recorder::disabled();
                let run = || {
                    propagate_with_stats(&world.topology, &slice, policy, &cache)
                        .expect("worklist converges")
                };
                overhead = Some(interleaved_ratio(
                    GATE_SAMPLES,
                    GATE_REGION,
                    || drop(run()),
                    || run().1.emit(&disabled, 0),
                ));
            }
            records.push(record);
        }

        // The `whack_bgp` shape, at the middle size: the re-propagated
        // subset after a whack round under `DropInvalid` — 48 flipped
        // announcements spread over the table, every other one covered
        // only by somebody else's ROA (whacked: Invalid), the rest
        // with their own ROA back (restored: Valid).
        if (transits, stubs) == sizes[1] {
            let step = (world.announcements.len() / 48).max(1);
            let flipped: Vec<_> =
                world.announcements.iter().copied().step_by(step).take(48).collect();
            let cache: VrpCache = flipped
                .iter()
                .enumerate()
                .map(|(i, a)| {
                    let holder = if i % 2 == 0 { a.origin } else { Asn(u32::MAX) };
                    Vrp::new(a.prefix, a.prefix.len(), holder)
                })
                .collect();
            let policy = RpkiPolicy::DropInvalid;
            records.push(measure(&world.topology, &flipped, policy, &cache));
        }
    }
    let compared = assert_counts_unmoved(
        committed.as_deref(),
        &records,
        &["ases", "prefixes", "policy"],
        &COUNT_COLUMNS,
    );

    let mut out = SummaryTable::new(&[
        "ASes",
        "prefixes (invalid)",
        "policy",
        "worklist (ms)",
        "reference (ms)",
        "speedup",
        "rounds (wl/ref)",
        "memo hits",
        "peak worklist",
    ]);
    for r in &records {
        out.row(&[
            r.ases.to_string(),
            format!("{} ({})", r.prefixes, r.invalid_announcements),
            r.policy.clone(),
            format!("{:.3}", r.worklist_ns as f64 / 1e6),
            format!("{:.3}", r.reference_ns as f64 / 1e6),
            format!("{:.1}x", r.speedup),
            format!("{}/{}", r.worklist_rounds, r.reference_rounds),
            format!("{}/{}", r.memo_hits, r.memo_hits + r.memo_misses),
            r.peak_worklist.to_string(),
        ]);
    }
    report.table("worklist vs reference", out);

    let largest = records.iter().map(|r| r.ases).max().expect("records");
    let min_speedup_at_largest = records
        .iter()
        .filter(|r| r.ases == largest)
        .map(|r| r.speedup)
        .fold(f64::INFINITY, f64::min);
    let overhead = overhead.expect("largest size measured");
    report.key_vals(
        "targets",
        &[
            (
                format!("minimum speedup at the largest size ({largest} ASes)"),
                format!("{min_speedup_at_largest:.1}x"),
            ),
            (
                "disabled-instrumentation overhead at the largest size".to_string(),
                format!("{:.1}%", 100.0 * (overhead - 1.0)),
            ),
            (
                "cells whose count columns equal the committed record's".to_string(),
                format!("{compared} of {}", records.len()),
            ),
            (
                "measured at".to_string(),
                format!(
                    "commit {}, {} core(s), {} build",
                    stamp.commit, stamp.available_parallelism, stamp.profile
                ),
            ),
        ],
    );
    if cfg!(debug_assertions) {
        report
            .note("(debug build — speedup and overhead targets not enforced; run with --release)");
    } else {
        assert!(
            min_speedup_at_largest >= 5.0,
            "worklist engine regressed below the 5x target at {largest} ASes"
        );
        assert!(
            overhead <= 1.05,
            "disabled-mode instrumentation overhead above 5%: {overhead:.4}x the plain run"
        );
        report.note("OK: >= 5x at the largest size; disabled-mode instrumentation <= 5%.");
    }
    report.print();

    export("propagation", &stamp, &records, &Recorder::disabled());
}
