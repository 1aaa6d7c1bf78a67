//! Propagation-engine benchmark: worklist vs the full-scan reference,
//! at growing topology sizes, exported to `BENCH_propagation.json`.
//!
//! The Criterion bench (`benches/routing.rs`) tracks the worklist
//! engine's absolute numbers over time; this binary is the comparative
//! harness behind EXPERIMENTS.md — it times both engines on identical
//! inputs and records the speedup, the round counts, and the validity
//! memo's hit rate.
//!
//! ```sh
//! cargo run --release -p rpki-risk-bench --bin bench_propagation
//! ```
//!
//! `--scale N` multiplies every topology size; `--json` additionally
//! mirrors the records to stderr like the other harness binaries.

use bgp_sim::{propagate_with_stats, reference, RpkiPolicy};
use rpki_risk_bench::{emit_json, scale_arg, time_min, Recorder, Summary, SummaryTable};
use rpki_rp::{Vrp, VrpCache};
use serde::Serialize;
use topogen::{Config, SyntheticInternet};

/// One measured configuration.
#[derive(Debug, Serialize)]
struct Record {
    ases: usize,
    prefixes: usize,
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

fn main() {
    // `--scale 0` would generate an empty world and a NaN speedup.
    let scale = scale_arg().max(1);
    let mut report = Summary::new(&format!("Propagation engine benchmark (scale {scale})"));

    let sizes = [(15usize, 85usize), (40, 360), (80, 720)];
    // Observability overhead probe: time the worklist engine with and
    // without a disabled-recorder emit at the largest size, and assert
    // the disabled path costs ≤5% (the crate's zero-cost contract).
    let mut overhead: Option<(u128, u128)> = None;
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
        let ases = world.topology.len();

        for policy in [RpkiPolicy::Ignore, RpkiPolicy::DropInvalid, RpkiPolicy::DeprefInvalid] {
            let (state, stats) = propagate_with_stats(&world.topology, &slice, policy, &cache)
                .expect("worklist converges");
            let (oracle, oracle_rounds) =
                reference::propagate(&world.topology, &slice, policy, &cache)
                    .expect("reference converges");
            assert_eq!(state, oracle, "engines diverged under {policy:?} at {ases} ASes");

            let worklist_ns = time_min(5, || {
                propagate_with_stats(&world.topology, &slice, policy, &cache)
                    .expect("worklist converges");
            });
            let reference_ns = time_min(3, || {
                reference::propagate(&world.topology, &slice, policy, &cache)
                    .expect("reference converges");
            });

            if (transits, stubs) == sizes[sizes.len() - 1] && policy == RpkiPolicy::DropInvalid {
                let disabled = Recorder::disabled();
                let instrumented_ns = time_min(5, || {
                    let (_, stats) = propagate_with_stats(&world.topology, &slice, policy, &cache)
                        .expect("worklist converges");
                    stats.emit(&disabled, 0);
                });
                overhead = Some((worklist_ns, instrumented_ns));
            }

            records.push(Record {
                ases,
                prefixes: slice.len(),
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
            });
        }
    }

    let mut out = SummaryTable::new(&[
        "ASes",
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
    let (plain_ns, instrumented_ns) = overhead.expect("largest size measured");
    report.key_vals(
        "targets",
        &[
            (
                format!("minimum speedup at the largest size ({largest} ASes)"),
                format!("{min_speedup_at_largest:.1}x"),
            ),
            (
                "disabled-instrumentation overhead at the largest size".to_string(),
                format!("{:.1}%", 100.0 * (instrumented_ns as f64 / plain_ns as f64 - 1.0)),
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
            (instrumented_ns as f64) <= (plain_ns as f64) * 1.05,
            "disabled-mode instrumentation overhead above 5%: {instrumented_ns} vs {plain_ns} ns"
        );
        report.note("OK: >= 5x at the largest size; disabled-mode instrumentation <= 5%.");
    }
    report.print();

    let json = serde_json::to_string(&records).expect("serialise records");
    std::fs::write("BENCH_propagation.json", format!("{json}\n"))
        .expect("write BENCH_propagation.json");
    println!("\nwrote BENCH_propagation.json ({} records)", records.len());
    emit_json("bench_propagation", &records);
}
