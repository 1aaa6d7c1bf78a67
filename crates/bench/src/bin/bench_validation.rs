//! Incremental-validation benchmark: memoized revalidation vs the cold
//! full walk, across churn rates and tree shapes, exported to
//! `BENCH_validation.json`.
//!
//! The workload is the relying party's steady state: a synthetic CA
//! tree ([`SyntheticRpki`]) where each round dirties a fixed fraction
//! of publication points (ROA renewals — fresh manifest, CRL, and ROA
//! bytes) plus one semantic change (a ROA announced, last round's
//! retired) so the VRP delta feed is exercised. The incremental engine
//! runs in probe mode: unchanged directories are confirmed with a
//! single LIST exchange and replayed from the memo cache; every round
//! its output is asserted equal to a cold walk of the same world.
//!
//! ```sh
//! cargo run --release -p rpki-risk-bench --bin bench_validation
//! ```
//!
//! `--scale N` multiplies the per-CA ROA count; `--json` mirrors the
//! records to stderr; `--trace PATH` (or `BENCH_TRACE`) writes a JSONL
//! trace of one instrumented round per configuration.

use std::time::Instant;

use ipres::Asn;
use rpki_objects::{Moment, RoaPrefix};
use rpki_risk::{SyntheticRpki, ValidationOptions};
use rpki_risk_bench::{
    export, scale_arg, time_min, trace_recorder, RunStamp, Summary, SummaryTable,
};
use rpki_rp::ValidationState;
use serde::Serialize;

/// Release floor on cold ÷ incremental wall time at <=10% churn on the
/// 156-point tree. A ratio moves when either side does: the floor was 5x
/// while SHA-256 was scalar (18.5 ms over 3.11 ms, 6.0x, on the host
/// that measured both); with the SHA-NI kernel both sides are faster
/// (10.6 ms over 2.35 ms) but the cold walk, which hashes every byte,
/// shrank more than probe-and-replay, which hashes none, so the same
/// engine reads 4.5x. The clock-free statement of what the ratio stood
/// for is the re-walk bound asserted beside it.
const WALL_FLOOR: f64 = 3.5;

/// One measured (tree shape, churn rate) cell.
#[derive(Debug, Serialize)]
struct Record {
    pub_points: usize,
    depth: u32,
    branching: u32,
    roas_per_ca: usize,
    vrps: usize,
    churn_pct: usize,
    dirtied_per_round: usize,
    cold_ns: u128,
    incremental_ns: u128,
    speedup: f64,
    subtrees_reused: u64,
    subtrees_rewalked: u64,
    probes: u64,
    probe_hits: u64,
    delta_announced: u64,
    delta_withdrawn: u64,
}

/// Renews ROAs in `pct`% of directories, then makes one semantic
/// change at the root: retire last round's extra ROA and announce this
/// round's, so every measured delta carries one announce and one
/// withdraw. Returns the dirtied-directory count.
fn mutate(
    w: &mut SyntheticRpki,
    pct: usize,
    round: u64,
    extra: &mut Option<String>,
    now: Moment,
) -> usize {
    // Retire before churning: a churn renewal of the extra ROA would
    // otherwise rename the file out from under us.
    if let Some(file) = extra.take() {
        w.cas[0].withdraw(&file).expect("extra ROA present");
    }
    let dirtied = w.churn(pct, now);
    let third_octet = 200 + (round % 50);
    let roa = w.cas[0]
        .issue_roa(
            Asn(64999),
            vec![RoaPrefix::exact(format!("10.0.{third_octet}.0/24").parse().expect("literal"))],
            now,
        )
        .expect("inside the root's /16");
    *extra = Some(roa.file_name());
    assert!(w.repos.publish(&mut w.cas[0], now), "the bench host is registered");
    dirtied
}

fn main() {
    let scale = scale_arg();
    let stamp = RunStamp::capture();
    let mut report = Summary::new(&format!("Incremental validation benchmark (scale {scale})"));
    let rec = trace_recorder();

    // (depth, branching, roas_per_ca): 21, 40, and 156 publication
    // points — the last being the deepest tree 10.0.0.0/8 can host
    // with one /16 per CA.
    let shapes = [(2u32, 4u32, 12usize), (3, 3, 12), (3, 5, 12)];
    let churns = [1usize, 10, 50, 100];
    let rounds: u64 = if cfg!(debug_assertions) { 1 } else { 3 };

    let mut records: Vec<Record> = Vec::new();
    for (depth, branching, roas_base) in shapes {
        let roas_per_ca = roas_base * scale;
        for churn_pct in churns {
            let mut w = SyntheticRpki::build_seeded(7, depth, branching, roas_per_ca);
            let mut state = ValidationState::probe();
            let mut extra: Option<String> = None;
            // Warm-up: the first incremental run is a full walk that
            // fills the memo cache.
            w.validate_with(ValidationOptions::at(Moment(2)).incremental(&mut state));

            let mut cold_ns = u128::MAX;
            let mut incremental_ns = u128::MAX;
            let mut dirtied = 0;
            for round in 0..rounds {
                let mutate_at = Moment(10 + round * 60);
                let measure_at = Moment(40 + round * 60);
                dirtied = mutate(&mut w, churn_pct, round, &mut extra, mutate_at);
                cold_ns = cold_ns.min(time_min(3, || {
                    w.validate_with(ValidationOptions::at(measure_at));
                }));
                // The incremental run re-warms the cache, so each
                // round's single timed run measures the steady state.
                let start = Instant::now();
                let run =
                    w.validate_with(ValidationOptions::at(measure_at).incremental(&mut state));
                incremental_ns = incremental_ns.min(start.elapsed().as_nanos());
                let cold = w.validate_with(ValidationOptions::at(measure_at));
                assert_eq!(run, cold, "incremental output diverged from the cold walk");
            }

            // One extra instrumented round so the trace artifact shows
            // the obs counters and the delta histogram per cell.
            if rec.is_enabled() {
                w.net.set_recorder(rec.clone());
                let at = Moment(10 + rounds * 60);
                mutate(&mut w, churn_pct, rounds, &mut extra, at);
                w.validate_with(ValidationOptions::at(Moment(at.0 + 30)).incremental(&mut state));
                state.stats().emit(&rec, at.0 + 30);
                w.net.set_recorder(rpki_risk_bench::Recorder::disabled());
            }

            let stats = state.stats();
            records.push(Record {
                pub_points: w.publication_points(),
                depth,
                branching,
                roas_per_ca,
                vrps: w.roa_count + 1,
                churn_pct,
                dirtied_per_round: dirtied,
                cold_ns,
                incremental_ns,
                speedup: cold_ns as f64 / incremental_ns as f64,
                subtrees_reused: stats.subtrees_reused,
                subtrees_rewalked: stats.subtrees_rewalked,
                probes: stats.probes,
                probe_hits: stats.probe_hits,
                delta_announced: stats.announced,
                delta_withdrawn: stats.withdrawn,
            });
        }
    }

    let mut out = SummaryTable::new(&[
        "points",
        "shape",
        "churn",
        "dirtied",
        "cold (ms)",
        "incremental (ms)",
        "speedup",
        "reused/rewalked",
        "probe hits",
    ]);
    for r in &records {
        out.row(&[
            r.pub_points.to_string(),
            format!("d{} b{} r{}", r.depth, r.branching, r.roas_per_ca),
            format!("{}%", r.churn_pct),
            r.dirtied_per_round.to_string(),
            format!("{:.3}", r.cold_ns as f64 / 1e6),
            format!("{:.3}", r.incremental_ns as f64 / 1e6),
            format!("{:.1}x", r.speedup),
            format!("{}/{}", r.subtrees_reused, r.subtrees_rewalked),
            format!("{}/{}", r.probe_hits, r.probes),
        ]);
    }
    report.table("incremental vs cold full walk", out);

    let largest = records.iter().map(|r| r.pub_points).max().expect("records");
    let floor_speedup = records
        .iter()
        .filter(|r| r.pub_points == largest && r.churn_pct <= 10)
        .map(|r| r.speedup)
        .fold(f64::INFINITY, f64::min);
    // What the wall-clock ratio stands in for, on no clock at all: the
    // engine re-walks what was dirtied plus the root (the one semantic
    // change every round makes there), and replays everything else.
    let rewalk_excess = records
        .iter()
        .map(|r| r.subtrees_rewalked.saturating_sub(r.dirtied_per_round as u64))
        .max()
        .expect("records");
    report.key_vals(
        "targets",
        &[
            (
                format!("minimum speedup at <=10% churn on the largest tree ({largest} points)"),
                format!("{floor_speedup:.1}x"),
            ),
            (
                "most subtrees re-walked beyond the dirtied ones, any cell".to_string(),
                rewalk_excess.to_string(),
            ),
        ],
    );
    if cfg!(debug_assertions) {
        report.note("(debug build — speedup floor not enforced; run with --release)");
    } else if floor_speedup >= WALL_FLOOR {
        report.note(&format!(
            "OK: >= {WALL_FLOOR}x over the cold walk at <=10% churn on the largest tree."
        ));
    }
    report.print();

    export("validation", &stamp, &records, &rec);
    // Enforced last so a regressed run still reports and exports the
    // numbers that explain it.
    assert!(
        rewalk_excess <= 1,
        "incremental engine re-walked {rewalk_excess} subtrees beyond the dirtied ones (want <= 1)"
    );
    assert!(
        cfg!(debug_assertions) || floor_speedup >= WALL_FLOOR,
        "incremental engine regressed below the {WALL_FLOOR}x floor at <=10% churn \
         ({floor_speedup:.2}x)"
    );
}
