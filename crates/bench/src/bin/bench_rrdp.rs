//! RRDP transport benchmark: rsync cold walk vs digest-probe
//! incremental vs RRDP delta sync, across churn rates and tree shapes,
//! exported to `BENCH_rrdp.json`.
//!
//! The workload mirrors `bench_validation`: a synthetic CA tree
//! ([`SyntheticRpki`]) where each round dirties a fixed fraction of
//! publication points with ROA renewals. Three relying-party transports
//! then fetch the same round:
//!
//! - **cold** — a full rsync walk, every directory fetched and
//!   re-verified from scratch (the RFC 6480 baseline);
//! - **probe** — the digest-probe incremental engine over rsync: one
//!   LIST exchange confirms an unchanged directory;
//! - **rrdp** — the RRDP client state machine: a two-frame notification
//!   poll confirms an unchanged directory, dirtied directories apply
//!   hash-verified delta chains, composed with the same probe-mode
//!   incremental engine as the rsync column. Measured in the trusting
//!   configuration so the column is pure RRDP transport (the verified
//!   configuration adds exactly one rsync probe exchange per directory
//!   — the `probe` column).
//!
//! Every round, both incremental outputs are asserted byte-identical to
//! the cold walk. Frames counted per run come from the simulated
//! network, so they replay exactly; wall times are host-side minimums.
//!
//! ```sh
//! cargo run --release -p rpki-risk-bench --bin bench_rrdp
//! ```
//!
//! `--scale N` multiplies the per-CA ROA count; `--json` mirrors the
//! records to stderr; `--trace PATH` (or `BENCH_TRACE`) writes a JSONL
//! trace of one instrumented round per configuration.

use std::time::Instant;

use rpki_objects::Moment;
use rpki_repo::RrdpClientState;
use rpki_risk::{Fetch, RrdpMode, SyntheticRpki, ValidationOptions};
use rpki_risk_bench::{
    export, scale_arg, time_min, trace_recorder, RunStamp, Summary, SummaryTable,
};
use rpki_rp::{ValidationRun, ValidationState};
use serde::Serialize;

/// One measured (tree shape, churn rate) cell.
#[derive(Debug, Serialize)]
struct Record {
    pub_points: usize,
    depth: u32,
    branching: u32,
    roas_per_ca: usize,
    churn_pct: usize,
    dirtied_per_round: usize,
    cold_ns: u128,
    probe_ns: u128,
    rrdp_ns: u128,
    cold_frames: u64,
    probe_frames: u64,
    rrdp_frames: u64,
    rrdp_speedup: f64,
    probe_speedup: f64,
    delta_syncs: u64,
    deltas_applied: u64,
    snapshot_syncs: u64,
    unchanged: u64,
    fallback_initial: u64,
    fallback_evicted: u64,
    fallback_session_reset: u64,
    fallback_chain_gap: u64,
    bridge_deltas_applied: u64,
}

/// One RRDP-transported incremental revalidation (trusting: no rsync
/// cross-probe, so the measurement is the RRDP path alone).
fn validate_rrdp(
    w: &mut SyntheticRpki,
    now: Moment,
    rrdp: &mut RrdpClientState,
    state: &mut ValidationState,
) -> ValidationRun {
    w.validate_with(
        ValidationOptions::at(now).fetch(Fetch::Rrdp(rrdp, RrdpMode::Trusting)).incremental(state),
    )
}

fn main() {
    let scale = scale_arg();
    let stamp = RunStamp::capture();
    let mut report = Summary::new(&format!("RRDP transport benchmark (scale {scale})"));
    let rec = trace_recorder();

    // Same sweep as bench_validation: 21, 40, and 156 publication
    // points.
    let shapes = [(2u32, 4u32, 12usize), (3, 3, 12), (3, 5, 12)];
    let churns = [1usize, 10, 50, 100];
    let rounds: u64 = if cfg!(debug_assertions) { 1 } else { 3 };

    let mut records: Vec<Record> = Vec::new();
    for (depth, branching, roas_base) in shapes {
        let roas_per_ca = roas_base * scale;
        for churn_pct in churns {
            let mut w = SyntheticRpki::build_seeded(7, depth, branching, roas_per_ca);
            let mut probe_state = ValidationState::probe();
            let mut rrdp_state = RrdpClientState::new();
            // Probe-mode memoization, like the rsync column: the RRDP
            // notification poll is the probe (two frames), delta sync
            // only loads dirtied directories.
            let mut rrdp_validation = ValidationState::probe();
            // Warm-up: fill the probe memo and snapshot every
            // publication point into the RRDP client state.
            w.validate_with(ValidationOptions::at(Moment(2)).incremental(&mut probe_state));
            validate_rrdp(&mut w, Moment(2), &mut rrdp_state, &mut rrdp_validation);

            let mut cold_ns = u128::MAX;
            let mut probe_ns = u128::MAX;
            let mut rrdp_ns = u128::MAX;
            let mut cold_frames = 0u64;
            let mut probe_frames = 0u64;
            let mut rrdp_frames = 0u64;
            let mut dirtied = 0;
            for round in 0..rounds {
                let mutate_at = Moment(10 + round * 60);
                let measure_at = Moment(40 + round * 60);
                dirtied = w.churn(churn_pct, mutate_at);

                let sent = w.net.stats().sent;
                cold_ns = cold_ns.min(time_min(3, || {
                    w.validate_with(ValidationOptions::at(measure_at));
                }));
                // time_min ran 4 identical stateless walks.
                cold_frames = (w.net.stats().sent - sent) / 4;

                // The incremental runs re-warm their state, so each
                // round's single timed run measures the steady state.
                let sent = w.net.stats().sent;
                let start = Instant::now();
                let probe_run = w
                    .validate_with(ValidationOptions::at(measure_at).incremental(&mut probe_state));
                probe_ns = probe_ns.min(start.elapsed().as_nanos());
                probe_frames = w.net.stats().sent - sent;

                let sent = w.net.stats().sent;
                let start = Instant::now();
                let rrdp_run =
                    validate_rrdp(&mut w, measure_at, &mut rrdp_state, &mut rrdp_validation);
                rrdp_ns = rrdp_ns.min(start.elapsed().as_nanos());
                rrdp_frames = w.net.stats().sent - sent;

                let cold = w.validate_with(ValidationOptions::at(measure_at));
                assert_eq!(probe_run, cold, "probe output diverged from the cold walk");
                assert_eq!(rrdp_run, cold, "RRDP output diverged from the cold walk");
            }

            // One extra instrumented round so the trace artifact shows
            // the RRDP sync events and counters per cell.
            if rec.is_enabled() {
                w.net.set_recorder(rec.clone());
                let at = Moment(10 + rounds * 60);
                w.churn(churn_pct, at);
                validate_rrdp(&mut w, Moment(at.0 + 30), &mut rrdp_state, &mut rrdp_validation);
                w.net.set_recorder(rpki_risk_bench::Recorder::disabled());
            }

            let stats = rrdp_state.stats();
            // Every snapshot sync has exactly one recorded cause.
            assert_eq!(
                stats.fallback_initial
                    + stats.fallback_evicted
                    + stats.fallback_session_reset
                    + stats.fallback_chain_gap,
                stats.snapshot_syncs,
                "fallback causes must partition the snapshot syncs"
            );
            records.push(Record {
                pub_points: w.publication_points(),
                depth,
                branching,
                roas_per_ca,
                churn_pct,
                dirtied_per_round: dirtied,
                cold_ns,
                probe_ns,
                rrdp_ns,
                cold_frames,
                probe_frames,
                rrdp_frames,
                rrdp_speedup: cold_ns as f64 / rrdp_ns as f64,
                probe_speedup: cold_ns as f64 / probe_ns as f64,
                delta_syncs: stats.delta_syncs,
                deltas_applied: stats.deltas_applied,
                snapshot_syncs: stats.snapshot_syncs,
                unchanged: stats.unchanged,
                fallback_initial: stats.fallback_initial,
                fallback_evicted: stats.fallback_evicted,
                fallback_session_reset: stats.fallback_session_reset,
                fallback_chain_gap: stats.fallback_chain_gap,
                bridge_deltas_applied: stats.bridge_deltas_applied,
            });
        }
    }

    let mut out = SummaryTable::new(&[
        "points",
        "shape",
        "churn",
        "dirtied",
        "cold (ms)",
        "probe (ms)",
        "rrdp (ms)",
        "frames c/p/r",
        "rrdp speedup",
        "deltas/snaps",
    ]);
    for r in &records {
        out.row(&[
            r.pub_points.to_string(),
            format!("d{} b{} r{}", r.depth, r.branching, r.roas_per_ca),
            format!("{}%", r.churn_pct),
            r.dirtied_per_round.to_string(),
            format!("{:.3}", r.cold_ns as f64 / 1e6),
            format!("{:.3}", r.probe_ns as f64 / 1e6),
            format!("{:.3}", r.rrdp_ns as f64 / 1e6),
            format!("{}/{}/{}", r.cold_frames, r.probe_frames, r.rrdp_frames),
            format!("{:.1}x", r.rrdp_speedup),
            format!("{}/{}", r.delta_syncs, r.snapshot_syncs),
        ]);
    }
    report.table("rsync cold walk vs digest probe vs RRDP delta sync", out);

    let largest = records.iter().map(|r| r.pub_points).max().expect("records");
    let floor_speedup = records
        .iter()
        .filter(|r| r.pub_points == largest && r.churn_pct <= 10)
        .map(|r| r.rrdp_speedup)
        .fold(f64::INFINITY, f64::min);
    report.key_vals(
        "targets",
        &[(
            format!("minimum RRDP speedup at <=10% churn on the largest tree ({largest} points)"),
            format!("{floor_speedup:.1}x"),
        )],
    );
    if cfg!(debug_assertions) {
        report.note("(debug build — speedup floor not enforced; run with --release)");
    } else if floor_speedup >= 4.0 {
        report.note("OK: >= 4x over the cold walk at <=10% churn on the largest tree.");
    }
    report.print();

    export("rrdp", &stamp, &records, &rec);
    // Enforced last so a regressed run still reports and exports the
    // numbers that explain it.
    assert!(
        cfg!(debug_assertions) || floor_speedup >= 4.0,
        "RRDP delta sync regressed below the 4x floor at <=10% churn ({floor_speedup:.2}x)"
    );
}
