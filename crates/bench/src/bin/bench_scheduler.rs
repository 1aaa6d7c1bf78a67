//! Fetch-scheduler benchmark: notification-cadence scheduling vs the
//! every-run full sweep, across tree shapes and churn rates, exported
//! to `BENCH_scheduler.json`.
//!
//! The workload is the `bench_scale` tree family — 156, 993, and 4971
//! publication points — with a rotating fraction of points renewing
//! their ROAs each round (VRP content never changes, so every
//! configuration must agree on the validated set even while serving a
//! scheduled snapshot). Two relying parties fetch the same rounds over
//! trusting RRDP with probe-mode incremental validation:
//!
//! - **sweep** — the full-sweep baseline: every publication point gets
//!   a notification poll every round, dirtied points delta-sync (this
//!   is the strongest pre-scheduler configuration, `bench_rrdp`'s best
//!   column);
//! - **scheduled** — the same stack under a
//!   [`ScheduledSource`](rpki_rp::ScheduledSource): each point's
//!   refresh deadline follows its observed change cadence (EWMA,
//!   clamped, jittered), so a quiet point costs *zero frames* until it
//!   comes due.
//!
//! Rounds are spaced one epoch apart, the schedule clamps span
//! 1–16 epochs, and the first `WARMUP` rounds let the per-point
//! intervals decay onto their cadence before frames are counted. A
//! separate phase pins the correctness anchor: under
//! [`SchedulePlan::degenerate`] the scheduled stack is byte-identical
//! to the sweep — same output, same frame count, every round.
//!
//! ```sh
//! cargo run --release -p rpki-risk-bench --bin bench_scheduler
//! ```
//!
//! `--scale N` multiplies the per-CA ROA count; `--json` mirrors the
//! records to stderr; `--trace PATH` (or `BENCH_TRACE`) writes a JSONL
//! trace of one instrumented scheduled round.

use std::time::Instant;

use rpki_objects::{Moment, Span};
use rpki_repo::RrdpClientState;
use rpki_risk::{Fetch, RrdpMode, SyntheticRpki, ValidationOptions};
use rpki_risk_bench::{export, scale_arg, trace_recorder, RunStamp, Summary, SummaryTable};
use rpki_rp::{SchedulePlan, SchedulerState, ValidationRun, ValidationState};
use serde::Serialize;

/// Seconds between validation rounds. Large enough to dominate the
/// sim-seconds a full sweep itself consumes (10s/frame latency over
/// thousands of polls), so "due every round" and "due every k rounds"
/// stay distinguishable.
const EPOCH: u64 = 150_000;

/// One measured (tree shape, churn rate) cell.
#[derive(Debug, Serialize)]
struct Record {
    pub_points: usize,
    depth: u32,
    branching: u32,
    roas_per_ca: usize,
    churn_pct: usize,
    rounds: usize,
    sweep_frames: u64,
    scheduled_frames: u64,
    sweep_ns: u128,
    scheduled_ns: u128,
    frame_reduction: f64,
    due: u64,
    not_due: u64,
    fetched: u64,
    polled: u64,
    vrps: usize,
}

/// The bench schedule: due at least once per epoch, quiet points decay
/// to one visit per `max_mult` epochs. Every point is first contacted
/// on the same warmup round, so the jitter spans the whole refresh
/// wheel — without it the cohort stays phase-locked and comes due in
/// lockstep waves, and the measured rounds alias against the wave
/// phase instead of sampling the steady state. No budgets — this bench
/// isolates pure cadence savings.
fn bench_plan(max_mult: u64) -> SchedulePlan {
    SchedulePlan {
        min_refresh: EPOCH,
        max_refresh: max_mult * EPOCH,
        jitter: max_mult * EPOCH,
        ..SchedulePlan::default()
    }
}

/// Extends every CA's manifest/CRL window to a year and republishes:
/// the schedule deliberately leaves quiet points unfetched for many
/// epochs of simulated time, and the default one-day manifest window
/// would expire under a multi-week bench timeline.
fn stretch_manifests(w: &mut SyntheticRpki) {
    for ca in &mut w.cas {
        ca.set_refresh_interval(Span::days(365));
    }
    w.publish_all(Moment(w.net.now()));
}

/// One full-sweep round: trusting RRDP, probe-mode incremental.
fn validate_sweep(
    w: &mut SyntheticRpki,
    rrdp: &mut RrdpClientState,
    inc: &mut ValidationState,
) -> ValidationRun {
    let now = Moment(w.net.now());
    w.validate_with(
        ValidationOptions::at(now).fetch(Fetch::Rrdp(rrdp, RrdpMode::Trusting)).incremental(inc),
    )
}

/// One scheduled round: the same stack under the fetch scheduler.
fn validate_scheduled(
    w: &mut SyntheticRpki,
    rrdp: &mut RrdpClientState,
    inc: &mut ValidationState,
    sched: &mut SchedulerState,
    plan: SchedulePlan,
) -> ValidationRun {
    let now = Moment(w.net.now());
    w.validate_with(
        ValidationOptions::at(now)
            .fetch(Fetch::Rrdp(rrdp, RrdpMode::Trusting))
            .incremental(inc)
            .scheduled(plan, sched),
    )
}

fn main() {
    let scale = scale_arg();
    let stamp = RunStamp::capture();
    let mut report = Summary::new(&format!("Fetch-scheduler benchmark (scale {scale})"));
    let rec = trace_recorder();

    let roas_per_ca = 4 * scale;
    // Debug builds shrink the sweep so `cargo test`-adjacent smoke runs
    // stay fast; the frame-reduction floor is release-only anyway.
    let debug = cfg!(debug_assertions);
    let shapes: &[(u32, u32)] = if debug { &[(3, 5)] } else { &[(3, 5), (2, 31), (2, 70)] };
    // Warmup must outlast the interval ratchet: a point only doubles
    // past a rung on an unchanged confirm, so under churn the climb to
    // the ceiling takes several refresh wheels.
    let (warmup, measured, max_mult): (usize, usize, u64) =
        if debug { (6, 2, 4) } else { (24, 6, 16) };
    let churns = [1usize, 10];
    let plan = bench_plan(max_mult);

    let mut records: Vec<Record> = Vec::new();
    for &(depth, branching) in shapes {
        for churn_pct in churns {
            // Two worlds, same seed: the sweep baseline and the
            // scheduled RP never share a network, so frame counts are
            // per-configuration exact.
            let mut wb = SyntheticRpki::build_seeded(7, depth, branching, roas_per_ca);
            let mut ws = SyntheticRpki::build_seeded(7, depth, branching, roas_per_ca);
            stretch_manifests(&mut wb);
            stretch_manifests(&mut ws);
            let mut rrdp_b = RrdpClientState::new();
            let mut rrdp_s = RrdpClientState::new();
            let mut inc_b = ValidationState::probe();
            let mut inc_s = ValidationState::probe();
            let mut sched = SchedulerState::new();

            // Warm-up: first contact snapshots everything, then the
            // per-point intervals decay onto the churn cadence.
            for _ in 0..warmup {
                let t = wb.net.now() + EPOCH;
                wb.net.advance_to(t);
                let t = ws.net.now() + EPOCH;
                ws.net.advance_to(t);
                wb.churn(churn_pct, Moment(wb.net.now()));
                ws.churn(churn_pct, Moment(ws.net.now()));
                validate_sweep(&mut wb, &mut rrdp_b, &mut inc_b);
                validate_scheduled(&mut ws, &mut rrdp_s, &mut inc_s, &mut sched, plan);
            }

            let stats_before = sched.stats();
            let mut sweep_frames = 0u64;
            let mut scheduled_frames = 0u64;
            let mut sweep_ns = u128::MAX;
            let mut scheduled_ns = u128::MAX;
            let mut vrps = 0;
            for _ in 0..measured {
                let t = wb.net.now() + EPOCH;
                wb.net.advance_to(t);
                let t = ws.net.now() + EPOCH;
                ws.net.advance_to(t);
                wb.churn(churn_pct, Moment(wb.net.now()));
                ws.churn(churn_pct, Moment(ws.net.now()));

                let sent = wb.net.stats().sent;
                let start = Instant::now();
                let sweep_run = validate_sweep(&mut wb, &mut rrdp_b, &mut inc_b);
                sweep_ns = sweep_ns.min(start.elapsed().as_nanos());
                sweep_frames += wb.net.stats().sent - sent;

                let sent = ws.net.stats().sent;
                let start = Instant::now();
                let sched_run =
                    validate_scheduled(&mut ws, &mut rrdp_s, &mut inc_s, &mut sched, plan);
                scheduled_ns = scheduled_ns.min(start.elapsed().as_nanos());
                scheduled_frames += ws.net.stats().sent - sent;

                // Renewals never move a VRP, so even points served from
                // a scheduled snapshot must agree on the validated set.
                assert_eq!(
                    sched_run.vrps, sweep_run.vrps,
                    "scheduled VRP set diverged from the full sweep"
                );
                vrps = sched_run.vrps.len();
            }
            let stats = sched.stats();

            records.push(Record {
                pub_points: ws.publication_points(),
                depth,
                branching,
                roas_per_ca,
                churn_pct,
                rounds: measured,
                sweep_frames,
                scheduled_frames,
                sweep_ns,
                scheduled_ns,
                frame_reduction: sweep_frames as f64 / scheduled_frames.max(1) as f64,
                due: stats.due - stats_before.due,
                not_due: stats.not_due - stats_before.not_due,
                fetched: stats.fetched - stats_before.fetched,
                polled: stats.polled - stats_before.polled,
                vrps,
            });
        }
    }

    // Correctness anchor: the degenerate plan delegates everything, so
    // the scheduled stack is byte-identical to the sweep — same runs,
    // same wire traffic — for several churned rounds.
    {
        let mut wb = SyntheticRpki::build_seeded(11, 3, 5, roas_per_ca);
        let mut wd = SyntheticRpki::build_seeded(11, 3, 5, roas_per_ca);
        stretch_manifests(&mut wb);
        stretch_manifests(&mut wd);
        let mut rrdp_b = RrdpClientState::new();
        let mut rrdp_d = RrdpClientState::new();
        let mut inc_b = ValidationState::probe();
        let mut inc_d = ValidationState::probe();
        let mut sched = SchedulerState::new();
        for round in 0..3 {
            let t = wb.net.now() + EPOCH;
            wb.net.advance_to(t);
            wd.net.advance_to(t);
            wb.churn(10, Moment(wb.net.now()));
            wd.churn(10, Moment(wd.net.now()));
            let a = validate_sweep(&mut wb, &mut rrdp_b, &mut inc_b);
            let b = validate_scheduled(
                &mut wd,
                &mut rrdp_d,
                &mut inc_d,
                &mut sched,
                SchedulePlan::degenerate(),
            );
            assert_eq!(a, b, "degenerate round {round}: output diverged from the sweep");
            assert_eq!(
                wb.net.stats().sent,
                wd.net.stats().sent,
                "degenerate round {round}: wire traffic diverged from the sweep"
            );
        }
        report.note("degenerate plan verified byte-identical to the sweep (3 rounds, 10% churn)");
    }

    // One extra instrumented scheduled round for the trace artifact.
    if rec.is_enabled() {
        let mut w = SyntheticRpki::build_seeded(7, 3, 5, roas_per_ca);
        stretch_manifests(&mut w);
        let mut rrdp = RrdpClientState::new();
        let mut inc = ValidationState::probe();
        let mut sched = SchedulerState::new();
        validate_scheduled(&mut w, &mut rrdp, &mut inc, &mut sched, plan);
        w.net.set_recorder(rec.clone());
        sched.set_recorder(rec.clone());
        let t = w.net.now() + EPOCH;
        w.net.advance_to(t);
        w.churn(10, Moment(w.net.now()));
        validate_scheduled(&mut w, &mut rrdp, &mut inc, &mut sched, plan);
        w.net.set_recorder(rpki_risk_bench::Recorder::disabled());
    }

    let mut out = SummaryTable::new(&[
        "points",
        "shape",
        "churn",
        "sweep (ms)",
        "sched (ms)",
        "frames sweep/sched",
        "reduction",
        "due/not-due",
        "fetch/poll",
    ]);
    for r in &records {
        out.row(&[
            r.pub_points.to_string(),
            format!("d{} b{} r{}", r.depth, r.branching, r.roas_per_ca),
            format!("{}%", r.churn_pct),
            format!("{:.3}", r.sweep_ns as f64 / 1e6),
            format!("{:.3}", r.scheduled_ns as f64 / 1e6),
            format!("{}/{}", r.sweep_frames, r.scheduled_frames),
            format!("{:.1}x", r.frame_reduction),
            format!("{}/{}", r.due, r.not_due),
            format!("{}/{}", r.fetched, r.polled),
        ]);
    }
    report.table("notification-cadence scheduler vs full-sweep baseline", out);

    let floor = records
        .iter()
        .filter(|r| r.pub_points >= 993 && r.churn_pct <= 10)
        .map(|r| r.frame_reduction)
        .fold(f64::INFINITY, f64::min);
    report.key_vals(
        "targets",
        &[(
            "minimum frame reduction at <=10% churn on >=993 points".to_owned(),
            if floor.is_finite() { format!("{floor:.1}x") } else { "n/a (debug sweep)".to_owned() },
        )],
    );
    if cfg!(debug_assertions) {
        report.note("(debug build — frame-reduction floor not enforced; run with --release)");
    } else if floor >= 5.0 {
        report.note("OK: >= 5x frame reduction over the full sweep at <=10% churn.");
    }
    report.print();

    export("scheduler", &stamp, &records, &rec);
    // Enforced last so a regressed run still reports and exports the
    // numbers that explain it.
    assert!(
        cfg!(debug_assertions) || floor >= 5.0,
        "scheduler regressed below the 5x frame-reduction floor at <=10% churn ({floor:.2}x)"
    );
}
