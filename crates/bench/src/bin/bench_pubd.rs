//! Publication-server benchmark: snapshot compaction × delta retention
//! × CA churn, exported to `BENCH_pubd.json`.
//!
//! The workload is the `rpki-pubd` subsystem's design target: a
//! synthetic CA tree ([`World::tree`]) driven by the seeded
//! [`ChurnEngine`] — per-step ROA renewals at a configurable rate — so
//! every publication point advances its RRDP serial like a production
//! repository. Three relying parties generate the serve load:
//!
//! - a **steady** poller syncing every step (the well-behaved RP that
//!   always rides the delta path);
//! - a **lagging** poller syncing every sixth step, and a **stale** one
//!   syncing once at the end (the RPs a short retention budget starves
//!   onto the snapshot — the §3.3.2 fallback).
//!
//! Each cell of the sweep fixes a tree shape (156 and ~1000 publication
//! points), a churn rate, a compaction interval, and a retention depth,
//! then reports the server-side ledgers *for the churn phase alone*
//! (world-build and client warm-up cost is subtracted out): snapshot
//! bytes *built* (rebuild work), bytes *served* by document kind,
//! deltas evicted, and the retained delta-log footprint. *Work per
//! serial* is the bytes the server produced or shipped as content per
//! published serial — snapshot bytes built plus snapshot and delta
//! bytes served; notification bytes are reported separately since that
//! polling overhead is fixed by the client cadence, not the serial
//! rate. Two derived results are asserted:
//!
//! - **floor** — at 10% churn, the compacted server (interval 8) does
//!   at least 2× less work per serial than the rebuild-on-demand
//!   server (interval 1);
//! - **crossover** — walking the retention depths at 10% churn exposes
//!   the point where the retained delta log outgrows the snapshot-
//!   fallback traffic it prevents, per tree shape.
//!
//! Every cell's final steady-client output is asserted byte-identical
//! to a cold rsync walk of the same world — compaction and retention
//! are server-side layout policies, never content changes.
//!
//! ```sh
//! cargo run --release -p rpki-risk-bench --bin bench_pubd
//! ```
//!
//! `--json` mirrors the records to stderr; `--trace PATH` (or
//! `BENCH_TRACE`) writes a JSONL trace of one instrumented cell.

use rpki_ca::{ChurnConfig, ChurnEngine};
use rpki_objects::Moment;
use rpki_repo::{PubdPolicy, RetentionPolicy, RrdpClientState};
use rpki_risk::{Fetch, RrdpMode, ValidationOptions, World};
use rpki_risk_bench::{export, trace_recorder, RunStamp, Summary, SummaryTable};
use rpki_rp::{ValidationRun, ValidationState};
use serde::Serialize;

/// One measured (shape, churn, interval, retention) cell.
#[derive(Debug, Serialize)]
struct Record {
    pub_points: usize,
    depth: u32,
    branching: u32,
    roas_per_ca: usize,
    churn_pct: u32,
    compaction_interval: u64,
    retention: String,
    /// Retention depth in deltas (`0` encodes unbounded).
    retention_depth: u64,
    steps: u64,
    serials: u64,
    snapshot_builds: u64,
    forced_builds: u64,
    snapshot_bytes_built: u64,
    deltas_evicted: u64,
    delta_bytes_evicted: u64,
    retained_deltas: u64,
    retained_delta_bytes: u64,
    notifications_served: u64,
    notification_bytes_served: u64,
    snapshots_served: u64,
    snapshot_bytes_served: u64,
    deltas_served: u64,
    delta_bytes_served: u64,
    fallback_evicted: u64,
    fallback_chain_gap: u64,
    bridge_deltas_applied: u64,
    built_per_serial: f64,
    served_per_serial: f64,
    work_per_serial: f64,
    /// Whether this cell's snapshot-fallback traffic still exceeds its
    /// retained delta-log footprint (the pre-crossover regime).
    fallback_exceeds_storage: bool,
}

/// One RRDP-transported incremental revalidation (trusting: the
/// measurement is the RRDP serve path alone).
fn poll(
    w: &mut World,
    now: Moment,
    rrdp: &mut RrdpClientState,
    state: &mut ValidationState,
) -> ValidationRun {
    w.validate_with(
        ValidationOptions::at(now).fetch(Fetch::Rrdp(rrdp, RrdpMode::Trusting)).incremental(state),
    )
}

fn retention_of(depth: u64) -> RetentionPolicy {
    if depth == 0 {
        RetentionPolicy::Unbounded
    } else {
        RetentionPolicy::Count { max_deltas: depth as usize }
    }
}

fn main() {
    let stamp = RunStamp::capture();
    let mut report = Summary::new("publication-server benchmark (compaction x retention x churn)");
    let rec = trace_recorder();

    // 156 and ~1000 publication points: the bench_rp flagship
    // shape and a planet-scale flat tree (1 + 31 + 961 = 993).
    let shapes = [(3u32, 5u32, 12usize), (2, 31, 12)];
    let churns = [2u32, 10, 50];
    let intervals = [1u64, 8];
    // Retention depths in deltas; 0 = unbounded. MAX_DELTAS (32) is
    // the pre-pubd server's hard-coded bound.
    let depths = [1u64, 2, 4, 8, 32, 0];
    let steps: u64 = 12;

    let mut records: Vec<Record> = Vec::new();
    for (depth, branching, roas_per_ca) in shapes {
        for churn_pct in churns {
            for interval in intervals {
                for retention_depth in depths {
                    let retention = retention_of(retention_depth);
                    let policy = PubdPolicy::compacted(interval).with_retention(retention);
                    let mut w = World::tree(7, depth, branching, roas_per_ca);
                    let repo = w.repos.by_host_mut("rpki.bench.example").expect("bench host");
                    repo.set_pubd_policy(policy);

                    // The client population, all warmed before the
                    // serve ledgers reset: the measured snapshot serves
                    // are fallback-driven, not cold starts.
                    let mut steady_rrdp = RrdpClientState::new();
                    let mut steady_val = ValidationState::probe();
                    let mut lag_rrdp = RrdpClientState::new();
                    let mut lag_val = ValidationState::probe();
                    let mut stale_rrdp = RrdpClientState::new();
                    let mut stale_val = ValidationState::probe();
                    poll(&mut w, Moment(2), &mut steady_rrdp, &mut steady_val);
                    poll(&mut w, Moment(3), &mut lag_rrdp, &mut lag_val);
                    poll(&mut w, Moment(4), &mut stale_rrdp, &mut stale_val);
                    let repo = w.repos.by_host("rpki.bench.example").expect("bench host");
                    repo.reset_served_load();
                    // Churn-phase baseline: everything before this line
                    // (world build, policy switch, warm-up) is setup.
                    let work0 = repo.pubd_work_total();

                    let mut engine = ChurnEngine::new(11, ChurnConfig::renew_rate_pct(churn_pct));
                    let mut final_run = None;
                    for step in 0..steps {
                        let at = Moment(10 + step * 60);
                        w.run_churn(&mut engine, at);
                        let measure = Moment(at.0 + 30);
                        final_run = Some(poll(&mut w, measure, &mut steady_rrdp, &mut steady_val));
                        if step % 6 == 5 {
                            poll(&mut w, measure, &mut lag_rrdp, &mut lag_val);
                        }
                        if step == steps - 1 {
                            poll(&mut w, measure, &mut stale_rrdp, &mut stale_val);
                        }
                    }

                    // Server-side layout policies never change content.
                    let cold = w.validate_with(ValidationOptions::at(Moment(10 + steps * 60)));
                    assert_eq!(
                        final_run.expect("steps > 0"),
                        cold,
                        "steady client diverged from the cold walk \
                         (interval {interval}, retention {})",
                        retention.label()
                    );

                    let repo = w.repos.by_host("rpki.bench.example").expect("bench host");
                    // Churn-phase work: cumulative ledger minus the
                    // setup baseline. The retained_* fields are gauges
                    // of the end state, not counters — no subtraction.
                    let work = repo.pubd_work_total();
                    let served = repo.pubd_served_total();
                    let lag = lag_rrdp.stats();
                    let steady = steady_rrdp.stats();
                    let stale = stale_rrdp.stats();
                    let serials = work.serials - work0.serials;
                    let built = work.snapshot_bytes_built - work0.snapshot_bytes_built;
                    let built_per_serial = built as f64 / serials.max(1) as f64;
                    let served_per_serial = served.total_bytes() as f64 / serials.max(1) as f64;
                    let work_per_serial = (built + served.snapshot_bytes + served.delta_bytes)
                        as f64
                        / serials.max(1) as f64;
                    records.push(Record {
                        pub_points: w.publication_points(),
                        depth,
                        branching,
                        roas_per_ca,
                        churn_pct,
                        compaction_interval: interval,
                        retention: retention.label(),
                        retention_depth,
                        steps,
                        serials,
                        snapshot_builds: work.snapshot_builds - work0.snapshot_builds,
                        forced_builds: work.forced_builds - work0.forced_builds,
                        snapshot_bytes_built: built,
                        deltas_evicted: work.deltas_evicted - work0.deltas_evicted,
                        delta_bytes_evicted: work.delta_bytes_evicted - work0.delta_bytes_evicted,
                        retained_deltas: work.retained_deltas,
                        retained_delta_bytes: work.retained_delta_bytes,
                        notifications_served: served.notifications,
                        notification_bytes_served: served.notification_bytes,
                        snapshots_served: served.snapshots,
                        snapshot_bytes_served: served.snapshot_bytes,
                        deltas_served: served.deltas,
                        delta_bytes_served: served.delta_bytes,
                        fallback_evicted: steady.fallback_evicted
                            + lag.fallback_evicted
                            + stale.fallback_evicted,
                        fallback_chain_gap: steady.fallback_chain_gap
                            + lag.fallback_chain_gap
                            + stale.fallback_chain_gap,
                        bridge_deltas_applied: steady.bridge_deltas_applied
                            + lag.bridge_deltas_applied
                            + stale.bridge_deltas_applied,
                        built_per_serial,
                        served_per_serial,
                        work_per_serial,
                        fallback_exceeds_storage: served.snapshot_bytes > work.retained_delta_bytes,
                    });
                }
            }
        }
    }

    // One extra instrumented cell so the trace artifact carries the
    // pubd materialise/evict events and counters.
    if rec.is_enabled() {
        let mut w = World::tree(7, 2, 3, 4);
        let repo = w.repos.by_host_mut("rpki.bench.example").expect("bench host");
        repo.set_pubd_policy(
            PubdPolicy::compacted(4).with_retention(RetentionPolicy::Count { max_deltas: 2 }),
        );
        repo.set_recorder(rec.clone());
        w.net.set_recorder(rec.clone());
        let mut rrdp = RrdpClientState::new();
        let mut val = ValidationState::probe();
        poll(&mut w, Moment(2), &mut rrdp, &mut val);
        let mut engine = ChurnEngine::new(11, ChurnConfig::renew_rate_pct(50));
        for step in 0..8u64 {
            w.run_churn(&mut engine, Moment(10 + step * 60));
        }
        poll(&mut w, Moment(10 + 8 * 60), &mut rrdp, &mut val);
    }

    let mut out = SummaryTable::new(&[
        "points",
        "churn",
        "interval",
        "retention",
        "serials",
        "builds (forced)",
        "built KB",
        "served KB n/s/d",
        "evicted",
        "retained KB",
        "work/serial",
    ]);
    for r in &records {
        out.row(&[
            r.pub_points.to_string(),
            format!("{}%", r.churn_pct),
            r.compaction_interval.to_string(),
            r.retention.clone(),
            r.serials.to_string(),
            format!("{} ({})", r.snapshot_builds, r.forced_builds),
            format!("{}", r.snapshot_bytes_built / 1024),
            format!(
                "{}/{}/{}",
                r.notification_bytes_served / 1024,
                r.snapshot_bytes_served / 1024,
                r.delta_bytes_served / 1024
            ),
            r.deltas_evicted.to_string(),
            format!("{}", r.retained_delta_bytes / 1024),
            format!("{:.0}", r.work_per_serial),
        ]);
    }
    report.table("server work and serve ledgers per cell", out);

    // The §3.3.2 crossover, per shape: walking the retention depths at
    // 10% churn under the compacted server, where does the retained
    // delta log first outgrow the snapshot-fallback traffic it
    // prevents?
    let mut crossovers: Vec<(String, String)> = Vec::new();
    for (d, b, _) in shapes {
        let mut cells: Vec<&Record> = records
            .iter()
            .filter(|r| {
                r.depth == d
                    && r.branching == b
                    && r.churn_pct == 10
                    && r.compaction_interval == 8
                    && r.retention_depth > 0
            })
            .collect();
        cells.sort_by_key(|r| r.retention_depth);
        let points = cells.first().map_or(0, |r| r.pub_points);
        let cross = cells.iter().find(|r| !r.fallback_exceeds_storage);
        crossovers.push((
            format!("storage overtakes fallback traffic at {points} points (10% churn)"),
            cross.map_or_else(
                || "beyond the swept depths".to_owned(),
                |r| format!("{} deltas retained", r.retention_depth),
            ),
        ));
    }
    report.key_vals(
        "crossover",
        &crossovers.iter().map(|(k, v)| (k.clone(), v.clone())).collect::<Vec<_>>(),
    );

    // The compaction floor: at 10% churn with the default retention
    // bound, the compacted server must do >= 2x less work per serial
    // than rebuild-on-demand, at every shape.
    let mut floor = f64::INFINITY;
    for (d, b, _) in shapes {
        let cell = |interval: u64| {
            records
                .iter()
                .find(|r| {
                    r.depth == d
                        && r.branching == b
                        && r.churn_pct == 10
                        && r.compaction_interval == interval
                        && r.retention_depth == 32
                })
                .expect("swept cell")
        };
        let ratio = cell(1).work_per_serial / cell(8).work_per_serial.max(1.0);
        floor = floor.min(ratio);
    }
    report.key_vals(
        "targets",
        &[(
            "minimum rebuild-on-demand / compacted work ratio at 10% churn".to_owned(),
            format!("{floor:.1}x"),
        )],
    );
    if cfg!(debug_assertions) {
        report.note("(debug build — compaction floor not enforced; run with --release)");
    } else if floor >= 2.0 {
        report.note("OK: compaction saves >= 2x server work per serial at 10% churn.");
    }
    report.print();

    export("pubd", &stamp, &records, &rec);
    // Enforced last so a regressed run still reports and exports the
    // numbers that explain it.
    assert!(
        cfg!(debug_assertions) || floor >= 2.0,
        "compaction regressed below the 2x work floor at 10% churn ({floor:.2}x)"
    );
}
