//! Walk scaling benchmark: the cold validation walk across
//! publication-point counts, exported to `BENCH_scale.json`, with the
//! near-linear per-point cost enforced.
//!
//! The workload is a cold full walk of [`SyntheticRpki`] worlds sized
//! 156 → 993 → 4971 publication points. The world grows ~32×; a walk
//! whose per-point cost stays flat over that range is linear in the
//! number of points, and one that has gone quadratic shows a ~32×
//! spread. The release floor asserts a spread of at most 6×.
//!
//! ```sh
//! cargo run --release -p rpki-risk-bench --bin bench_scale
//! ```
//!
//! `--scale N` multiplies the per-CA ROA count; `--json` mirrors the
//! records to stderr; `--trace PATH` (or `BENCH_TRACE`) writes a JSONL
//! trace of one instrumented walk per shape (its network events).

use rpki_objects::Moment;
use rpki_risk::{SyntheticRpki, ValidationOptions};
use rpki_risk_bench::{
    export, scale_arg, time_min, trace_recorder, Recorder, RunStamp, Summary, SummaryTable,
};
use serde::Serialize;

/// One measured tree shape.
#[derive(Debug, Serialize)]
struct Record {
    pub_points: usize,
    depth: u32,
    branching: u32,
    roas_per_ca: usize,
    vrps: usize,
    seq_ns: u128,
    ns_per_point: f64,
}

fn main() {
    let scale = scale_arg();
    let stamp = RunStamp::capture();
    let mut report = Summary::new(&format!("Walk scaling benchmark (scale {scale})"));
    let rec = trace_recorder();

    // (depth, branching): 156, 993, and 4971 publication points — the
    // RIR-hosted fan-outs the campaigns sweep. ROAs are kept thin so
    // walk cost tracks pub-point count, not ROA parsing.
    let shapes = [(3u32, 5u32), (2, 31), (2, 70)];
    let iters = if cfg!(debug_assertions) { 1 } else { 2 };
    let roas_per_ca = 4 * scale;

    let mut records: Vec<Record> = Vec::new();
    for (depth, branching) in shapes {
        let mut w = SyntheticRpki::build_seeded(7, depth, branching, roas_per_ca);
        let points = w.publication_points();
        let now = Moment(2);

        let seq_ns = time_min(iters, || {
            w.validate_with(ValidationOptions::at(now));
        });
        records.push(Record {
            pub_points: points,
            depth,
            branching,
            roas_per_ca,
            vrps: w.roa_count + 1,
            seq_ns,
            ns_per_point: seq_ns as f64 / points as f64,
        });

        // One instrumented walk so the trace artifact carries the
        // walk's network events.
        if rec.is_enabled() {
            w.net.set_recorder(rec.clone());
            w.validate_with(ValidationOptions::at(Moment(60)));
            w.net.set_recorder(Recorder::disabled());
        }
    }

    let mut out = SummaryTable::new(&["points", "vrps", "walk (ms)", "per point (us)"]);
    for r in &records {
        out.row(&[
            r.pub_points.to_string(),
            r.vrps.to_string(),
            format!("{:.3}", r.seq_ns as f64 / 1e6),
            format!("{:.2}", r.ns_per_point / 1e3),
        ]);
    }
    report.table("cold walk", out);

    // Near-linear scaling: the per-point cost should stay flat as the
    // world grows ~32x. Quadratic behaviour would show up as a ~32x
    // ratio here.
    let min = records.iter().map(|r| r.ns_per_point).fold(f64::INFINITY, f64::min);
    let max = records.iter().map(|r| r.ns_per_point).fold(0.0f64, f64::max);
    let per_point_ratio = max / min;
    report.key_vals(
        "targets",
        &[
            (
                "per-point cost spread (max/min over 156→4971 points)".to_string(),
                format!("{per_point_ratio:.2}x"),
            ),
            ("host cores".to_string(), stamp.available_parallelism.to_string()),
        ],
    );
    if cfg!(debug_assertions) {
        report.note("(debug build — scaling floor not enforced; run with --release)");
    } else if per_point_ratio <= 6.0 {
        report.note("OK: near-linear per-point cost.");
    }
    report.print();

    export("scale", &stamp, &records, &rec);
    // Enforced last so a regressed run still reports and exports the
    // numbers that explain it.
    assert!(
        cfg!(debug_assertions) || per_point_ratio <= 6.0,
        "the walk is no longer near-linear: per-point cost spread {per_point_ratio:.2}x"
    );
}
