//! The benchmark's own arithmetic: percentiles, min-of-repetitions, worsening,
//! span self time, and the action ledger.

use rpki_pipeline_bench::oracle::{ActionLedger, Tally};
use rpki_pipeline_bench::report::{metric_in, result_line, Measured, TimedFold, END_TO_END};
use rpki_pipeline_bench::run::{RepResult, RoundRecord};
use rpki_pipeline_bench::stats::{mean, median, percentile, samples_beyond, worsening};
use rpki_pipeline_bench::trace::{self_times_ns, Span};

#[test]
fn percentile_interpolates_between_closest_ranks() {
    let v = [40.0, 10.0, 30.0, 20.0];
    assert_eq!(percentile(&v, 0.0), 10.0);
    assert_eq!(percentile(&v, 1.0), 40.0);
    assert_eq!(median(&v), 25.0);
    // Rank 0.9 * 3 = 2.7: 30 + 0.7 * (40 - 30).
    assert!((percentile(&v, 0.9) - 37.0).abs() < 1e-12);
    assert_eq!(percentile(&[7.0], 0.9), 7.0);
}

#[test]
fn p90_of_110_rounds_leaves_eleven_beyond() {
    let v: Vec<f64> = (0..110).map(f64::from).collect();
    assert_eq!(samples_beyond(&v, 0.9), 11);
    assert_eq!(mean(&v), 54.5);
}

fn rep(setup_s: f64, walls_ms: &[f64]) -> RepResult {
    let rounds = walls_ms
        .iter()
        .map(|ms| RoundRecord { wall_ns: (ms * 1e6) as u64, ..RoundRecord::default() })
        .collect();
    RepResult { setup_s, rounds, ..RepResult::default() }
}

#[test]
fn folding_repetitions_keeps_per_round_minima_and_every_setup() {
    let mut fold = TimedFold::default();
    for (setup_s, walls) in [(0.3, [5.0, 2.0, 9.0]), (0.2, [4.0, 3.0, 9.5]), (0.4, [6.0, 2.5, 8.0])] {
        fold.fold(&rep(setup_s, &walls));
    }
    assert_eq!(fold.minima_ms, vec![4.0, 2.0, 8.0]);
    assert_eq!(fold.setups_s, vec![0.3, 0.2, 0.4]);
    assert_eq!(fold.reps(), 3);
}

#[test]
#[should_panic(expected = "differ in round count")]
fn folding_rejects_a_ragged_repetition() {
    let mut fold = TimedFold::default();
    fold.fold(&rep(0.1, &[1.0, 2.0]));
    fold.fold(&rep(0.1, &[1.0]));
}

#[test]
fn worsening_respects_direction() {
    assert!((worsening(100.0, 110.0, false) - 0.10).abs() < 1e-12);
    assert!((worsening(100.0, 110.0, true) + 0.10).abs() < 1e-12);
    assert!((worsening(100.0, 92.0, true) - 0.08).abs() < 1e-12);
}

fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
    Span { name, start_ns: start, end_ns: end, parent, round: 0, allocs: 0 }
}

#[test]
fn self_time_subtracts_direct_children_only() {
    let spans = [
        span("round", 0, 100, None),
        span("publish", 10, 60, Some(0)),
        span("snapshot", 12, 30, Some(1)),
        span("store", 30, 55, Some(1)),
        span("validate", 60, 95, Some(0)),
    ];
    // round: 100 - (50 + 35); publish: 50 - (18 + 25); leaves keep all.
    assert_eq!(self_times_ns(&spans), vec![15, 7, 18, 25, 35]);
}

#[test]
fn ledger_times_actions_and_flags_the_late_and_the_unexplained() {
    let a = (1u128, 24u8, 24u8, 64500u32);
    let b = (2u128, 24u8, 24u8, 64501u32);
    let c = (3u128, 24u8, 24u8, 64502u32);
    let mut ledger = ActionLedger::default();
    ledger.published(&[(a, true), (b, true)], 1_000);
    // `b` is undone before anyone looked: not an attempt.
    ledger.published(&[(b, false), (c, false)], 2_000);
    assert_eq!(ledger.superseded, 1);
    // `a` arrives in time, `c` too late.
    ledger.observed(&[a], &[], 1_500, 600);
    ledger.observed(&[], &[c], 9_000, 600);
    assert_eq!(ledger.latencies, vec![500, 7_000]);
    assert_eq!(ledger.tally, Tally { attempted: 2, failed: 1 });
    // A delta entry no action explains fails; so does anything left.
    ledger.observed(&[b], &[], 9_000, 600);
    ledger.published(&[(a, false)], 9_500);
    ledger.close();
    assert_eq!(ledger.tally, Tally { attempted: 4, failed: 3 });
}

#[test]
fn result_line_reads_back() {
    let metrics: Vec<Measured> = END_TO_END
        .iter()
        .enumerate()
        .map(|(i, def)| Measured { def: *def, value: 0.1 + i as f64 * 1e3, samples: 1 })
        .collect();
    let line = result_line(Tally { attempted: 7, failed: 0 }, &metrics);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {"));
    for m in &metrics {
        assert_eq!(metric_in(&line, m.def.name), Some(m.value), "{}", m.def.name);
    }
    assert_eq!(metric_in(&line, "no_such_metric"), None);
}
