//! Relying-party sweep benchmark: how much a relying party pays to
//! stay current, per source stack, across tree shapes and churn rates,
//! exported to `BENCH_rp.json`.
//!
//! Every cell builds a [`SyntheticRpki`] tree per stack from one seed,
//! so frame counts are per stack exact, then plays the same rounds on
//! each world: a fraction of publication points renew their ROAs, and
//! every stack validates once, timed and frame-counted. Four stacks:
//!
//! - **cold** — a full rsync walk, every directory fetched and
//!   re-verified (the RFC 6480 baseline, and the reference every other
//!   stack is checked against each round). It keeps no state, so each
//!   round also times it as the minimum of three walks after a warm-up
//!   one, the steadiest base the ratios below can divide;
//! - **probe** — the digest-probe incremental engine over rsync: one
//!   LIST exchange confirms an unchanged directory, whose subtree is
//!   replayed from the memo;
//! - **rrdp** — trusting RRDP under the same probe-mode engine: a
//!   two-frame notification poll confirms an unchanged directory and
//!   dirtied ones apply delta chains (the verified configuration adds
//!   one rsync probe per directory: the probe column);
//! - **scheduled** — the rrdp stack under a
//!   [`ScheduledSource`](rpki_rp::ScheduledSource): each point's refresh
//!   deadline follows its observed change cadence, so a quiet point
//!   costs no frames until it comes due.
//!
//! Two timelines:
//!
//! - **60-s rounds** on 21 / 40 / 156 points at 1–100 % churn (cold,
//!   probe, rrdp): one warm-up run, then each round also retires last
//!   round's extra root ROA and announces a new one, so every delta
//!   carries one announce and one withdraw. Each round's run must equal
//!   the cold walk's.
//! - **150 000-s epochs** on 156 / 993 / 4971 points at 1 and 10 %
//!   churn (cold, rrdp, scheduled), manifests stretched to a year: the
//!   schedule leaves quiet points unfetched for weeks. Each round's VRP
//!   set must equal the cold walk's (the worlds' clocks drift apart by
//!   the sim-seconds each stack spends, so validity ends differ).
//!
//! Release floors: probe ≥ 3.5× and rrdp ≥ 4× faster than the cold walk
//! at ≤ 10 % churn on the 156-point tree; scheduled ≥ 5× fewer frames
//! than rrdp at ≤ 10 % churn on ≥ 993 points; the cold walk's per-point
//! cost within 6× over 156 → 4971 points. In any build: probe re-walks
//! at most the dirtied subtrees plus the root, RRDP fallback causes
//! partition the snapshot syncs, every round agrees with the cold walk,
//! and no count column moved against the committed `BENCH_rp.json`. A
//! failing run prints and exports before it asserts.
//!
//! ```sh
//! cargo run --release -p rpki-risk-bench --bin bench_rp
//! ```
//!
//! `--scale N` multiplies the per-CA ROA count; `--json` mirrors the
//! records to stderr; `--trace PATH` (or `BENCH_TRACE`) writes a JSONL
//! trace of one extra round per stack and cell.

use ipres::Asn;
use rpki_objects::{Moment, RoaPrefix, Span};
use rpki_repo::{RrdpClientState, RrdpStats};
use rpki_risk::{Fetch, RrdpMode, SyntheticRpki, ValidationOptions};
use rpki_risk_bench::{
    assert_counts_unmoved, export, scale_arg, time, time_min, trace_recorder, Recorder, RunStamp,
    Summary, SummaryTable,
};
use rpki_rp::{
    RevalidationStats, SchedulePlan, SchedulerState, SchedulerStats, ValidationRun, ValidationState,
};
use serde::Serialize;

/// Seconds between epoch rounds. Large enough to dominate the
/// sim-seconds a full sweep itself consumes (10 s/frame latency over
/// thousands of polls), so "due every round" and "due every k rounds"
/// stay distinguishable.
const EPOCH: u64 = 150_000;

/// The scheduled stack's plan over [`EPOCH`] rounds. Every point is
/// first contacted in the same round, so the jitter spans the whole
/// wheel: without it the cohort comes due in lockstep waves and the
/// measured rounds alias against the wave phase. No budgets: the sweep
/// isolates pure cadence savings.
fn epoch_plan() -> SchedulePlan {
    let max_refresh = if cfg!(debug_assertions) { 4 } else { 16 } * EPOCH;
    SchedulePlan { min_refresh: EPOCH, max_refresh, jitter: max_refresh, ..SchedulePlan::default() }
}

/// Release floor on cold ÷ probe wall time at <= 10 % churn on the
/// 156-point tree. A ratio moves when either side does: the floor was
/// 5x while SHA-256 was scalar (18.5 ms over 3.11 ms, 6.0x, on the
/// host that measured both); with the SHA-NI kernel both sides are
/// faster (10.6 ms over 2.35 ms), but the cold walk, which hashes every
/// byte, shrank more than probe-and-replay, which hashes none, so the
/// same engine reads 4.5x. The clock-free statement of what the ratio
/// stands for is the re-walk bound.
const PROBE_FLOOR: f64 = 3.5;
/// Release floor on cold ÷ rrdp wall time, same cells.
const RRDP_FLOOR: f64 = 4.0;
/// Release floor on rrdp ÷ scheduled frames at <= 10 % churn on >= 993
/// points.
const FRAME_FLOOR: f64 = 5.0;
/// Release ceiling on the cold walk's per-point cost spread over the
/// epoch trees: the world grows ~32x from 156 to 4971 points, so a walk
/// gone quadratic would show a ~32x spread.
const SPREAD_CEILING: f64 = 6.0;

/// A relying party's source stack.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Stack {
    Cold,
    Probe,
    Rrdp,
    Scheduled,
}

/// One sweep: its cells, stacks and rounds.
struct Sweep {
    /// Seconds between rounds, naming the timeline.
    round_s: u64,
    /// Mutates a party's world for round `k` (warm-up included) at a
    /// churn rate; returns the directories churned and the moment to
    /// validate at.
    mutate: fn(&mut Party, usize, usize) -> (usize, Moment),
    /// Whether a stack's run agrees with the cold walk's.
    agrees: fn(&ValidationRun, &ValidationRun) -> bool,
    /// Manifest refresh interval, when stretched past the default.
    refresh: Option<Span>,
    /// `(depth, branching)` of each tree.
    shapes: &'static [(u32, u32)],
    roas_per_ca: usize,
    churns: &'static [usize],
    /// Cold first: it is every round's reference.
    stacks: &'static [Stack],
    warmup: usize,
    rounds: usize,
}

/// One stack's measurement of one (timeline, shape, churn) cell.
#[derive(Debug, Default, Serialize)]
struct Record {
    /// Seconds between rounds: 60 or 150 000, naming the timeline.
    round_s: u64,
    pub_points: usize,
    depth: u32,
    branching: u32,
    roas_per_ca: usize,
    churn_pct: usize,
    dirtied_per_round: usize,
    /// Measured rounds, after the warm-up.
    rounds: usize,
    stack: &'static str,
    /// VRPs of the last measured run.
    vrps: usize,
    /// The fastest measured run.
    ns: u128,
    /// Frames sent over all measured rounds.
    frames: u64,
    /// Whether every measured run agreed with the cold walk's.
    agrees_with_cold: bool,
    /// The memo's record of the last measured run.
    memo: RevalidationStats,
    /// The RRDP client's counters since the world was built.
    rrdp: RrdpStats,
    /// The scheduler's visits over the measured rounds.
    sched: Visits,
}

/// Scheduler visit counters over a window of rounds.
#[derive(Debug, Default, Serialize)]
struct Visits {
    due: u64,
    not_due: u64,
    fetched: u64,
    polled: u64,
}

impl Visits {
    fn since(before: SchedulerStats, after: SchedulerStats) -> Self {
        Visits {
            due: after.due - before.due,
            not_due: after.not_due - before.not_due,
            fetched: after.fetched - before.fetched,
            polled: after.polled - before.polled,
        }
    }
}

/// The columns that are a function of the input alone: a run may not
/// move them against the committed record of the same cell.
const COUNT_COLUMNS: [&str; 6] = ["vrps", "dirtied_per_round", "frames", "memo", "rrdp", "sched"];

/// One stack with a world of its own and the state it keeps.
struct Party {
    stack: Stack,
    w: SyntheticRpki,
    memo: ValidationState,
    rrdp: RrdpClientState,
    sched: SchedulerState,
    /// The extra root ROA the last minute round announced.
    extra: Option<String>,
}

impl Party {
    fn new(stack: Stack, sweep: &Sweep, (depth, branching): (u32, u32)) -> Self {
        let mut w = SyntheticRpki::build_seeded(7, depth, branching, sweep.roas_per_ca);
        if let Some(refresh) = sweep.refresh {
            for ca in &mut w.cas {
                ca.set_refresh_interval(refresh);
            }
            w.publish_all(Moment(w.net.now()));
        }
        Party {
            stack,
            w,
            memo: ValidationState::probe(),
            rrdp: RrdpClientState::new(),
            sched: SchedulerState::new(),
            extra: None,
        }
    }

    fn validate(&mut self, at: Moment) -> ValidationRun {
        let opts = ValidationOptions::at(at);
        let rrdp = Fetch::Rrdp(&mut self.rrdp, RrdpMode::Trusting);
        self.w.validate_with(match self.stack {
            Stack::Cold => opts,
            Stack::Probe => opts.incremental(&mut self.memo),
            Stack::Rrdp => opts.fetch(rrdp).incremental(&mut self.memo),
            Stack::Scheduled => opts
                .fetch(rrdp)
                .incremental(&mut self.memo)
                .scheduled(epoch_plan(), &mut self.sched),
        })
    }

    /// Plays measured round `k`: the run, its wall time, its frames and
    /// the directories churned.
    fn round(&mut self, sweep: &Sweep, k: usize, churn_pct: usize) -> Round {
        let (dirtied, at) = (sweep.mutate)(self, k, churn_pct);
        let sent = self.w.net.stats().sent;
        let (run, mut ns) = time(|| self.validate(at));
        let frames = self.w.net.stats().sent - sent;
        // A stateful stack gets one run a round: a second would find
        // nothing left to do. The cold walk keeps nothing, so its
        // repeats change no count.
        if self.stack == Stack::Cold {
            ns = time_min(3, || drop(self.validate(at)));
        }
        Round { run, ns, frames, dirtied }
    }
}

/// The 60-s timeline: warm-up at t = 2 s; round r churns and swaps the
/// extra root ROA at 10 + 60r and validates 30 s later.
fn minute_round(p: &mut Party, k: usize, churn_pct: usize) -> (usize, Moment) {
    let Some(r) = k.checked_sub(1).map(|r| r as u64) else { return (0, Moment(2)) };
    let (w, now) = (&mut p.w, Moment(10 + r * 60));
    // Retire before churning: a churn renewal of the extra ROA would
    // otherwise rename the file out from under us.
    if let Some(file) = p.extra.take() {
        w.cas[0].withdraw(&file).expect("extra ROA present");
    }
    let dirtied = w.churn(churn_pct, now);
    let prefix = format!("10.0.{}.0/24", 200 + r % 50).parse().expect("literal");
    let roa = w.cas[0]
        .issue_roa(Asn(64999), vec![RoaPrefix::exact(prefix)], now)
        .expect("inside the root's /8");
    p.extra = Some(roa.file_name());
    assert!(w.repos.publish(&mut w.cas[0], now), "the bench host is registered");
    (dirtied, Moment(now.0 + 30))
}

/// The epoch timeline: every round advances the world's own clock one
/// [`EPOCH`], then churns and validates at that instant.
fn epoch_round(p: &mut Party, _: usize, churn_pct: usize) -> (usize, Moment) {
    let t = p.w.net.now() + EPOCH;
    p.w.net.advance_to(t);
    (p.w.churn(churn_pct, Moment(t)), Moment(t))
}

/// `stack`'s record in one cell's records.
fn of<'a>(cell: &'a [Record], stack: &str) -> &'a Record {
    cell.iter().find(|r| r.stack == stack).expect("the cell measured the stack")
}

/// One stack's round.
struct Round {
    run: ValidationRun,
    ns: u128,
    frames: u64,
    dirtied: usize,
}

/// Measures one cell: every stack of `sweep` on the `shape` tree at
/// `churn_pct`, plus one traced round per stack when `rec` is live.
fn cell(sweep: &Sweep, shape: (u32, u32), churn_pct: usize, rec: &Recorder) -> Vec<Record> {
    let mut parties: Vec<Party> =
        sweep.stacks.iter().map(|&s| Party::new(s, sweep, shape)).collect();
    for k in 0..sweep.warmup {
        for party in &mut parties {
            let (_, at) = (sweep.mutate)(party, k, churn_pct);
            // A cold walk keeps nothing to warm.
            if party.stack != Stack::Cold {
                party.validate(at);
            }
        }
    }
    let before: Vec<SchedulerStats> = parties.iter().map(|p| p.sched.stats()).collect();
    let mut records: Vec<Record> = parties
        .iter()
        .map(|p| Record {
            round_s: sweep.round_s,
            pub_points: p.w.publication_points(),
            depth: shape.0,
            branching: shape.1,
            roas_per_ca: sweep.roas_per_ca,
            churn_pct,
            rounds: sweep.rounds,
            stack: match p.stack {
                Stack::Cold => "cold",
                Stack::Probe => "probe",
                Stack::Rrdp => "rrdp",
                Stack::Scheduled => "scheduled",
            },
            ns: u128::MAX,
            agrees_with_cold: true,
            ..Record::default()
        })
        .collect();
    for k in sweep.warmup..sweep.warmup + sweep.rounds {
        let runs: Vec<Round> = parties.iter_mut().map(|p| p.round(sweep, k, churn_pct)).collect();
        let cold = &runs[0].run;
        for (r, round) in records.iter_mut().zip(&runs) {
            r.agrees_with_cold &= (sweep.agrees)(&round.run, cold);
            r.vrps = round.run.vrps.len();
            r.ns = r.ns.min(round.ns);
            r.frames += round.frames;
            r.dirtied_per_round = round.dirtied;
        }
    }
    for ((r, p), before) in records.iter_mut().zip(&parties).zip(before) {
        r.memo = p.memo.stats();
        r.rrdp = p.rrdp.stats();
        r.sched = Visits::since(before, p.sched.stats());
    }
    // One extra round per stack for the trace artifact: the network,
    // RRDP, memo and schedule events of a steady-state round.
    if rec.is_enabled() {
        for party in &mut parties {
            party.w.net.set_recorder(rec.clone());
            let (_, at) = (sweep.mutate)(party, sweep.warmup + sweep.rounds, churn_pct);
            party.validate(at);
            party.w.net.set_recorder(Recorder::disabled());
        }
    }
    records
}

fn main() {
    let scale = scale_arg();
    let stamp = RunStamp::capture();
    let committed = std::fs::read_to_string("BENCH_rp.json").ok();
    let mut report = Summary::new(&format!("Relying-party sweep benchmark (scale {scale})"));
    let rec = trace_recorder();
    // Debug builds shrink the rounds and the epoch trees so smoke runs
    // stay fast; the wall-clock and frame floors are release-only.
    let debug = cfg!(debug_assertions);

    let minute = Sweep {
        round_s: 60,
        mutate: minute_round,
        agrees: |run, cold| run == cold,
        refresh: None,
        // 21, 40 and 156 points.
        shapes: &[(2, 4), (3, 3), (3, 5)],
        roas_per_ca: 12 * scale,
        churns: &[1, 10, 50, 100],
        stacks: &[Stack::Cold, Stack::Probe, Stack::Rrdp],
        warmup: 1,
        rounds: if debug { 1 } else { 3 },
    };
    // Warm-up must outlast the interval ratchet: a point only doubles
    // past a rung on an unchanged confirm, so under churn the climb to
    // the plan's 16-epoch ceiling takes several refresh wheels.
    let epoch = Sweep {
        round_s: EPOCH,
        mutate: epoch_round,
        // The worlds' clocks drift apart by the sim-seconds each stack
        // spends, so validity ends differ: compare VRPs only.
        agrees: |run, cold| run.vrps == cold.vrps,
        // Manifests that outlive the whole timeline.
        refresh: Some(Span::days(365)),
        // 156, 993 and 4971 points, ROAs kept thin so walk cost tracks
        // the point count.
        shapes: if debug { &[(3, 5)] } else { &[(3, 5), (2, 31), (2, 70)] },
        roas_per_ca: 4 * scale,
        churns: &[1, 10],
        stacks: &[Stack::Cold, Stack::Rrdp, Stack::Scheduled],
        warmup: if debug { 6 } else { 24 },
        rounds: if debug { 2 } else { 6 },
    };

    let mut cells: Vec<Vec<Record>> = Vec::new();
    for sweep in [&minute, &epoch] {
        let mut out = SummaryTable::new(&[
            "points",
            "churn",
            "dirtied",
            "stack",
            "ms",
            "vs cold",
            "frames",
            "reused/rewalked",
            "deltas/snaps",
            "due/not-due",
        ]);
        for &shape in sweep.shapes {
            for &churn_pct in sweep.churns {
                let records = cell(sweep, shape, churn_pct, &rec);
                for r in &records {
                    out.row(&[
                        r.pub_points.to_string(),
                        format!("{}%", r.churn_pct),
                        r.dirtied_per_round.to_string(),
                        r.stack.to_owned(),
                        format!("{:.3}", r.ns as f64 / 1e6),
                        format!("{:.1}x", records[0].ns as f64 / r.ns as f64),
                        r.frames.to_string(),
                        format!("{}/{}", r.memo.subtrees_reused, r.memo.subtrees_rewalked),
                        format!("{}/{}", r.rrdp.delta_syncs, r.rrdp.snapshot_syncs),
                        format!("{}/{}", r.sched.due, r.sched.not_due),
                    ]);
                }
                cells.push(records);
            }
        }
        report.table(&format!("{}-s rounds, {} measured", sweep.round_s, sweep.rounds), out);
    }

    // The floors, each over the cells it guards.
    let largest = cells.iter().filter(|c| c[0].round_s == 60).map(|c| c[0].pub_points).max();
    let largest = largest.expect("the 60-s sweep ran");
    let floor = |guards: &dyn Fn(&Record) -> bool, ratio: &dyn Fn(&[Record]) -> f64| {
        cells.iter().filter(|c| guards(&c[0])).map(|c| ratio(c)).fold(f64::INFINITY, f64::min)
    };
    let minute_floor = |stack: &str| {
        floor(&|r| r.round_s == 60 && r.pub_points == largest && r.churn_pct <= 10, &|c| {
            of(c, "cold").ns as f64 / of(c, stack).ns as f64
        })
    };
    let (probe_floor, rrdp_floor) = (minute_floor("probe"), minute_floor("rrdp"));
    let sched_floor =
        floor(&|r| r.round_s == EPOCH && r.pub_points >= 993 && r.churn_pct <= 10, &|c| {
            of(c, "rrdp").frames as f64 / of(c, "scheduled").frames.max(1) as f64
        });
    let records: Vec<Record> = cells.into_iter().flatten().collect();
    let per_point: Vec<f64> = records
        .iter()
        .filter(|r| r.round_s == EPOCH && r.stack == "cold")
        .map(|r| r.ns as f64 / r.pub_points as f64)
        .collect();
    let spread = per_point.iter().fold(0.0f64, |a, &b| a.max(b))
        / per_point.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    let rewalk_excess = records
        .iter()
        .filter(|r| r.stack == "probe")
        .map(|r| r.memo.subtrees_rewalked.saturating_sub(r.dirtied_per_round as u64))
        .max()
        .unwrap_or(0);
    let disagreeing: Vec<String> = records
        .iter()
        .filter(|r| !r.agrees_with_cold)
        .map(|r| format!("{} at {} points, {}% churn", r.stack, r.pub_points, r.churn_pct))
        .collect();
    let unpartitioned = records
        .iter()
        .filter(|r| {
            let s = r.rrdp;
            s.fallback_initial
                + s.fallback_evicted
                + s.fallback_session_reset
                + s.fallback_chain_gap
                != s.snapshot_syncs
        })
        .count();
    let shown = |x: f64| if x.is_finite() { format!("{x:.1}x") } else { "n/a".to_owned() };
    report.key_vals(
        "targets",
        &[
            (
                format!(
                    "probe / rrdp speedup over cold, <=10% churn, {largest} points \
                     (floors {PROBE_FLOOR}x / {RRDP_FLOOR}x)"
                ),
                format!("{} / {}", shown(probe_floor), shown(rrdp_floor)),
            ),
            (
                format!(
                    "rrdp / scheduled frames, <=10% churn, >=993 points (floor {FRAME_FLOOR}x)"
                ),
                shown(sched_floor),
            ),
            (
                format!(
                    "cold per-point cost spread over the epoch trees (ceiling {SPREAD_CEILING}x)"
                ),
                format!("{spread:.2}x"),
            ),
            (
                "probe subtrees re-walked beyond the dirtied ones (ceiling 1)".to_owned(),
                rewalk_excess.to_string(),
            ),
            ("records disagreeing with the cold walk".to_owned(), disagreeing.len().to_string()),
            ("host cores".to_owned(), stamp.available_parallelism.to_string()),
        ],
    );
    let floors_hold = probe_floor >= PROBE_FLOOR
        && rrdp_floor >= RRDP_FLOOR
        && sched_floor >= FRAME_FLOOR
        && spread <= SPREAD_CEILING;
    if debug {
        report.note("(debug build — wall-clock and frame floors not enforced; run with --release)");
    } else if floors_hold {
        report.note("OK: every release floor holds.");
    }
    report.print();

    export("rp", &stamp, &records, &rec);
    // Enforced last so a failing run still reports and exports the
    // numbers that explain it.
    assert!(disagreeing.is_empty(), "runs diverged from the cold walk: {disagreeing:?}");
    assert_eq!(unpartitioned, 0, "RRDP fallback causes must partition the snapshot syncs");
    assert!(
        rewalk_excess <= 1,
        "probe re-walked {rewalk_excess} subtrees beyond the dirtied ones (want <= 1)"
    );
    let compared = assert_counts_unmoved(
        committed.as_deref(),
        &records,
        &["round_s", "pub_points", "roas_per_ca", "churn_pct", "rounds", "stack"],
        &COUNT_COLUMNS,
    );
    println!(
        "{compared} of {} records' count columns equal the committed BENCH_rp.json",
        records.len()
    );
    assert!(
        debug || floors_hold,
        "a release floor failed: probe {probe_floor:.2}x (>= {PROBE_FLOOR}x), rrdp \
         {rrdp_floor:.2}x (>= {RRDP_FLOOR}x), frames {sched_floor:.2}x (>= {FRAME_FLOOR}x), \
         per-point spread {spread:.2}x (<= {SPREAD_CEILING}x)"
    );
}
