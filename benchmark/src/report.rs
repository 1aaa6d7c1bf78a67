//! From repetitions to named metrics: the end-to-end and per-layer
//! tables, the determinism guard, the run record, and the JSON the
//! driver reads. `BENCHMARK.json` is printed from the same tables
//! (`--describe`), so file and code cannot drift apart.

use std::collections::BTreeMap;

use crate::oracle::Tally;
use crate::run::RepResult;
use crate::stats::{mean, median, percentile, samples_beyond};
use crate::trace::{self_times_ns, Span};
use crate::workload::{Spec, WORKLOADS};

/// Seconds of timed repetitions one driver run asks for
/// (`run_seconds` in `BENCHMARK.json`): what the driver's cap on all
/// its runs together affords four workloads.
pub const RUN_SECONDS: u64 = 26;

/// Timed repetitions per run, at least.
pub const MIN_REPS: usize = 3;

/// A metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, unique across both tables.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether a larger value is the better one.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only; 0 for per-layer metrics).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef { name, unit, higher_is_better: higher, bound }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef { name, unit, higher_is_better: higher, bound: 0.0 }
}

/// What a user of the system sees, each with the bound a later change
/// may not worsen it by. The first three are host-clock (noisy), the
/// last three simulated-clock (exact for a seed; their bounds only
/// absorb the seed-to-seed spread of the driver's runs).
/// `failed_share` is not here because an end-to-end metric may never
/// be 0: failures travel as `failed`/`attempted` in the result line.
/// The round's p50 and p90 are not here either: every run prints them
/// and they travel as the per-layer `round.wall_ms_p50` / `_p90`,
/// unbounded, because their run-to-run spread (the host's noise on the
/// p90, the seed's on `fanout`'s p50) comes too close to the largest
/// bound the contract allows (see `README.md`, "Host noise").
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("rounds_per_s", "1/s", true, 0.25),
    e2e("peak_rss_mb", "MiB", false, 0.20),
    e2e("propagation_sim_s_p50", "sim-s", false, 0.05),
    e2e("propagation_sim_s_max", "sim-s", false, 0.05),
    e2e("wire_frames_per_round", "frames", false, 0.20),
];

/// Single layers, `<crate>.<metric>`. `*_ms` are medians over the
/// measured rounds of the traced repetition; counts are means per
/// round; ratios and `*_share` are totals over totals; probes run once.
/// `round.wall_ms_p50`, `round.wall_ms_p90` and
/// `trace.untraced_rounds_per_s` come from the per-round minima over the
/// traced run's untraced repetitions.
pub const PER_LAYER: [MetricDef; 69] = [
    layer("topogen.generate_ms", "ms", false),
    layer("topogen.materialize_ms", "ms", false),
    layer("rpki-ca.step_ms", "ms", false),
    layer("rpki-ca.snapshot_ms", "ms", false),
    layer("rpki-ca.touched_cas", "count", false),
    layer("rpki-ca.allocs", "count", false),
    layer("rpki-repo.publish_ms", "ms", false),
    layer("rpki-repo.snapshot_builds", "count", false),
    layer("rpki-repo.snapshot_bytes_built", "bytes", false),
    layer("rpki-repo.deltas_evicted", "count", false),
    layer("rpki-repo.served_bytes", "bytes", false),
    layer("rpki-repo.served_frames", "frames", false),
    layer("rpki-repo.allocs", "count", false),
    layer("rpki-rp.validate_ms", "ms", false),
    layer("rpki-rp.validate_share", "ratio", false),
    layer("rpki-rp.validate_frames", "frames", false),
    layer("rpki-rp.validate_sim_s", "sim-s", false),
    layer("rpki-rp.memo_hit_ratio", "ratio", true),
    layer("rpki-rp.sched_not_due_ratio", "ratio", true),
    layer("rpki-rp.sched_fetched", "count", false),
    layer("rpki-rp.rrdp_delta_syncs", "count", false),
    layer("rpki-rp.rrdp_snapshot_syncs", "count", false),
    layer("rpki-rp.rrdp_failures", "count", false),
    layer("rpki-rp.validate_allocs", "count", false),
    layer("rpki-rp.shard_wall_speedup", "x", true),
    layer("rpki-rp.shard_sequential_ms", "ms", false),
    layer("rpki-rp.shard_model_speedup", "x", true),
    layer("rpki-rp.shard_steals", "count", false),
    layer("rpki-rp.shard_critical_path_ms", "ms", false),
    layer("rpki-rp.delta_ms", "ms", false),
    layer("rpki-rp.delta_changed_vrps", "count", false),
    layer("rpki-rp.rtr_publish_ms", "ms", false),
    layer("rpki-rp.rtr_relay_ms", "ms", false),
    layer("rpki-rp.rtr_routers_ms", "ms", false),
    layer("rpki-rp.rtr_share", "ratio", false),
    layer("rpki-rp.rtr_frames", "frames", false),
    layer("rpki-rp.rtr_frames_per_router", "frames", false),
    layer("rpki-rp.rtr_queries", "count", false),
    layer("rpki-rp.rtr_resets_served", "count", false),
    layer("rpki-rp.rtr_frames_rejected", "count", false),
    layer("rpki-rp.rtr_allocs", "count", false),
    layer("rpki-rp.vrpcache_build_ms", "ms", false),
    layer("rpki-rp.ov_classify_ms", "ms", false),
    layer("rpki-rp.ov_routes_classified", "count", false),
    layer("rpki-rp.ov_flips", "count", false),
    layer("bgp-sim.propagate_ms", "ms", false),
    layer("bgp-sim.propagate_share", "ratio", false),
    layer("bgp-sim.route_updates", "count", false),
    layer("bgp-sim.ns_per_route_update", "ns", false),
    layer("bgp-sim.memo_hit_ratio", "ratio", true),
    layer("bgp-sim.peak_worklist", "count", false),
    layer("bgp-sim.allocs", "count", false),
    layer("netsim.frames_sent", "frames", false),
    layer("netsim.frames_dropped", "frames", false),
    layer("netsim.dispatch_ns_per_frame", "ns", false),
    layer("netsim.probe_frame_bytes", "bytes", false),
    layer("rpki-objects.decode_ns_per_object", "ns", false),
    layer("rpki-objects.encode_ns_per_object", "ns", false),
    layer("rpki-objects.decode_failures", "count", false),
    layer("crypto-sim.sha256_mb_per_s", "MB/s", true),
    layer("crypto-sim.verify_ns", "ns", false),
    layer("ipres.covering_lookup_ns", "ns", false),
    layer("round.wall_ms", "ms", false),
    layer("round.wall_ms_p50", "ms", false),
    layer("round.wall_ms_p90", "ms", false),
    layer("round.unattributed_ms", "ms", false),
    layer("round.unattributed_share", "ratio", false),
    layer("trace.untraced_rounds_per_s", "1/s", true),
    layer("trace.overhead_ratio", "ratio", true),
];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Measured {
    /// The metric's definition.
    pub def: MetricDef,
    /// The value, as measured.
    pub value: f64,
    /// Samples behind the value (rounds, repetitions, actions or
    /// probe iterations, as the metric's definition says).
    pub samples: usize,
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn per_second(minima_ms: &[f64]) -> f64 {
    minima_ms.len() as f64 / (minima_ms.iter().sum::<f64>() / 1e3)
}

/// What the timed repetitions of one run leave behind: each is folded
/// in and dropped, so the process's peak memory does not grow with the
/// number of repetitions the host's speed happened to allow. Every
/// repetition does identical work per round (same seed), so the
/// per-round minimum estimates the round's cost with the host's
/// interference removed.
#[derive(Debug, Default)]
pub struct TimedFold {
    /// Per-round wall milliseconds, each the fastest any repetition
    /// ran that round.
    pub minima_ms: Vec<f64>,
    /// Every repetition's set-up time, in seconds.
    pub setups_s: Vec<f64>,
}

impl TimedFold {
    /// Folds one timed repetition in.
    ///
    /// # Panics
    ///
    /// Panics when the repetition's round count differs from the
    /// earlier ones'.
    pub fn fold(&mut self, rep: &RepResult) {
        let walls = rep.rounds.iter().map(|r| r.wall_ns as f64 / 1e6);
        if self.setups_s.is_empty() {
            self.minima_ms = walls.collect();
        } else {
            assert_eq!(self.minima_ms.len(), rep.rounds.len(), "repetitions differ in round count");
            for (min, wall) in self.minima_ms.iter_mut().zip(walls) {
                *min = min.min(wall);
            }
        }
        self.setups_s.push(rep.setup_s);
    }

    /// Timed repetitions folded in so far.
    pub fn reps(&self) -> usize {
        self.setups_s.len()
    }
}

/// Per-round wall milliseconds, each the fastest any of `reps` ran
/// that round.
fn round_minima_ms(reps: &[RepResult]) -> Vec<f64> {
    let mut fold = TimedFold::default();
    for rep in reps {
        fold.fold(rep);
    }
    fold.minima_ms
}

/// The round's latency, reported by every run but bounded by none.
#[derive(Debug, Clone, Copy)]
pub struct RoundLatency {
    /// Median of the per-round minima, in milliseconds.
    pub p50_ms: f64,
    /// p90 of the per-round minima, in milliseconds.
    pub p90_ms: f64,
    /// Per-round minima beyond the p90.
    pub beyond_p90: usize,
}

impl RoundLatency {
    fn of(minima_ms: &[f64]) -> RoundLatency {
        RoundLatency {
            p50_ms: percentile(minima_ms, 0.5),
            p90_ms: percentile(minima_ms, 0.9),
            beyond_p90: samples_beyond(minima_ms, 0.9),
        }
    }
}

/// The end-to-end metrics, and the round's latency: host-clock metrics
/// from the per-round minima over the timed repetitions,
/// simulated-clock ones from the verify repetition's action ledger and
/// frame counts.
pub fn end_to_end(verify: &RepResult, timed: &TimedFold) -> (Vec<Measured>, RoundLatency) {
    let minima = &timed.minima_ms;
    let setups = &timed.setups_s;
    let latencies: Vec<f64> = verify.latencies.iter().map(|&l| l as f64).collect();
    let frames: Vec<f64> = verify.rounds.iter().map(|r| r.frames as f64).collect();
    let values = [
        (median(setups), setups.len()),
        (per_second(minima), minima.len()),
        (peak_rss_mb(), timed.reps() + 1),
        (percentile(&latencies, 0.5), latencies.len()),
        (percentile(&latencies, 1.0), latencies.len()),
        (mean(&frames), frames.len()),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(def, (value, samples))| Measured { def: *def, value, samples })
        .collect();
    (metrics, RoundLatency::of(minima))
}

/// The determinism guard: every repetition of one seed must produce
/// the same per-round vectors of frames, VRP-set digest, RFC 6811
/// flips and BGP route updates. One check per vector per repetition
/// beyond the first.
pub fn determinism(reps: &[&RepResult]) -> Tally {
    let mut tally = Tally::default();
    let Some((first, rest)) = reps.split_first() else { return tally };
    for rep in rest {
        let same = |f: fn(&crate::run::RoundRecord) -> u64| {
            first.rounds.iter().map(f).eq(rep.rounds.iter().map(f))
        };
        tally.note(same(|r| r.frames));
        tally.note(same(|r| r.vrp_digest));
        tally.note(same(|r| r.figures.ov_flips));
        tally.note(same(|r| r.figures.route_updates));
    }
    tally
}

/// The per-round vectors the determinism guard compares, flattened —
/// two seeds must not agree on them.
pub fn fingerprint(rep: &RepResult) -> Vec<u64> {
    rep.rounds
        .iter()
        .flat_map(|r| [r.frames, r.vrp_digest, r.figures.ov_flips, r.figures.route_updates])
        .collect()
}

/// Per span name, the summed duration (ms) and allocations of each
/// measured round.
struct Stages<'a>(BTreeMap<&'a str, (Vec<f64>, Vec<f64>)>);

impl<'a> Stages<'a> {
    fn index(spans: &'a [Span], rounds: usize) -> Self {
        let mut by_name: BTreeMap<&str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for span in spans {
            if let Some(r) = usize::try_from(span.round).ok().filter(|&r| r < rounds) {
                let (ms, allocs) = by_name
                    .entry(span.name)
                    .or_insert_with(|| (vec![0.0; rounds], vec![0.0; rounds]));
                ms[r] += span.duration_ns() as f64 / 1e6;
                allocs[r] += span.allocs as f64;
            }
        }
        Stages(by_name)
    }

    /// Per-round milliseconds of `name`; empty if it never ran.
    fn ms(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], |(ms, _)| ms)
    }

    fn median_ms(&self, name: &str) -> f64 {
        if self.ms(name).is_empty() {
            0.0
        } else {
            median(self.ms(name))
        }
    }

    fn total_ms(&self, names: &[&str]) -> f64 {
        names.iter().map(|name| self.ms(name).iter().sum::<f64>()).sum()
    }

    /// Mean allocations per round, summed over `names`.
    fn allocs(&self, names: &[&str]) -> f64 {
        names.iter().map(|name| self.0.get(name).map_or(0.0, |(_, allocs)| mean(allocs))).sum()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics: spans, counters and probes from the last
/// traced repetition; the overhead ratio from the per-round minima of
/// all traced against all untraced repetitions.
pub fn per_layer(spec: &Spec, untraced: &[RepResult], all_traced: &[RepResult]) -> Vec<Measured> {
    let traced = all_traced.last().expect("at least one traced repetition");
    let n = traced.rounds.len();
    let spans = &traced.spans;
    let stages = Stages::index(spans, n);
    let stage_ms = |name: &str| stages.median_ms(name);
    // A stage's share of the measured rounds: total over total, so the
    // periodic heavy rounds weigh in as they do in `rounds_per_s`.
    let stage_share = |names: &[&str]| ratio(stages.total_ms(names), stages.total_ms(&["round"]));
    let stage_allocs = |names: &[&str]| stages.allocs(names);
    let once_ms = |name: &str| {
        spans.iter().find(|s| s.name == name).map_or(0.0, |s| s.duration_ns() as f64 / 1e6)
    };
    let counters: Vec<_> = traced.rounds.iter().filter_map(|r| r.counters).collect();
    let count = |f: fn(&crate::seam::Counters) -> u64| {
        mean(&counters.iter().map(|c| f(c) as f64).collect::<Vec<_>>())
    };
    let total = |f: fn(&crate::seam::Counters) -> u64| counters.iter().map(f).sum::<u64>() as f64;
    let figure = |f: fn(&crate::run::RoundRecord) -> f64| {
        mean(&traced.rounds.iter().map(f).collect::<Vec<_>>())
    };
    let figure_total =
        |f: fn(&crate::run::RoundRecord) -> f64| traced.rounds.iter().map(f).sum::<f64>();

    // Unattributed time: what the round span and the publish loop keep
    // for themselves once every bracketed call is subtracted.
    let own = self_times_ns(spans);
    let mut unattributed = vec![0.0; n];
    for (span, own_ns) in spans.iter().zip(&own) {
        if span.name == "round" || span.name == "seam.publish_touched" {
            if let Some(r) = usize::try_from(span.round).ok().filter(|&r| r < n) {
                unattributed[r] += *own_ns as f64 / 1e6;
            }
        }
    }
    let round_ms = stage_ms("round");
    let unattributed_ms = median(&unattributed);

    let sequential: Vec<f64> = traced.rounds.iter().filter_map(|r| r.sequential_walk_ms).collect();
    let shard_speedups: Vec<f64> = traced
        .rounds
        .iter()
        .zip(stages.ms("rpki-rp.validate"))
        .filter_map(|(r, sharded)| r.sequential_walk_ms.map(|seq| seq / sharded))
        .collect();
    let rtr_frames = figure(|r| (r.frames - r.validate_frames) as f64);
    let probes = traced.probes.unwrap_or_default();
    let untraced_minima = round_minima_ms(untraced);
    let untraced_rps = per_second(&untraced_minima);
    let untraced_latency = RoundLatency::of(&untraced_minima);

    let values: BTreeMap<&str, f64> = BTreeMap::from([
        ("topogen.generate_ms", once_ms("topogen.generate")),
        ("topogen.materialize_ms", once_ms("topogen.materialize")),
        ("rpki-ca.step_ms", stage_ms("rpki-ca.step")),
        ("rpki-ca.snapshot_ms", stage_ms("rpki-ca.snapshot")),
        ("rpki-ca.touched_cas", figure(|r| r.touched_cas as f64)),
        ("rpki-ca.allocs", stage_allocs(&["rpki-ca.step", "rpki-ca.snapshot"])),
        ("rpki-repo.publish_ms", stage_ms("rpki-repo.publish")),
        ("rpki-repo.snapshot_builds", count(|c| c.snapshot_builds)),
        ("rpki-repo.snapshot_bytes_built", count(|c| c.snapshot_bytes_built)),
        ("rpki-repo.deltas_evicted", count(|c| c.deltas_evicted)),
        ("rpki-repo.served_bytes", count(|c| c.served_bytes)),
        ("rpki-repo.served_frames", count(|c| c.served_frames)),
        ("rpki-repo.allocs", stage_allocs(&["rpki-repo.publish"])),
        ("rpki-rp.validate_ms", stage_ms("rpki-rp.validate")),
        ("rpki-rp.validate_share", stage_share(&["rpki-rp.validate"])),
        ("rpki-rp.validate_frames", figure(|r| r.validate_frames as f64)),
        ("rpki-rp.validate_sim_s", figure(|r| r.validate_sim_s as f64)),
        (
            "rpki-rp.memo_hit_ratio",
            ratio(
                figure_total(|r| r.figures.memo_reused as f64),
                figure_total(|r| (r.figures.memo_reused + r.figures.memo_rewalked) as f64),
            ),
        ),
        (
            "rpki-rp.sched_not_due_ratio",
            ratio(total(|c| c.sched_not_due), total(|c| c.sched_not_due + c.sched_due)),
        ),
        ("rpki-rp.sched_fetched", count(|c| c.sched_fetched)),
        ("rpki-rp.rrdp_delta_syncs", count(|c| c.rrdp_delta_syncs)),
        ("rpki-rp.rrdp_snapshot_syncs", count(|c| c.rrdp_snapshot_syncs)),
        ("rpki-rp.rrdp_failures", count(|c| c.rrdp_failures)),
        ("rpki-rp.validate_allocs", stage_allocs(&["rpki-rp.validate"])),
        (
            "rpki-rp.shard_wall_speedup",
            if shard_speedups.is_empty() { 0.0 } else { median(&shard_speedups) },
        ),
        (
            "rpki-rp.shard_sequential_ms",
            if sequential.is_empty() { 0.0 } else { median(&sequential) },
        ),
        ("rpki-rp.shard_model_speedup", figure(|r| r.figures.shard_model_speedup)),
        ("rpki-rp.shard_steals", figure(|r| r.figures.shard_steals as f64)),
        (
            "rpki-rp.shard_critical_path_ms",
            figure(|r| r.figures.shard_critical_path_ns as f64 / 1e6),
        ),
        ("rpki-rp.delta_ms", stage_ms("rpki-rp.delta")),
        ("rpki-rp.delta_changed_vrps", figure(|r| r.figures.delta_changed_vrps as f64)),
        ("rpki-rp.rtr_publish_ms", stage_ms("rpki-rp.rtr_publish")),
        ("rpki-rp.rtr_relay_ms", stage_ms("rpki-rp.rtr_relay")),
        ("rpki-rp.rtr_routers_ms", stage_ms("rpki-rp.rtr_routers")),
        (
            "rpki-rp.rtr_share",
            stage_share(&["rpki-rp.rtr_publish", "rpki-rp.rtr_relay", "rpki-rp.rtr_routers"]),
        ),
        ("rpki-rp.rtr_frames", rtr_frames),
        ("rpki-rp.rtr_frames_per_router", rtr_frames / spec.routers as f64),
        ("rpki-rp.rtr_queries", count(|c| c.rtr_queries)),
        ("rpki-rp.rtr_resets_served", count(|c| c.rtr_resets_served)),
        ("rpki-rp.rtr_frames_rejected", count(|c| c.rtr_frames_rejected)),
        (
            "rpki-rp.rtr_allocs",
            stage_allocs(&["rpki-rp.rtr_publish", "rpki-rp.rtr_relay", "rpki-rp.rtr_routers"]),
        ),
        ("rpki-rp.vrpcache_build_ms", stage_ms("rpki-rp.vrpcache_build")),
        ("rpki-rp.ov_classify_ms", stage_ms("rpki-rp.ov_classify")),
        ("rpki-rp.ov_routes_classified", figure(|r| r.figures.ov_routes_classified as f64)),
        ("rpki-rp.ov_flips", figure(|r| r.figures.ov_flips as f64)),
        ("bgp-sim.propagate_ms", stage_ms("bgp-sim.propagate")),
        ("bgp-sim.propagate_share", stage_share(&["bgp-sim.propagate"])),
        ("bgp-sim.route_updates", figure(|r| r.figures.route_updates as f64)),
        (
            "bgp-sim.ns_per_route_update",
            ratio(
                stages.total_ms(&["bgp-sim.propagate"]) * 1e6,
                figure_total(|r| r.figures.route_updates as f64),
            ),
        ),
        (
            "bgp-sim.memo_hit_ratio",
            ratio(
                figure_total(|r| r.figures.bgp_memo_hits as f64),
                figure_total(|r| (r.figures.bgp_memo_hits + r.figures.bgp_memo_misses) as f64),
            ),
        ),
        ("bgp-sim.peak_worklist", figure(|r| r.figures.bgp_peak_worklist as f64)),
        ("bgp-sim.allocs", stage_allocs(&["bgp-sim.propagate"])),
        ("netsim.frames_sent", count(|c| c.frames_sent)),
        ("netsim.frames_dropped", count(|c| c.frames_dropped)),
        ("netsim.dispatch_ns_per_frame", probes.dispatch_ns_per_frame),
        ("netsim.probe_frame_bytes", probes.frame_bytes as f64),
        ("rpki-objects.decode_ns_per_object", probes.decode_ns_per_object),
        ("rpki-objects.encode_ns_per_object", probes.encode_ns_per_object),
        ("rpki-objects.decode_failures", probes.decode_failures as f64),
        ("crypto-sim.sha256_mb_per_s", probes.sha256_mb_per_s),
        ("crypto-sim.verify_ns", probes.verify_ns),
        ("ipres.covering_lookup_ns", probes.covering_lookup_ns),
        ("round.wall_ms", round_ms),
        ("round.wall_ms_p50", untraced_latency.p50_ms),
        ("round.wall_ms_p90", untraced_latency.p90_ms),
        ("round.unattributed_ms", unattributed_ms),
        ("round.unattributed_share", ratio(unattributed_ms, round_ms)),
        ("trace.untraced_rounds_per_s", untraced_rps),
        ("trace.overhead_ratio", ratio(per_second(&round_minima_ms(all_traced)), untraced_rps)),
    ]);
    PER_LAYER
        .iter()
        .map(|def| Measured {
            def: *def,
            value: *values.get(def.name).unwrap_or_else(|| panic!("{} not computed", def.name)),
            samples: n,
        })
        .collect()
}

/// Who ran what: carried by every result.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// `git rev-parse HEAD`, or `unknown` outside a repository.
    pub commit: String,
    /// `std::thread::available_parallelism`.
    pub parallelism: usize,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// `rustc -V`, or `unknown`.
    pub rustc: String,
    /// The workload seed.
    pub seed: u64,
    /// Timed repetitions behind the host-clock metrics.
    pub reps: usize,
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

impl RunRecord {
    /// Gathers the record for a run of `reps` timed repetitions.
    pub fn gather(seed: u64, reps: usize) -> RunRecord {
        RunRecord {
            commit: command_line("git", &["rev-parse", "HEAD"]),
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            profile: if cfg!(debug_assertions) { "debug" } else { "release" },
            rustc: command_line("rustc", &["-V"]),
            seed,
            reps,
        }
    }

    /// One line for the human-readable report.
    pub fn line(&self) -> String {
        format!(
            "commit {} | {} threads | {} | {} | seed {} | {} timed reps",
            self.commit, self.parallelism, self.profile, self.rustc, self.seed, self.reps
        )
    }
}

fn json_number(value: f64) -> String {
    assert!(value.is_finite(), "metric value is not a finite number");
    // `{:?}` prints the shortest digits that read back to the same
    // f64 and always keeps a decimal point or exponent.
    format!("{value:?}")
}

/// The result line the driver reads: exactly the keys `correct`,
/// `attempted`, `failed`, `metrics`.
pub fn result_line(tally: Tally, metrics: &[Measured]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.def.name,
                json_number(m.value),
                m.def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

/// Reads one metric's value back out of a [`result_line`].
pub fn metric_in(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// A fixed-width table of measured values for the human reader.
pub fn table(metrics: &[Measured]) -> String {
    let mut out = String::new();
    for m in metrics {
        out.push_str(&format!(
            "  {:<34} {:>16.4} {:<7} (n={})\n",
            m.def.name, m.value, m.def.unit, m.samples
        ));
    }
    out
}

/// `BENCHMARK.json`, from the tables above.
pub fn describe() -> String {
    let better = |d: &MetricDef| if d.higher_is_better { "higher" } else { "lower" };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                better(d),
                d.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name,
                d.unit,
                better(d)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
