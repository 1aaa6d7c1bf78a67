//! RTR fan-out benchmark: serial-diff fan-out vs naive full-sweep
//! refresh, across router counts and VRP churn rates, exported to
//! `BENCH_rtr.json`.
//!
//! One relying-party cache ([`RtrFabric`]) serves N routers over
//! netsim. Every round a fixed fraction of the VRP set churns (origin
//! ASN renewals), and the cache pushes the new state two ways:
//!
//! - **fan-out** — the framed serial-diff path: one `publish` fans a
//!   `SerialNotify` to every router, and each router pulls only the
//!   delta since its own acknowledged serial. Frames per router scale
//!   with the *delta* size (`2·changed + 4`).
//! - **naive** — the full-sweep baseline: every refresh each router
//!   re-opens its session with a `ResetQuery` and receives the complete
//!   snapshot. Frames per router scale with the *cache* size
//!   (`vrps + 3`).
//!
//! Frames come from the simulated network's send counter, so every
//! number replays exactly; per-round frame counts are asserted against
//! the closed-form expectations above, and every fan-out round asserts
//! every router's VRP set byte-identical to the cache's. The release
//! build enforces a ≥4× fan-out advantage at ≤10% churn on the largest
//! router sweep.
//!
//! ```sh
//! cargo run --release -p rpki-risk-bench --bin bench_rtr
//! ```
//!
//! `--scale N` multiplies the VRP count; `--json` mirrors the records
//! to stderr; `--trace PATH` (or `BENCH_TRACE`) writes a JSONL trace of
//! one instrumented round per configuration.

use std::time::Instant;

use ipres::{Asn, Prefix};
use netsim::Network;
use rpki_risk_bench::{export, scale_arg, trace_recorder, RunStamp, Summary, SummaryTable};
use rpki_rp::{pump_until, RtrEndpoint, RtrFabric, RtrRouter, Vrp, VrpUpdate};
use serde::Serialize;

/// One measured (router count, churn rate) cell.
#[derive(Debug, Serialize)]
struct Record {
    routers: usize,
    vrps: usize,
    churn_pct: usize,
    changed_per_round: usize,
    fanout_frames: u64,
    naive_frames: u64,
    fanout_frames_per_router: u64,
    naive_frames_per_router: u64,
    advantage: f64,
    fanout_ns: u128,
    naive_ns: u128,
    notifies_sent: u64,
    resets_served: u64,
}

/// The synthetic VRP universe: `n` distinct /24s under 10.0.0.0/8.
fn universe(n: usize) -> Vec<Vrp> {
    (0..n)
        .map(|i| {
            let prefix: Prefix =
                format!("10.{}.{}.0/24", (i / 256) % 256, i % 256).parse().expect("prefix");
            Vrp::new(prefix, 24, Asn(64_496 + i as u32))
        })
        .collect()
}

/// Renews the origin ASN of `changed` VRPs, rotating through the set so
/// successive rounds dirty different entries. Deterministic.
fn churn(vrps: &mut [Vrp], round: u64, changed: usize) {
    let n = vrps.len();
    for i in 0..changed {
        let idx = (round as usize * changed + i) % n;
        let old = vrps[idx];
        vrps[idx] = Vrp::new(old.prefix, old.max_len, Asn(old.asn.0 + 100_000));
    }
}

/// Builds a cache-and-routers world on a fresh seeded network.
fn world(routers: usize) -> (Network, RtrFabric, Vec<RtrRouter>) {
    let mut net = Network::new(41);
    let cache = net.add_node("rp-cache");
    let mut fabric = RtrFabric::new(cache, 1, 16);
    let routers: Vec<RtrRouter> = (0..routers)
        .map(|i| {
            let node = net.add_node(&format!("router-{i}"));
            fabric.attach(node);
            RtrRouter::new(node, cache)
        })
        .collect();
    (net, fabric, routers)
}

/// Dispatches RTR traffic until the network drains (bounded window).
fn pump(net: &mut Network, fabric: &mut RtrFabric, routers: &mut [RtrRouter]) -> u64 {
    let deadline = net.now() + 10_000;
    let mut endpoints: Vec<&mut dyn RtrEndpoint> = Vec::with_capacity(routers.len() + 1);
    endpoints.push(fabric);
    for r in routers.iter_mut() {
        endpoints.push(r);
    }
    pump_until(net, deadline, &mut endpoints)
}

fn main() {
    let scale = scale_arg();
    let n_vrps = 256 * scale;
    let stamp = RunStamp::capture();
    let mut report = Summary::new(&format!("RTR fan-out benchmark (scale {scale})"));
    let rec = trace_recorder();

    let router_counts = [10usize, 100, 1000];
    let churns = [1usize, 10];
    let rounds: u64 = if cfg!(debug_assertions) { 1 } else { 3 };

    let mut records: Vec<Record> = Vec::new();
    for routers_n in router_counts {
        for churn_pct in churns {
            let changed = (n_vrps * churn_pct / 100).max(1);

            // Fan-out world: warm every session once, then measure the
            // steady state where each round moves only the delta.
            let (mut net, mut fabric, mut routers) = world(routers_n);
            let mut vrps = universe(n_vrps);
            fabric.publish(&mut net, VrpUpdate::snapshot(vrps.clone()));
            pump(&mut net, &mut fabric, &mut routers);

            let mut fanout_frames = 0u64;
            let mut fanout_ns = u128::MAX;
            for round in 0..rounds {
                churn(&mut vrps, round, changed);
                let sent = net.stats().sent;
                let start = Instant::now();
                fabric.publish(&mut net, VrpUpdate::snapshot(vrps.clone()));
                pump(&mut net, &mut fabric, &mut routers);
                fanout_ns = fanout_ns.min(start.elapsed().as_nanos());
                let frames = net.stats().sent - sent;
                // notify + query + CacheResponse + (withdraw + announce)
                // per changed VRP + EndOfData, per router.
                assert_eq!(
                    frames,
                    routers_n as u64 * (2 * changed as u64 + 4),
                    "fan-out frames must scale with the delta size"
                );
                fanout_frames += frames;
                for r in &routers {
                    assert!(
                        r.vrps().iter().eq(fabric.server().vrps().iter()),
                        "router diverged from the cache after fan-out"
                    );
                }
            }
            fanout_frames /= rounds;

            // One extra instrumented fan-out round for the trace.
            if rec.is_enabled() {
                net.set_recorder(rec.clone());
                churn(&mut vrps, rounds, changed);
                fabric.publish(&mut net, VrpUpdate::snapshot(vrps.clone()));
                pump(&mut net, &mut fabric, &mut routers);
                net.set_recorder(rpki_risk_bench::Recorder::disabled());
            }
            let fanout_stats = fabric.stats();

            // Naive baseline: same churn schedule, but every refresh
            // each router starts over with a ResetQuery and pulls the
            // full snapshot (no serial-diff, no notify fan-out). Each
            // round gets a fresh world so nothing but the sweep itself
            // is on the wire.
            let mut vrps = universe(n_vrps);
            let mut naive_frames = 0u64;
            let mut naive_ns = u128::MAX;
            for round in 0..rounds {
                churn(&mut vrps, round, changed);
                let mut net = Network::new(41);
                let cache = net.add_node("rp-cache");
                let mut fabric = RtrFabric::new(cache, 1, 16);
                let nodes: Vec<_> =
                    (0..routers_n).map(|i| net.add_node(&format!("router-{i}"))).collect();
                fabric.publish(&mut net, VrpUpdate::snapshot(vrps.clone()));
                let mut sweep: Vec<RtrRouter> =
                    nodes.iter().map(|&n| RtrRouter::new(n, cache)).collect();
                let sent = net.stats().sent;
                let start = Instant::now();
                for r in sweep.iter_mut() {
                    r.poll(&mut net);
                }
                pump(&mut net, &mut fabric, &mut sweep);
                naive_ns = naive_ns.min(start.elapsed().as_nanos());
                let frames = net.stats().sent - sent;
                // ResetQuery + CacheResponse + every VRP + EndOfData,
                // per router: the full-sweep cost is the cache size.
                assert_eq!(
                    frames,
                    routers_n as u64 * (n_vrps as u64 + 3),
                    "naive frames must scale with the cache size"
                );
                naive_frames += frames;
            }
            naive_frames /= rounds;

            records.push(Record {
                routers: routers_n,
                vrps: n_vrps,
                churn_pct,
                changed_per_round: changed,
                fanout_frames,
                naive_frames,
                fanout_frames_per_router: fanout_frames / routers_n as u64,
                naive_frames_per_router: naive_frames / routers_n as u64,
                advantage: naive_frames as f64 / fanout_frames as f64,
                fanout_ns,
                naive_ns,
                notifies_sent: fanout_stats.notifies_sent,
                resets_served: fanout_stats.resets_served,
            });
        }
    }

    let mut out = SummaryTable::new(&[
        "routers",
        "vrps",
        "churn",
        "changed",
        "fan-out frames",
        "naive frames",
        "per-router f/n",
        "advantage",
        "fan-out (ms)",
        "naive (ms)",
    ]);
    for r in &records {
        out.row(&[
            r.routers.to_string(),
            r.vrps.to_string(),
            format!("{}%", r.churn_pct),
            r.changed_per_round.to_string(),
            r.fanout_frames.to_string(),
            r.naive_frames.to_string(),
            format!("{}/{}", r.fanout_frames_per_router, r.naive_frames_per_router),
            format!("{:.1}x", r.advantage),
            format!("{:.3}", r.fanout_ns as f64 / 1e6),
            format!("{:.3}", r.naive_ns as f64 / 1e6),
        ]);
    }
    report.table("serial-diff fan-out vs naive full-sweep refresh", out);

    let largest = records.iter().map(|r| r.routers).max().expect("records");
    let floor_advantage = records
        .iter()
        .filter(|r| r.routers == largest && r.churn_pct <= 10)
        .map(|r| r.advantage)
        .fold(f64::INFINITY, f64::min);
    report.key_vals(
        "targets",
        &[(
            format!("minimum fan-out advantage at <=10% churn with {largest} routers"),
            format!("{floor_advantage:.1}x"),
        )],
    );
    if cfg!(debug_assertions) {
        report.note("(debug build — advantage floor not enforced; run with --release)");
    } else if floor_advantage >= 4.0 {
        report.note("OK: >= 4x over the naive full sweep at <=10% churn.");
    }
    report.print();

    export("rtr", &stamp, &records, &rec);
    // Enforced last so a regressed run still reports and exports the
    // numbers that explain it.
    assert!(
        cfg!(debug_assertions) || floor_advantage >= 4.0,
        "RTR fan-out regressed below the 4x floor at <=10% churn ({floor_advantage:.2}x)"
    );
}
