//! The command line: the driver's one-workload runs, the all-workloads
//! report, `--self-check`, `--smoke` and `--describe`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use crate::oracle::Tally;
use crate::report::{
    describe, determinism, end_to_end, fingerprint, metric_in, per_layer, result_line, table,
    Measured, RoundLatency, RunRecord, TimedFold, END_TO_END, MIN_REPS, RUN_SECONDS,
};
use crate::run::{repetition, Mode, RepResult};
use crate::stats::worsening;
use crate::trace::write_jsonl;
use crate::workload::{by_name, Spec, WORKLOADS};

/// How to call the binary.
pub const USAGE: &str = "\
usage: pipeline [--seed N]                       all four workloads, both tables
       pipeline --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                                                 one workload; last line is the result JSON
       pipeline --self-check [--seed N]          two full sets must agree within the bounds
       pipeline --smoke                          all four workloads on 200-point worlds
       pipeline --describe                       print BENCHMARK.json
workloads: steady cold_restart fanout whack_bgp; default seed 2013";

/// The seed used when none is given.
pub const DEFAULT_SEED: u64 = 2013;

/// An untraced measurement of one workload.
pub struct Measurement {
    /// Checks attempted and failed: the verify repetition's oracle plus
    /// the determinism guard over every repetition.
    pub tally: Tally,
    /// The end-to-end metrics.
    pub metrics: Vec<Measured>,
    /// The round's p50 and p90: reported, not bounded.
    pub latency: RoundLatency,
    /// The verify repetition.
    pub verify: RepResult,
    /// Timed repetitions behind the host-clock metrics.
    pub timed_reps: usize,
}

/// Runs the verify repetition, then timed repetitions until `seconds`
/// have passed (at least [`MIN_REPS`]). Each timed repetition is
/// checked against the verify repetition's per-round vectors, folded
/// into the per-round minima and dropped.
pub fn measure(spec: &Spec, seed: u64, seconds: u64) -> Measurement {
    let verify = repetition(spec, seed, Mode::Verify);
    let mut tally = verify.tally;
    let started = Instant::now();
    let mut timed = TimedFold::default();
    while timed.reps() < MIN_REPS || started.elapsed().as_secs() < seconds {
        let rep = repetition(spec, seed, Mode::Timed);
        tally.absorb(determinism(&[&verify, &rep]));
        timed.fold(&rep);
    }
    let (metrics, latency) = end_to_end(&verify, &timed);
    Measurement { tally, metrics, latency, verify, timed_reps: timed.reps() }
}

/// A traced measurement of one workload.
pub struct Traced {
    /// The determinism guard over the untraced and the traced
    /// repetition.
    pub tally: Tally,
    /// The per-layer metrics.
    pub metrics: Vec<Measured>,
    /// Where the spans went.
    pub trace_path: PathBuf,
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Untraced and traced repetitions a traced run alternates, each:
/// enough for the overhead ratio to compare per-round minima rather
/// than single runs.
pub const TRACE_REPS: usize = 4;

/// Runs [`TRACE_REPS`] untraced and as many traced repetitions in turn,
/// writes the last trace, and derives the per-layer metrics.
pub fn trace(spec: &Spec, seed: u64) -> std::io::Result<Traced> {
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for _ in 0..TRACE_REPS {
        untraced.push(repetition(spec, seed, Mode::Timed));
        traced.push(repetition(spec, seed, Mode::Traced));
    }
    let all: Vec<&RepResult> = untraced.iter().chain(&traced).collect();
    let tally = determinism(&all);
    let metrics = per_layer(spec, &untraced, &traced);
    let trace_path = out_dir().join(format!("trace-{}.jsonl", spec.name));
    write_jsonl(&trace_path, &traced[traced.len() - 1].spans)?;
    Ok(Traced { tally, metrics, trace_path })
}

fn print_measurement(spec: &Spec, record: &RunRecord, m: &Measurement) {
    println!(
        "== {} — {} points, {} routers, {} measured rounds",
        spec.name,
        spec.points(),
        spec.routers,
        spec.rounds
    );
    println!("   {}", record.line());
    print!("{}", table(&m.metrics));
    println!(
        "  round_wall_ms p50 {:.4} p90 {:.4} ms (n={}, {} beyond the p90) — reported, not bounded",
        m.latency.p50_ms,
        m.latency.p90_ms,
        spec.rounds,
        m.latency.beyond_p90
    );
    println!(
        "  failed_share: {} failed / {} attempted = {}",
        m.tally.failed,
        m.tally.attempted,
        m.tally.failed as f64 / m.tally.attempted.max(1) as f64
    );
    let verify = &m.verify;
    println!(
        "  actions observed: {} (superseded before anyone looked: {}); VRPs at end: {}",
        verify.latencies.len(),
        verify.superseded,
        verify.vrps
    );
}

fn print_traced(spec: &Spec, t: &Traced) {
    println!("-- {} per-layer (traced repetition)", spec.name);
    print!("{}", table(&t.metrics));
    println!(
        "  determinism guard: {} failed / {} attempted; trace: {}",
        t.tally.failed,
        t.tally.attempted,
        t.trace_path.display()
    );
}

fn exit_code(failed: u64) -> ExitCode {
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The driver's contract: one workload, one mode, the result as the
/// last line of stdout.
fn driver(spec: &Spec, seed: u64, seconds: u64, traced: bool) -> ExitCode {
    if traced {
        let t = match trace(spec, seed) {
            Ok(t) => t,
            Err(err) => {
                eprintln!("cannot write the trace: {err}");
                return ExitCode::FAILURE;
            }
        };
        println!("   {}", RunRecord::gather(seed, TRACE_REPS).line());
        print_traced(spec, &t);
        println!("{}", result_line(t.tally, &t.metrics));
        exit_code(t.tally.failed)
    } else {
        let m = measure(spec, seed, seconds);
        print_measurement(spec, &RunRecord::gather(seed, m.timed_reps), &m);
        println!("{}", result_line(m.tally, &m.metrics));
        exit_code(m.tally.failed)
    }
}

/// Runs this binary again on one workload, as the driver does. A fresh
/// process per measurement keeps `peak_rss_mb` the workload's own: in a
/// shared process the allocator's leftovers from the previous workload
/// would count.
fn rerun(spec: &Spec, seed: u64, traced: bool) -> std::process::Command {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut command = std::process::Command::new(exe);
    command.args(["--workload", spec.name, "--seed", &seed.to_string()]);
    command.args([
        "--seconds",
        &RUN_SECONDS.to_string(),
        "--trace",
        if traced { "1" } else { "0" },
    ]);
    command
}

/// All four workloads: end-to-end table, then per-layer table, each
/// from a process of its own.
fn all(seed: u64) -> ExitCode {
    let mut failed = 0;
    for spec in &WORKLOADS {
        for traced in [false, true] {
            let passed = rerun(spec, seed, traced).status().is_ok_and(|status| status.success());
            failed += u64::from(!passed);
        }
    }
    println!("runs with failed checks over all workloads: {failed}");
    exit_code(failed)
}

/// Two full sets of the same code must agree: host-clock metrics
/// within their bounds, simulated-clock metrics exactly.
fn self_check(seed: u64) -> ExitCode {
    let mut failed = 0u64;
    for spec in &WORKLOADS {
        let mut sets = Vec::new();
        for _ in 0..2 {
            let line = rerun(spec, seed, false)
                .stderr(std::process::Stdio::inherit())
                .output()
                .ok()
                .filter(|out| out.status.success())
                .and_then(|out| String::from_utf8(out.stdout).ok())
                .and_then(|stdout| stdout.lines().last().map(str::to_owned));
            match line {
                Some(line) => sets.push(line),
                None => failed += 1,
            }
        }
        let [first, second] = sets.as_slice() else { continue };
        println!("== {} (two sets)", spec.name);
        for def in &END_TO_END {
            let (Some(a), Some(b)) = (metric_in(first, def.name), metric_in(second, def.name))
            else {
                println!("  {:<24} missing from a result line", def.name);
                failed += 1;
                continue;
            };
            let exact = def.unit == "sim-s" || def.unit == "frames";
            let apart = worsening(a, b, def.higher_is_better).abs();
            let ok = if exact { a == b } else { apart <= def.bound };
            println!(
                "  {:<24} {a:>14.4} {b:>14.4} {:<6} {:>6.2}% apart, {:>4.1}% allowed  {}",
                def.name,
                def.unit,
                apart * 100.0,
                if exact { 0.0 } else { def.bound * 100.0 },
                if ok { "ok" } else { "DIFFERS" }
            );
            failed += u64::from(!ok);
        }
    }
    println!("self-check: {failed} failures");
    exit_code(failed)
}

/// What [`smoke`] found.
#[derive(Debug, Default)]
pub struct SmokeOutcome {
    /// Oracle and determinism checks over all four workloads.
    pub tally: Tally,
    /// Workloads whose per-round vectors did not change with the seed.
    pub seed_blind: Vec<&'static str>,
}

/// All four workloads on 200-point worlds: a verify, a timed and a
/// traced repetition each, plus one repetition of another seed.
pub fn smoke() -> SmokeOutcome {
    let mut outcome = SmokeOutcome::default();
    for spec in WORKLOADS.iter().map(|w| w.smoke()) {
        let verify = repetition(&spec, DEFAULT_SEED, Mode::Verify);
        let timed = repetition(&spec, DEFAULT_SEED, Mode::Timed);
        let traced = repetition(&spec, DEFAULT_SEED, Mode::Traced);
        outcome.tally.absorb(verify.tally);
        outcome.tally.absorb(determinism(&[&verify, &timed, &traced]));
        // Metrics must compute on any world, however small.
        let mut fold = TimedFold::default();
        fold.fold(&timed);
        let _ = end_to_end(&verify, &fold);
        let _ = per_layer(&spec, std::slice::from_ref(&timed), std::slice::from_ref(&traced));
        let other = repetition(&spec, DEFAULT_SEED + 1, Mode::Timed);
        if fingerprint(&other) == fingerprint(&timed) {
            outcome.seed_blind.push(spec.name);
        }
        println!(
            "smoke {:<13} {} points: {} checks, {} failed",
            spec.name,
            spec.points(),
            verify.tally.attempted,
            verify.tally.failed
        );
    }
    outcome
}

/// Parses `args` and runs the requested mode.
pub fn main(args: Vec<String>) -> ExitCode {
    let mut workload: Option<String> = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = RUN_SECONDS;
    let mut traced = false;
    let mut mode = "";
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
        let parsed = match arg.as_str() {
            "--workload" => value("--workload").map(|v| workload = Some(v)),
            "--seed" => value("--seed")
                .and_then(|v| v.parse().map_err(|_| format!("bad seed {v:?}")))
                .map(|v| seed = v),
            "--seconds" => value("--seconds")
                .and_then(|v| v.parse().map_err(|_| format!("bad seconds {v:?}")))
                .map(|v| seconds = v),
            "--trace" => value("--trace").and_then(|v| match v.as_str() {
                "0" | "1" => {
                    traced = v == "1";
                    Ok(())
                }
                _ => Err(format!("--trace takes 0 or 1, not {v:?}")),
            }),
            "--self-check" | "--smoke" | "--describe" => {
                mode = arg.as_str();
                Ok(())
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown argument {other:?}")),
        };
        if let Err(message) = parsed {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    match (mode, workload) {
        ("--describe", _) => {
            print!("{}", describe());
            ExitCode::SUCCESS
        }
        ("--smoke", _) => {
            let outcome = smoke();
            let failed = outcome.tally.failed + outcome.seed_blind.len() as u64;
            println!("smoke: {} checks, {failed} failed", outcome.tally.attempted);
            exit_code(failed)
        }
        ("--self-check", _) => self_check(seed),
        (_, Some(name)) => match by_name(&name) {
            Some(spec) => driver(&spec, seed, seconds, traced),
            None => {
                eprintln!("unknown workload {name:?}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        (_, None) => all(seed),
    }
}
