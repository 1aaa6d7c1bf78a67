//! One repetition: a fresh world, the first full sync, the warm-up
//! rounds, then the measured rounds — each a closed loop from the CA's
//! action to the last route decision, timed on the host clock from
//! outside and observed on the simulated clock through the crates'
//! public counters.
//!
//! The two clocks are never mixed: `wall_ns` fields are host
//! nanoseconds, everything named `sim` or `frames` is exact for a seed.

use std::time::Instant;

use crate::oracle::{ActionLedger, Tally};
use crate::seam::{Counters, Probes, RoundFigures, World};
use crate::trace::{Span, Tracer};
use crate::workload::{RpStack, Spec};

/// What a repetition is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Oracle and failure accounting after every round; its wall times
    /// are discarded (the checks evict the program's working set).
    Verify,
    /// Wall-clock timing with tracing off; nothing but the rounds.
    Timed,
    /// Spans, allocation counts, counter deltas and the probes.
    Traced,
}

/// One measured round.
#[derive(Debug, Clone, Default)]
pub struct RoundRecord {
    /// Host nanoseconds from the CA's action to the route decision.
    pub wall_ns: u64,
    /// Frames sent (rsync + RRDP + RTR).
    pub frames: u64,
    /// Digest of the relying party's VRP set after the round.
    pub vrp_digest: u64,
    /// Frames the relying party's fetch sent.
    pub validate_frames: u64,
    /// Simulated seconds the relying party's fetch took.
    pub validate_sim_s: u64,
    /// CAs the authority step touched.
    pub touched_cas: u64,
    /// Per-run figures of the round's stages.
    pub figures: RoundFigures,
    /// Counter deltas over the round (traced repetitions only).
    pub counters: Option<Counters>,
    /// Wall ms of the same-round sequential walk (traced, sharded
    /// workload, sampled rounds only).
    pub sequential_walk_ms: Option<f64>,
}

/// Everything one repetition produced.
#[derive(Debug, Default)]
pub struct RepResult {
    /// Host seconds from the start of generation to the first
    /// measured round.
    pub setup_s: f64,
    /// The measured rounds.
    pub rounds: Vec<RoundRecord>,
    /// Publish → last-router latency of every observed action, in
    /// simulated seconds (verify repetitions only).
    pub latencies: Vec<u64>,
    /// Actions the authority undid before anyone looked.
    pub superseded: u64,
    /// Checks attempted and failed (verify repetitions only).
    pub tally: Tally,
    /// Recorded spans (traced repetitions only).
    pub spans: Vec<Span>,
    /// Buried-layer probes (traced repetitions only).
    pub probes: Option<Probes>,
    /// VRPs the relying party held after the last measured round.
    pub vrps: usize,
}

/// A traced repetition of the sharded workload repeats every this-many
/// rounds' walk sequentially, as the base of the wall speed-up: often
/// enough for a median, rarely enough to leave the next round's caches
/// (and the run's length) nearly alone.
const SEQUENTIAL_EVERY: usize = 5;

fn subtract(after: Counters, before: Counters) -> Counters {
    Counters {
        frames_sent: after.frames_sent - before.frames_sent,
        frames_dropped: after.frames_dropped - before.frames_dropped,
        snapshot_builds: after.snapshot_builds - before.snapshot_builds,
        snapshot_bytes_built: after.snapshot_bytes_built - before.snapshot_bytes_built,
        deltas_evicted: after.deltas_evicted - before.deltas_evicted,
        served_bytes: after.served_bytes - before.served_bytes,
        served_frames: after.served_frames - before.served_frames,
        rrdp_delta_syncs: after.rrdp_delta_syncs - before.rrdp_delta_syncs,
        rrdp_snapshot_syncs: after.rrdp_snapshot_syncs - before.rrdp_snapshot_syncs,
        rrdp_failures: after.rrdp_failures - before.rrdp_failures,
        sched_due: after.sched_due - before.sched_due,
        sched_not_due: after.sched_not_due - before.sched_not_due,
        sched_fetched: after.sched_fetched - before.sched_fetched,
        rtr_queries: after.rtr_queries - before.rtr_queries,
        rtr_resets_served: after.rtr_resets_served - before.rtr_resets_served,
        rtr_frames_rejected: after.rtr_frames_rejected - before.rtr_frames_rejected,
    }
}

/// Plays one round: CA action → pubd → fetch and walk → delta → RTR
/// cache → relay → routers → origin validation → BGP. With `act` off
/// the authorities stay quiet (first full sync, quiesce). Returns the
/// record and the CAs the authorities touched.
pub fn play_round(
    world: &mut World,
    spec: &Spec,
    tr: &mut Tracer,
    act: bool,
) -> (RoundRecord, Vec<usize>) {
    world.begin_round();
    world.clear_round_figures();
    let counters_before = tr.is_on().then(|| world.counters());
    let frames_before = world.frames_sent();

    let started = Instant::now();
    let round = tr.enter("round");

    let t = tr.enter("rpki-ca.step");
    let touched = world.ca_act(act);
    tr.exit(t);

    let t = tr.enter("seam.publish_touched");
    world.publish_touched(&touched, tr);
    tr.exit(t);

    let (validate_frames, validate_sim) = (world.frames_sent(), world.sim_now());
    let t = tr.enter("rpki-rp.validate");
    world.validate();
    tr.exit(t);
    let validate_frames = world.frames_sent() - validate_frames;
    let validate_sim_s = world.sim_now() - validate_sim;

    let t = tr.enter("rpki-rp.delta");
    world.vrp_delta();
    tr.exit(t);

    let t = tr.enter("rpki-rp.rtr_publish");
    let published = world.rtr_publish();
    tr.exit(t);

    if published {
        let t = tr.enter("rpki-rp.rtr_relay");
        world.rtr_relay();
        tr.exit(t);
    }
    // A reconnecting router resyncs whether or not anything changed.
    let resynced = published || spec.routers_reconnect;
    if resynced {
        let t = tr.enter("rpki-rp.rtr_routers");
        world.rtr_routers();
        tr.exit(t);

        let t = tr.enter("rpki-rp.vrpcache_build");
        world.vrpcache_build();
        tr.exit(t);

        let t = tr.enter("rpki-rp.ov_classify");
        let flips = world.ov_classify();
        tr.exit(t);

        // BGP re-runs only for routes whose RFC 6811 state flipped.
        if flips > 0 {
            let t = tr.enter("bgp-sim.propagate");
            world.propagate();
            tr.exit(t);
        }
    }

    tr.exit(round);
    let wall_ns = started.elapsed().as_nanos() as u64;

    let record = RoundRecord {
        wall_ns,
        frames: world.frames_sent() - frames_before,
        vrp_digest: world.vrp_digest(),
        validate_frames,
        validate_sim_s,
        touched_cas: touched.len() as u64,
        figures: world.round_figures(),
        counters: counters_before.map(|before| subtract(world.counters(), before)),
        sequential_walk_ms: None,
    };
    (record, touched)
}

/// The per-round oracle of a verify repetition. `ledger` is `None` for
/// the first full sync, whose delta is the whole initial VRP set rather
/// than anyone's action.
fn verify_round(
    world: &mut World,
    spec: &Spec,
    touched: &[usize],
    ledger: Option<&mut ActionLedger>,
) -> Tally {
    let mut tally = Tally::default();
    if let Some(ledger) = ledger {
        ledger.published(&world.truth_events(touched), world.round_start());
        let (announced, withdrawn) = world.rp_delta_keys();
        if !(announced.is_empty() && withdrawn.is_empty()) {
            // The delta reached the routers iff every one of them sits
            // at the relay's serial; the latest arrival is the
            // convergence instant.
            match world.routers_converged_at() {
                Some(at) => ledger.observed(&announced, &withdrawn, at, world.propagation_limit()),
                None => tally.note(false),
            }
        }
    }
    tally.absorb(world.check_routers_match_rp());
    if spec.rp != RpStack::ScheduledRrdp {
        // An unscheduled relying party is never stale: compare it with
        // the cold walk every round.
        tally.absorb(world.check_against_cold_walk());
    }
    if spec.whacks > 0 && !touched.is_empty() {
        tally.absorb(world.check_whack_routes());
    }
    tally
}

/// Runs one repetition of `spec` from `seed`.
pub fn repetition(spec: &Spec, seed: u64, mode: Mode) -> RepResult {
    let started = Instant::now();
    let mut tr = if mode == Mode::Traced { Tracer::on() } else { Tracer::off() };
    let mut ledger = ActionLedger::default();
    let mut tally = Tally::default();

    let warmup = spec.warmup_rounds as i32;
    tr.set_round(-warmup - 1);
    let mut world = World::build(*spec, seed, &mut tr);

    // First full sync: the authorities stay quiet, the relying party
    // fetches everything, every router takes the full snapshot, every
    // route is classified and propagated once.
    let (_, touched) = play_round(&mut world, spec, &mut tr, false);
    if mode == Mode::Verify {
        tally.absorb(verify_round(&mut world, spec, &touched, None));
    }
    for w in 0..warmup {
        tr.set_round(w - warmup);
        let (_, touched) = play_round(&mut world, spec, &mut tr, true);
        if mode == Mode::Verify {
            tally.absorb(verify_round(&mut world, spec, &touched, Some(&mut ledger)));
        }
    }
    let setup_s = started.elapsed().as_secs_f64();

    let mut rounds = Vec::with_capacity(spec.rounds);
    for r in 0..spec.rounds {
        tr.set_round(r as i32);
        let (mut record, touched) = play_round(&mut world, spec, &mut tr, true);
        match mode {
            Mode::Verify => {
                tally.absorb(verify_round(&mut world, spec, &touched, Some(&mut ledger)));
            }
            Mode::Traced if spec.rp == RpStack::ColdRsyncSharded && r % SEQUENTIAL_EVERY == 0 => {
                record.sequential_walk_ms = Some(world.sequential_walk_ms());
            }
            _ => {}
        }
        rounds.push(record);
    }
    let vrps = world.vrp_count();

    if mode == Mode::Verify {
        // Quiesce: with the authorities silent, a scheduled relying
        // party revisits every point within its refresh ceiling; then
        // nothing may remain unseen and the cold walk must agree.
        for _ in 0..world.quiesce_rounds() {
            let (_, touched) = play_round(&mut world, spec, &mut tr, false);
            tally.absorb(verify_round(&mut world, spec, &touched, Some(&mut ledger)));
        }
        ledger.close();
        tally.absorb(ledger.tally);
        tally.absorb(world.check_against_cold_walk());
    }

    let mut probes = None;
    if mode == Mode::Traced {
        // One more round, unmeasured, with a recorder on the network to
        // learn this workload's frame sizes; then the probes.
        tr.set_round(spec.rounds as i32);
        world.start_frame_recording();
        play_round(&mut world, spec, &mut Tracer::off(), true);
        let frame_bytes = world.finish_frame_recording();
        probes = Some(world.probe_buried_layers(frame_bytes));
    }

    RepResult {
        setup_s,
        rounds,
        latencies: std::mem::take(&mut ledger.latencies),
        superseded: ledger.superseded,
        tally,
        spans: tr.finish(),
        probes,
        vrps,
    }
}
