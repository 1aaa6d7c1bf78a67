//! Side Effect 7: transient faults cause long-term failures.
//!
//! The Section 6 worked example, end to end on the real transport:
//! a single corrupted fetch of the ROA `(63.174.16.0/20, AS17054)` —
//! whose repository lives at 63.174.23.0 *inside that very prefix* —
//! leaves a drop-invalid relying party permanently unable to re-fetch
//! the repair, because the route to the repository is invalid without
//! the ROA stored there.

use bgp_sim::RpkiPolicy;
use rpki_objects::Moment;
use rpki_repo::SyncPolicy;
use rpki_risk::{Fetch, LoopbackWorld, ModelRpki, ValidationOptions};
use rpki_risk_bench::{emit_json, trace_recorder, write_trace, Summary, SummaryTable};
use rpki_rp::{ResilienceConfig, ResilientState};
use serde::Serialize;

#[derive(Serialize)]
struct Phase {
    phase: &'static str,
    vrps: usize,
    continental_fetchable: bool,
}

fn main() {
    let recorder = trace_recorder();
    let mut report =
        Summary::new("Side Effect 7 — one corrupted fetch becomes a persistent failure");
    let mut phases: Vec<Phase> = Vec::new();

    // Premises (Section 6): Figure 5 (right) validity; Continental
    // hosts its repository at 63.174.23.0/AS17054; drop-invalid RP.
    let mut w = ModelRpki::build();
    w.net.set_recorder(recorder.clone());
    w.add_figure5_right_roa(Moment(2));

    // Phase 1 — a healthy sync over the network. A resilient relying
    // party would also warm its last-good snapshots here (used by
    // phase 5).
    let healthy = w.validate_with(ValidationOptions::at(Moment(3)));
    phases.push(Phase { phase: "healthy", vrps: healthy.vrps.len(), continental_fetchable: true });
    let policy = SyncPolicy::default();
    let mut resilient = ResilientState::new(ResilienceConfig::default());
    w.validate_with(
        ValidationOptions::at(Moment(3)).fetch(Fetch::Retry(policy)).stale_cache(&mut resilient),
    );

    // Phase 2 — the transient fault: corrupt ONE fetch from
    // Continental's repository (Side Effect 6's corrupted-object case).
    let continental_node = w.repos.node_of("rpki.continental.example").expect("exists");
    // Corrupt the whole session once (listing frame): the RP's next
    // sync sees nothing from Continental — its ROAs fall out of cache.
    w.net.faults.corrupt_nth(continental_node, w.rp_node, 1);
    let faulted = w.validate_with(ValidationOptions::at(Moment(4)));
    assert!(faulted.vrps.len() < healthy.vrps.len());
    phases.push(Phase {
        phase: "transient fault",
        vrps: faulted.vrps.len(),
        continental_fetchable: false,
    });

    // Phase 3 — the fault is GONE (no more scheduled corruption), but
    // the relying party's routes are now computed from the degraded
    // cache. Close the loop and find the fixed point.
    let degraded = faulted.vrps.clone();
    let mut world = w.loopback(RpkiPolicy::DropInvalid);
    let stuck = world.run(&degraded, Moment(5));
    assert!(!stuck.can_fetch("rpki.continental.example"), "the trap must hold");
    phases.push(Phase {
        phase: "fixed point (drop-invalid)",
        vrps: stuck.vrps.len(),
        continental_fetchable: false,
    });

    // Phase 4 — recovery requires stepping outside the loop: the paper
    // notes "this can be fixed (manually), but there are no recommended
    // procedures". One manual fix: temporarily depref instead of drop.
    let mut relaxed = LoopbackWorld { policy: RpkiPolicy::DeprefInvalid, ..world };
    let recovered = relaxed.run(&stuck.vrps, Moment(6));
    assert!(recovered.can_fetch("rpki.continental.example"));
    assert_eq!(recovered.vrps.len(), healthy.vrps.len());
    phases.push(Phase {
        phase: "manual recovery (depref)",
        vrps: recovered.vrps.len(),
        continental_fetchable: true,
    });

    // Phase 5 — the same trap with the resilient pipeline armed from
    // the start: the stale snapshot bridges the gated transport, BGP
    // never sees the degraded cache, and the fixed point recovers
    // WITHOUT leaving drop-invalid. No manual procedure needed.
    let mut defended = LoopbackWorld { policy: RpkiPolicy::DropInvalid, ..relaxed };
    let bridged = defended.run_resilient(&degraded, Moment(7), policy, &mut resilient);
    assert!(bridged.can_fetch("rpki.continental.example"), "the defense must break the trap");
    assert_eq!(bridged.vrps.len(), healthy.vrps.len());
    phases.push(Phase {
        phase: "resilient RP (automatic)",
        vrps: bridged.vrps.len(),
        continental_fetchable: true,
    });

    let mut table = SummaryTable::new(&["phase", "VRPs in cache", "Continental repo fetchable"]);
    for p in &phases {
        table.row(&[p.phase.to_owned(), p.vrps.to_string(), p.continental_fetchable.to_string()]);
    }
    report.table("Side Effect 7 timeline", table);
    let mut work = stuck.propagation;
    work.absorb(recovered.propagation);
    work.emit(&recorder, 8);
    report.key_vals(
        "work across both loop runs",
        &[
            ("BGP rounds", work.rounds.to_string()),
            ("route updates", work.route_updates.to_string()),
            ("memo hits", format!("{}/{}", work.memo_hits, work.memo_hits + work.memo_misses)),
        ],
    );
    report.note(
        "OK: a transient fault persisted until manual intervention (Section 6) —\n\
         unless the RP's fetch pipeline bridges it automatically (phase 5).",
    );
    if recorder.is_enabled() {
        report.metrics(&recorder.metrics());
    }
    report.print();
    if let Some(path) = write_trace(&recorder) {
        println!("\nwrote {} trace events to {path}", recorder.event_count());
    }

    emit_json("se7_phases", &phases);
    emit_json("se7_convergence", &work);
}
