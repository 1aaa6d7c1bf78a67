//! A Suspenders-style fail-safe for relying parties.
//!
//! The paper's conclusion points at concurrent IETF work "to harden the
//! RPKI against errors, misconfigurations, and abuse", citing
//! *Suspenders: A Fail-safe Mechanism for the RPKI*
//! (draft-kent-sidr-suspenders). This module implements the core idea
//! as a relying-party layer over the validator:
//!
//! **A validated ROA payload does not vanish from the effective cache
//! the moment it vanishes from a repository.** When a VRP disappears
//! *without legitimate evidence* — no CRL revocation observed, not
//! expired — the relying party keeps using it for a configurable
//! hold-down window and raises an alarm, giving the resource holder
//! time to contest a whack before routing is affected.
//!
//! The distinction is exactly the transparency asymmetry of Side
//! Effects 1–2: transparent revocation carries its own evidence (the
//! CRL) and takes effect immediately; stealthy removal, overwriting,
//! and carve-induced invalidation carry none — and those are precisely
//! the manipulations the paper shows. The cost is symmetric, and the
//! module makes it measurable: during the hold-down the relying party
//! also keeps *honestly-removed* VRPs whose removal was done stealthily
//! (e.g. an operator cleaning up by deletion instead of revocation), so
//! the knob trades whack-resistance against responsiveness.

use std::collections::BTreeMap;

use rpki_objects::{Moment, Span};
use rpki_rp::{ValidationRun, Vrp, VrpCache, VrpRecord};
use serde::Serialize;

/// Configuration of the fail-safe.
#[derive(Debug, Clone, Copy)]
pub struct SuspendersConfig {
    /// How long a VRP that disappeared without evidence keeps
    /// protecting routes.
    pub hold_down: Span,
}

impl Default for SuspendersConfig {
    /// Seven days: long enough to litigate a whack, short enough that
    /// stale authorizations age out.
    fn default() -> Self {
        SuspendersConfig { hold_down: Span::days(7) }
    }
}

/// Why a VRP left the effective cache (or is being held).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Disposition {
    /// Present in the latest validation run.
    Fresh,
    /// Missing without evidence; still protecting routes until the
    /// hold-down ends.
    Held {
        /// When it went missing.
        since: Moment,
        /// When the hold-down expires.
        until: Moment,
    },
}

/// One state transition the fail-safe made during an ingest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum SuspendersEvent {
    /// A VRP disappeared with a matching CRL revocation: transparent,
    /// takes effect immediately.
    DroppedRevoked(Vrp),
    /// A VRP disappeared because its ROA's validity ended: legitimate
    /// expiry (possibly a *negligent* non-renewal, but holding it would
    /// mean trusting an expired signature).
    DroppedExpired(Vrp),
    /// A VRP disappeared without evidence: held, alarm raised. This is
    /// the whacking signature.
    HeldSuspicious(Vrp),
    /// A held VRP reappeared in a validation run (fault healed, or the
    /// manipulator backed off).
    Recovered(Vrp),
    /// A held VRP's hold-down lapsed without recovery: dropped for
    /// real.
    HoldDownExpired(Vrp),
}

impl SuspendersEvent {
    /// A short machine-readable label for traces and metrics.
    pub fn label(&self) -> &'static str {
        match self {
            SuspendersEvent::DroppedRevoked(_) => "dropped_revoked",
            SuspendersEvent::DroppedExpired(_) => "dropped_expired",
            SuspendersEvent::HeldSuspicious(_) => "held_suspicious",
            SuspendersEvent::Recovered(_) => "recovered",
            SuspendersEvent::HoldDownExpired(_) => "hold_down_expired",
        }
    }

    /// The VRP the transition concerns.
    pub fn vrp(&self) -> Vrp {
        match self {
            SuspendersEvent::DroppedRevoked(v)
            | SuspendersEvent::DroppedExpired(v)
            | SuspendersEvent::HeldSuspicious(v)
            | SuspendersEvent::Recovered(v)
            | SuspendersEvent::HoldDownExpired(v) => *v,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    record: VrpRecord,
    disposition: Disposition,
}

/// The stateful fail-safe. Feed it every validation run; read the
/// effective cache from [`SuspendersState::effective_cache`].
#[derive(Debug)]
pub struct SuspendersState {
    config: SuspendersConfig,
    entries: BTreeMap<Vrp, Entry>,
}

impl SuspendersState {
    /// A fail-safe with the given configuration and no history.
    pub fn new(config: SuspendersConfig) -> Self {
        SuspendersState { config, entries: BTreeMap::new() }
    }

    /// Ingests a validation run at `now`; returns the transitions made.
    pub fn ingest(&mut self, run: &ValidationRun, now: Moment) -> Vec<SuspendersEvent> {
        let mut events = Vec::new();

        // Index the new run.
        let fresh: BTreeMap<Vrp, VrpRecord> = run.vrp_records.iter().map(|r| (r.vrp, *r)).collect();

        // Update existing entries.
        let mut to_remove: Vec<Vrp> = Vec::new();
        for (vrp, entry) in self.entries.iter_mut() {
            if let Some(record) = fresh.get(vrp) {
                if matches!(entry.disposition, Disposition::Held { .. }) {
                    events.push(SuspendersEvent::Recovered(*vrp));
                }
                entry.record = *record;
                entry.disposition = Disposition::Fresh;
                continue;
            }
            // Missing from the new run. Evidence?
            let revoked = run
                .revocations
                .iter()
                .any(|(key, serial)| *key == entry.record.issuer && *serial == entry.record.serial);
            if revoked {
                events.push(SuspendersEvent::DroppedRevoked(*vrp));
                to_remove.push(*vrp);
                continue;
            }
            if now.is_past(entry.record.not_after) {
                events.push(SuspendersEvent::DroppedExpired(*vrp));
                to_remove.push(*vrp);
                continue;
            }
            match entry.disposition {
                Disposition::Fresh => {
                    // First disappearance: hold and alarm.
                    entry.disposition =
                        Disposition::Held { since: now, until: now + self.config.hold_down };
                    events.push(SuspendersEvent::HeldSuspicious(*vrp));
                }
                Disposition::Held { until, .. } => {
                    if now.is_past(until) {
                        events.push(SuspendersEvent::HoldDownExpired(*vrp));
                        to_remove.push(*vrp);
                    }
                    // else: keep holding, no new event.
                }
            }
        }
        for vrp in to_remove {
            self.entries.remove(&vrp);
        }

        // Adopt genuinely new VRPs.
        for (vrp, record) in fresh {
            self.entries.entry(vrp).or_insert(Entry { record, disposition: Disposition::Fresh });
        }

        events
    }

    /// The effective cache: fresh VRPs plus held ones.
    pub fn effective_cache(&self) -> VrpCache {
        self.entries.keys().copied().collect()
    }

    /// The VRPs currently in hold-down, with their windows.
    pub fn held(&self) -> Vec<(Vrp, Moment, Moment)> {
        self.entries
            .values()
            .filter_map(|e| match e.disposition {
                Disposition::Held { since, until } => Some((e.record.vrp, since, until)),
                Disposition::Fresh => None,
            })
            .collect()
    }

    /// Number of VRPs in the effective cache.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the effective cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{asn, ca, World, MODEL_SEED};
    use rpki_rp::{Route, RouteValidity};

    fn cfg() -> SuspendersConfig {
        SuspendersConfig { hold_down: Span::days(7) }
    }

    /// The events of each ingest, at the moments `absent`, of a run
    /// without `record`, after one at `seen` that carried only it.
    fn absent_after(
        record: VrpRecord,
        seen: Moment,
        absent: &[Moment],
    ) -> Vec<Vec<SuspendersEvent>> {
        let mut s = SuspendersState::new(cfg());
        s.ingest(&ValidationRun { vrp_records: vec![record], ..ValidationRun::default() }, seen);
        absent.iter().map(|&at| s.ingest(&ValidationRun::default(), at)).collect()
    }

    fn a_record() -> VrpRecord {
        World::model(MODEL_SEED).validate_direct(Moment(2)).vrp_records[0]
    }

    #[test]
    fn a_missing_vrp_is_dropped_as_expired_only_after_its_not_after() {
        let record = a_record();
        let (vrp, t) = (record.vrp, record.not_after.secs());
        let after = |at: u64| absent_after(record, Moment(2), &[Moment(at)]).remove(0);
        assert_eq!(after(t - 1), [SuspendersEvent::HeldSuspicious(vrp)]);
        assert_eq!(after(t), [SuspendersEvent::HeldSuspicious(vrp)]);
        assert_eq!(after(t + 1), [SuspendersEvent::DroppedExpired(vrp)]);
    }

    #[test]
    fn a_hold_down_expires_only_after_its_until() {
        let record = VrpRecord { not_after: Moment(u64::MAX), ..a_record() };
        let until = 3 + cfg().hold_down.0;
        let moments = [3, until - 1, until, until + 1].map(Moment);
        let events = absent_after(record, Moment(2), &moments);
        assert_eq!(events[0], [SuspendersEvent::HeldSuspicious(record.vrp)]);
        assert!(events[1].is_empty() && events[2].is_empty(), "{events:?}");
        assert_eq!(events[3], [SuspendersEvent::HoldDownExpired(record.vrp)]);
    }

    #[test]
    fn steady_state_is_quiet() {
        let mut w = World::model(MODEL_SEED);
        let mut s = SuspendersState::new(cfg());
        let events = s.ingest(&w.validate_direct(Moment(2)), Moment(2));
        assert!(events.is_empty());
        assert_eq!(s.len(), 8);
        w.publish_all(Moment(100));
        let events = s.ingest(&w.validate_direct(Moment(101)), Moment(101));
        assert!(events.is_empty(), "{events:?}");
        assert!(s.held().is_empty());
    }

    #[test]
    fn whack_is_held_and_routes_stay_valid() {
        let mut w = World::model(MODEL_SEED);
        let mut s = SuspendersState::new(cfg());
        s.ingest(&w.validate_direct(Moment(2)), Moment(2));

        // Sprint whacks Continental's covering ROA via carve-out.
        use rpki_attacks::plan_whack;
        let view = w.continental_view();
        let file = w.covering_roa_file();
        let plan = plan_whack(std::slice::from_ref(&view), &file).unwrap();
        plan.execute(&mut w.cas[ca::SPRINT], Moment(3)).unwrap();
        w.publish_all(Moment(3));

        let run = w.validate_direct(Moment(4));
        // Bare validator: the VRP is gone...
        assert!(!run.vrps.iter().any(|v| v.asn == asn::CONTINENTAL));
        // ...but Suspenders holds it.
        let events = s.ingest(&run, Moment(4));
        assert!(events
            .iter()
            .any(|e| matches!(e, SuspendersEvent::HeldSuspicious(v) if v.asn == asn::CONTINENTAL)));
        let cache = s.effective_cache();
        assert_eq!(
            cache.classify(Route::new("63.174.16.0/20".parse().unwrap(), asn::CONTINENTAL)),
            RouteValidity::Valid,
            "held VRP keeps the victim's route valid"
        );
        assert_eq!(s.held().len(), 1);
    }

    #[test]
    fn transparent_revocation_takes_effect_immediately() {
        let mut w = World::model(MODEL_SEED);
        let mut s = SuspendersState::new(cfg());
        s.ingest(&w.validate_direct(Moment(2)), Moment(2));

        let serial = w.cas[ca::CONTINENTAL]
            .issued_roas()
            .find(|r| r.asn() == asn::CONTINENTAL)
            .unwrap()
            .serial();
        w.cas[ca::CONTINENTAL].revoke_serial(serial);
        w.publish_all(Moment(3));
        let events = s.ingest(&w.validate_direct(Moment(4)), Moment(4));
        assert!(events
            .iter()
            .any(|e| matches!(e, SuspendersEvent::DroppedRevoked(v) if v.asn == asn::CONTINENTAL)));
        assert!(s.held().is_empty());
        assert_eq!(
            s.effective_cache()
                .classify(Route::new("63.174.16.0/20".parse().unwrap(), asn::CONTINENTAL)),
            RouteValidity::Unknown
        );
    }

    #[test]
    fn expiry_is_not_held() {
        let w = World::model(MODEL_SEED);
        let mut s = SuspendersState::new(cfg());
        s.ingest(&w.validate_direct(Moment(2)), Moment(2));
        // Far enough that the model's ROAs have expired (365d default):
        // the validator drops them, and Suspenders must NOT hold them.
        let late = Moment(0) + Span::days(400);
        let run = w.validate_direct(late);
        assert!(run.vrps.is_empty());
        let events = s.ingest(&run, late);
        assert_eq!(events.len(), 8);
        assert!(events.iter().all(|e| matches!(e, SuspendersEvent::DroppedExpired(_))));
        assert!(s.is_empty());
    }

    #[test]
    fn hold_down_lapses() {
        let mut w = World::model(MODEL_SEED);
        let mut s = SuspendersState::new(SuspendersConfig { hold_down: Span::days(2) });
        s.ingest(&w.validate_direct(Moment(2)), Moment(2));
        let file = w.covering_roa_file();
        w.cas[ca::CONTINENTAL].withdraw(&file).unwrap();
        w.publish_all(Moment(3));
        // Day 0: held.
        let run = w.validate_direct(Moment(4));
        s.ingest(&run, Moment(4));
        assert_eq!(s.held().len(), 1);
        // Day 1: still held, no repeat alarm.
        let events =
            s.ingest(&w.validate_direct(Moment(4) + Span::days(1)), Moment(4) + Span::days(1));
        assert!(events.is_empty());
        assert_eq!(s.held().len(), 1);
        // Day 3 (past the 2-day hold-down): dropped for real.
        let t = Moment(4) + Span::days(3);
        let events = s.ingest(&w.validate_direct(t), t);
        assert!(events.iter().any(
            |e| matches!(e, SuspendersEvent::HoldDownExpired(v) if v.asn == asn::CONTINENTAL)
        ));
        assert_eq!(s.held().len(), 0);
        assert_eq!(s.len(), 7);
    }

    #[test]
    fn recovery_clears_the_hold() {
        let mut w = World::model(MODEL_SEED);
        let mut s = SuspendersState::new(cfg());
        s.ingest(&w.validate_direct(Moment(2)), Moment(2));
        // A transport fault makes Continental's repo unreachable for one
        // sync; its VRPs are held.
        let node = w.repos.node_of("rpki.continental.example").unwrap();
        w.net.faults.set_down(node, true);
        let run = w.validate_with(crate::ValidationOptions::at(Moment(3)));
        let events = s.ingest(&run, Moment(3));
        assert_eq!(
            events.iter().filter(|e| matches!(e, SuspendersEvent::HeldSuspicious(_))).count(),
            5
        );
        // Routing is unaffected throughout.
        assert_eq!(s.effective_cache().len(), 8);
        // The repo comes back; everything recovers.
        w.net.faults.set_down(node, false);
        let run = w.validate_with(crate::ValidationOptions::at(Moment(4)));
        let events = s.ingest(&run, Moment(4));
        assert_eq!(events.iter().filter(|e| matches!(e, SuspendersEvent::Recovered(_))).count(), 5);
        assert!(s.held().is_empty());
    }

    #[test]
    fn renewal_is_transparent_to_suspenders() {
        let mut w = World::model(MODEL_SEED);
        let mut s = SuspendersState::new(cfg());
        s.ingest(&w.validate_direct(Moment(2)), Moment(2));
        // Renew one of Sprint's ROAs: same VRP content, new EE identity.
        let file = w.cas[ca::SPRINT].issued_roas().next().map(|r| r.file_name()).unwrap();
        w.cas[ca::SPRINT].renew_roa(&file, Moment(50)).unwrap();
        w.publish_all(Moment(51));
        let events = s.ingest(&w.validate_direct(Moment(52)), Moment(52));
        // The VRP never disappeared (content identity), so: silence.
        assert!(events.is_empty(), "{events:?}");
    }
}
