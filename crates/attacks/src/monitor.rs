//! The snapshot-diff RPKI monitor.
//!
//! Section 3.1 ends with: *"One of the open problems we are working on
//! is the design of monitoring schemes that deter RPKI manipulations by
//! detecting suspiciously reissued objects."* This module is that
//! scheme: capture periodic snapshots of every repository, diff them,
//! and classify each change as routine churn or a manipulation
//! signature. The paper's worry — *"distinguishing between abusive
//! behavior and normal RPKI churn could be difficult"* (Side Effect 2)
//! — becomes measurable: the ablation benches feed the monitor seeded
//! churn with and without injected whacks and score it.
//!
//! Signatures implemented:
//!
//! - **Suspected whack** — a certificate overwritten with shrunken
//!   resources while some descendant ROA still needs the removed space.
//! - **Suspicious reissue** — an object appearing at one publication
//!   point whose content duplicates an object living at (or vanished
//!   from) *another* — the make-before-break fingerprint.
//! - **Stealthy removal** — an object vanishing with neither a CRL
//!   entry nor a same-point renewal.
//!
//! Routine churn (CRL/manifest refresh, ROA renewal, key rollover,
//! fresh issuance) is classified as such.

use std::collections::BTreeMap;

use ipres::{Asn, ResourceSet};
use rpki_objects::{Decode, Moment, RoaPrefix, RpkiObject};
use rpki_obs::{FieldValue, Recorder, TraceEvent};
use rpki_repo::RepoRegistry;
use rpki_rp::ValidationRun;
use serde::Serialize;

/// A point-in-time, fully decoded picture of every repository.
#[derive(Debug, Clone)]
pub struct MonitorSnapshot {
    /// Capture time.
    pub when: Moment,
    /// `directory URI → file name → decoded object`. Files that fail to
    /// decode are skipped (a production monitor would flag them; the
    /// validator already does).
    pub dirs: BTreeMap<String, BTreeMap<String, RpkiObject>>,
}

impl MonitorSnapshot {
    /// Captures the current state of every repository.
    pub fn capture(repos: &RepoRegistry, when: Moment) -> Self {
        let mut dirs = BTreeMap::new();
        for repo in repos.iter() {
            for dir in repo.directories() {
                let mut files = BTreeMap::new();
                for (name, _) in repo.list(&dir) {
                    if let Some(bytes) = repo.fetch(&dir, &name) {
                        if let Ok(obj) = RpkiObject::from_bytes(bytes) {
                            files.insert(name, obj);
                        }
                    }
                }
                dirs.insert(dir.to_string(), files);
            }
        }
        MonitorSnapshot { when, dirs }
    }

    fn roas(&self) -> impl Iterator<Item = (&String, &String, &rpki_objects::Roa)> {
        self.dirs.iter().flat_map(|(dir, files)| {
            files.iter().filter_map(move |(name, obj)| match obj {
                RpkiObject::Roa(r) => Some((dir, name, r)),
                _ => None,
            })
        })
    }
}

/// Direction of a change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ChangeKind {
    /// File appeared.
    Added,
    /// File vanished.
    Removed,
    /// File's bytes changed under the same name (an overwrite).
    Modified,
}

impl ChangeKind {
    /// A short machine-readable label for traces.
    pub fn label(&self) -> &'static str {
        match self {
            ChangeKind::Added => "added",
            ChangeKind::Removed => "removed",
            ChangeKind::Modified => "modified",
        }
    }
}

/// What the monitor concluded about one change.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum Classification {
    /// CRL/manifest refresh or an equal-content overwrite.
    RoutineRefresh,
    /// Same-content object reappeared at the same publication point
    /// with a fresh identity (ROA renewal, key rollover).
    Renewal,
    /// A brand-new object with unseen content.
    NewIssuance,
    /// Removal matched by a CRL revocation — transparent, auditable.
    RevokedRemoval,
    /// Removal with no CRL entry and no renewal — Side Effect 2.
    StealthyRemoval,
    /// A certificate shrank while descendants still use the removed
    /// space.
    SuspectedWhack {
        /// ROAs (display strings) orphaned by the shrink.
        orphaned: Vec<String>,
    },
    /// An object whose content duplicates one at another publication
    /// point — the make-before-break fingerprint.
    SuspiciousReissue {
        /// The other publication point holding the duplicated content.
        original_dir: String,
    },
}

impl Classification {
    /// Whether this classification should alert an operator.
    pub fn is_suspicious(&self) -> bool {
        matches!(
            self,
            Classification::StealthyRemoval
                | Classification::SuspectedWhack { .. }
                | Classification::SuspiciousReissue { .. }
        )
    }

    /// A short machine-readable label for traces and metrics.
    pub fn label(&self) -> &'static str {
        match self {
            Classification::RoutineRefresh => "routine_refresh",
            Classification::Renewal => "renewal",
            Classification::NewIssuance => "new_issuance",
            Classification::RevokedRemoval => "revoked_removal",
            Classification::StealthyRemoval => "stealthy_removal",
            Classification::SuspectedWhack { .. } => "suspected_whack",
            Classification::SuspiciousReissue { .. } => "suspicious_reissue",
        }
    }
}

/// One classified change.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct MonitorEvent {
    /// The publication directory.
    pub dir: String,
    /// The file that changed.
    pub file: String,
    /// Direction of the change.
    pub kind: ChangeKind,
    /// The monitor's verdict.
    pub classification: Classification,
}

/// The stateful monitor: feed it snapshots, read classified events.
#[derive(Debug, Default)]
pub struct Monitor {
    last: Option<MonitorSnapshot>,
    recorder: Recorder,
}

/// Content identity of a ROA: authorization semantics, not bytes.
fn roa_key(roa: &rpki_objects::Roa) -> (Asn, Vec<RoaPrefix>) {
    let mut prefixes = roa.data().prefixes.clone();
    prefixes.sort_by_key(|rp| (rp.prefix, rp.max_len));
    (roa.asn(), prefixes)
}

impl Monitor {
    /// A monitor with no history.
    pub fn new() -> Self {
        Monitor::default()
    }

    /// Installs an observability recorder: every classified change is
    /// counted by verdict, and suspicious verdicts additionally emit
    /// `alarm` events. Disabled by default.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Ingests a snapshot; returns the classified diff against the
    /// previous one (empty on the first call).
    pub fn observe(&mut self, snap: MonitorSnapshot) -> Vec<MonitorEvent> {
        let at = snap.when;
        let Some(old) = self.last.replace(snap) else {
            return Vec::new();
        };
        let old = &old;
        let new = self.last.as_ref().expect("just replaced");
        let mut events = Vec::new();

        // Index ROA content locations in the new snapshot.
        let mut new_roa_dirs: BTreeMap<(Asn, Vec<RoaPrefix>), Vec<&String>> = BTreeMap::new();
        for (dir, _, roa) in new.roas() {
            new_roa_dirs.entry(roa_key(roa)).or_default().push(dir);
        }
        // And in the old one (for duplicate detection).
        let mut old_roa_dirs: BTreeMap<(Asn, Vec<RoaPrefix>), Vec<&String>> = BTreeMap::new();
        for (dir, _, roa) in old.roas() {
            old_roa_dirs.entry(roa_key(roa)).or_default().push(dir);
        }

        let empty = BTreeMap::new();
        let all_dirs: Vec<&String> = old.dirs.keys().chain(new.dirs.keys()).collect();
        let mut seen_dirs: Vec<&String> = Vec::new();
        for dir in all_dirs {
            if seen_dirs.contains(&dir) {
                continue;
            }
            seen_dirs.push(dir);
            let old_files = old.dirs.get(dir).unwrap_or(&empty);
            let new_files = new.dirs.get(dir).unwrap_or(&empty);

            // The new CRLs of this dir (for revocation matching).
            let new_crls: Vec<&rpki_objects::Crl> = new_files
                .values()
                .filter_map(|o| match o {
                    RpkiObject::Crl(c) => Some(c),
                    _ => None,
                })
                .collect();
            let revoked = |serial: u64| new_crls.iter().any(|c| c.is_revoked(serial));

            // Removed and modified files.
            for (name, old_obj) in old_files {
                match new_files.get(name) {
                    Some(new_obj) if new_obj == old_obj => {}
                    Some(new_obj) => {
                        events.push(MonitorEvent {
                            dir: dir.clone(),
                            file: name.clone(),
                            kind: ChangeKind::Modified,
                            classification: classify_modification(old, old_obj, new_obj),
                        });
                    }
                    None => {
                        events.push(MonitorEvent {
                            dir: dir.clone(),
                            file: name.clone(),
                            kind: ChangeKind::Removed,
                            classification: classify_removal(dir, old_obj, new_files, &revoked),
                        });
                    }
                }
            }

            // Added files.
            for (name, new_obj) in new_files {
                if old_files.contains_key(name) {
                    continue;
                }
                events.push(MonitorEvent {
                    dir: dir.clone(),
                    file: name.clone(),
                    kind: ChangeKind::Added,
                    classification: classify_addition(
                        dir,
                        new_obj,
                        old_files,
                        &old_roa_dirs,
                        &new_roa_dirs,
                        old,
                    ),
                });
            }
        }
        if self.recorder.is_enabled() {
            for event in &events {
                self.recorder.count(&format!("monitor.{}", event.classification.label()), 1);
                if event.classification.is_suspicious() {
                    self.recorder.count("monitor.alarms", 1);
                    self.recorder
                        .event(at.0, "monitor", "alarm")
                        .str("dir", &event.dir)
                        .str("file", &event.file)
                        .str("change", event.kind.label())
                        .str("verdict", event.classification.label())
                        .emit();
                }
            }
        }
        events
    }
}

/// One transport-layer detection against a host, pulled from the
/// relying party's trace: a pinned-feed detection (`rrdp_pinned`) or
/// an RRDP→rsync downgrade (`rrdp_downgrade`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TransportEvidence {
    /// Simulated time of the detection.
    pub at: u64,
    /// `"rrdp_pinned"` or `"rrdp_downgrade"`.
    pub kind: String,
    /// The downgrade's reason label (`"pinned"`, a transport error),
    /// when the event carried one.
    pub reason: Option<String>,
}

/// Everything the monitor holds against one publication host: the
/// snapshot-diff verdicts from its directories plus the transport
/// misbehaviour the relying parties reported against it.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct HostReport {
    /// The accused host.
    pub host: String,
    /// Pinned-feed detections against this host.
    pub pinned_detections: usize,
    /// RRDP→rsync downgrades forced by this host.
    pub downgrades: usize,
    /// Suspicious snapshot-diff events in this host's directories.
    pub object_alarms: Vec<MonitorEvent>,
    /// The transport-layer detections, in trace order.
    pub transport: Vec<TransportEvidence>,
    /// CAs under this host's directories that a relying-party walk
    /// dropped, as `"handle (resources)"` — the object-rejection
    /// evidence from the validation layer.
    pub rejected_cas: Vec<String>,
    /// VRP display strings a relying-party run flagged *unsafe*
    /// because they overlap this host's rejected resources. Under
    /// [`rpki_rp::UnsafeVrpPolicy::Reject`] these are the payloads the
    /// misbehaving host suppressed for every relying party.
    pub unsafe_vrps: Vec<String>,
}

impl HostReport {
    /// One human-readable line naming the host and its evidence tally.
    pub fn summary_line(&self) -> String {
        format!(
            "{}: {} object alarm(s), {} pinned detection(s), {} downgrade(s), {} rejected CA(s), {} unsafe VRP(s)",
            self.host,
            self.object_alarms.len(),
            self.pinned_detections,
            self.downgrades,
            self.rejected_cas.len(),
            self.unsafe_vrps.len()
        )
    }
}

/// The merged misbehaviour artifact: every host with object-layer or
/// transport-layer evidence against it, sorted by host name.
///
/// This is the paper's monitoring scheme closed end-to-end: the
/// snapshot-diff verdicts say *what changed at rest* (a stealthy
/// removal, a whack) and the `rrdp_pinned` / `rrdp_downgrade` trace
/// events say *what the host did on the wire to hide it* — one
/// artifact names the misbehaving authority and both halves of the
/// evidence.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct MisbehaviorReport {
    /// Per-host dossiers, sorted by host name.
    pub hosts: Vec<HostReport>,
}

/// The dossier for `host` in `hosts`, opened empty if there is none.
fn dossier<'a>(hosts: &'a mut BTreeMap<String, HostReport>, host: &str) -> &'a mut HostReport {
    hosts
        .entry(host.to_owned())
        .or_insert_with(|| HostReport { host: host.to_owned(), ..HostReport::default() })
}

/// The host of a publication directory URI (`rsync://host/path`).
fn dir_host(dir: &str) -> String {
    let rest = dir.strip_prefix("rsync://").unwrap_or(dir);
    rest.split('/').next().unwrap_or(rest).to_string()
}

impl MisbehaviorReport {
    /// Merges suspicious snapshot-diff events with the `rrdp_pinned` /
    /// `rrdp_downgrade` events of a relying-party trace. Hosts with no
    /// evidence of either kind do not appear.
    pub fn build(object_events: &[MonitorEvent], trace: &[TraceEvent]) -> Self {
        let mut hosts: BTreeMap<String, HostReport> = BTreeMap::new();
        for event in object_events {
            if !event.classification.is_suspicious() {
                continue;
            }
            dossier(&mut hosts, &dir_host(&event.dir)).object_alarms.push(event.clone());
        }
        for event in trace {
            if event.layer != "rp" || !matches!(event.kind, "rrdp_pinned" | "rrdp_downgrade") {
                continue;
            }
            let field = |name: &str| {
                event.fields.iter().find_map(|(k, v)| match v {
                    FieldValue::Str(s) if *k == name => Some(s.clone()),
                    _ => None,
                })
            };
            let Some(host) = field("host") else { continue };
            let report = dossier(&mut hosts, &host);
            match event.kind {
                "rrdp_pinned" => report.pinned_detections += 1,
                _ => report.downgrades += 1,
            }
            report.transport.push(TransportEvidence {
                at: event.at,
                kind: event.kind.to_string(),
                reason: field("reason"),
            });
        }
        MisbehaviorReport { hosts: hosts.into_values().collect() }
    }

    /// Folds a relying-party run's rejection evidence into the dossier:
    /// each [`rpki_rp::RejectedCa`] accuses the host of its publication
    /// directory, and each unsafe VRP accuses every host whose rejected
    /// resources cover it. Hosts with only validation-layer evidence
    /// are added; existing dossiers are extended in place.
    pub fn attach_validation(&mut self, run: &ValidationRun) {
        let mut hosts: BTreeMap<String, HostReport> =
            std::mem::take(&mut self.hosts).into_iter().map(|h| (h.host.clone(), h)).collect();
        for rejected in &run.rejected_cas {
            let report = dossier(&mut hosts, &dir_host(&rejected.dir));
            report.rejected_cas.push(format!("{} ({})", rejected.ca, rejected.resources));
            for vrp in &run.unsafe_vrps {
                if rejected.resources.overlaps_prefix(vrp.prefix) {
                    report.unsafe_vrps.push(vrp.to_string());
                }
            }
        }
        for report in hosts.values_mut() {
            report.unsafe_vrps.sort();
            report.unsafe_vrps.dedup();
        }
        self.hosts = hosts.into_values().collect();
    }

    /// The dossier for one host, if any evidence names it.
    pub fn host(&self, host: &str) -> Option<&HostReport> {
        self.hosts.iter().find(|h| h.host == host)
    }
}

fn classify_modification(
    old_snap: &MonitorSnapshot,
    old_obj: &RpkiObject,
    new_obj: &RpkiObject,
) -> Classification {
    match (old_obj, new_obj) {
        (RpkiObject::Crl(_), RpkiObject::Crl(_))
        | (RpkiObject::Manifest(_), RpkiObject::Manifest(_)) => Classification::RoutineRefresh,
        (RpkiObject::Cert(old_c), RpkiObject::Cert(new_c)) => {
            let old_res = &old_c.data().resources;
            let new_res = &new_c.data().resources;
            if old_res == new_res {
                return Classification::RoutineRefresh;
            }
            let removed: ResourceSet = old_res.difference(new_res);
            if removed.is_empty() {
                // Pure growth.
                return Classification::RoutineRefresh;
            }
            // Which ROAs at the subject's publication point still need
            // the removed space?
            let subject_dir = old_c.data().sia.to_string();
            let mut orphaned = Vec::new();
            if let Some(files) = old_snap.dirs.get(&subject_dir) {
                for obj in files.values() {
                    if let RpkiObject::Roa(roa) = obj {
                        let needs = roa.resources();
                        if needs.overlaps(&removed) {
                            orphaned.push(roa.to_string());
                        }
                    }
                }
            }
            if orphaned.is_empty() {
                Classification::RoutineRefresh
            } else {
                Classification::SuspectedWhack { orphaned }
            }
        }
        _ => Classification::NewIssuance, // type swap under one name: treat as new
    }
}

fn classify_removal(
    _dir: &str,
    old_obj: &RpkiObject,
    new_files: &BTreeMap<String, RpkiObject>,
    revoked: &dyn Fn(u64) -> bool,
) -> Classification {
    match old_obj {
        RpkiObject::Crl(_) | RpkiObject::Manifest(_) => Classification::RoutineRefresh,
        RpkiObject::Roa(roa) => {
            if revoked(roa.serial()) {
                return Classification::RevokedRemoval;
            }
            // Renewal: same content back under a new file name here.
            let key = roa_key(roa);
            let renewed = new_files.values().any(|o| match o {
                RpkiObject::Roa(r) => roa_key(r) == key,
                _ => false,
            });
            if renewed {
                Classification::Renewal
            } else {
                Classification::StealthyRemoval
            }
        }
        RpkiObject::Cert(cert) => {
            if revoked(cert.data().serial) {
                return Classification::RevokedRemoval;
            }
            // Key rollover: a cert for the same subject with the same
            // resources under a different (key-derived) name.
            let renewed = new_files.values().any(|o| match o {
                RpkiObject::Cert(c) => {
                    c.data().subject == cert.data().subject
                        && c.data().resources == cert.data().resources
                }
                _ => false,
            });
            if renewed {
                Classification::Renewal
            } else {
                Classification::StealthyRemoval
            }
        }
    }
}

fn classify_addition(
    dir: &str,
    new_obj: &RpkiObject,
    old_files: &BTreeMap<String, RpkiObject>,
    old_roa_dirs: &BTreeMap<(Asn, Vec<RoaPrefix>), Vec<&String>>,
    new_roa_dirs: &BTreeMap<(Asn, Vec<RoaPrefix>), Vec<&String>>,
    old_snap: &MonitorSnapshot,
) -> Classification {
    match new_obj {
        RpkiObject::Crl(_) | RpkiObject::Manifest(_) => Classification::RoutineRefresh,
        RpkiObject::Roa(roa) => {
            let key = roa_key(roa);
            // Same content previously here → renewal.
            let was_here = old_files.values().any(|o| match o {
                RpkiObject::Roa(r) => roa_key(r) == key,
                _ => false,
            });
            if was_here {
                return Classification::Renewal;
            }
            // Same content living at (or vanished from) another
            // publication point → make-before-break fingerprint.
            let elsewhere_new =
                new_roa_dirs.get(&key).into_iter().flatten().find(|d| d.as_str() != dir);
            let elsewhere_old =
                old_roa_dirs.get(&key).into_iter().flatten().find(|d| d.as_str() != dir);
            if let Some(original) = elsewhere_new.or(elsewhere_old) {
                return Classification::SuspiciousReissue { original_dir: (*original).clone() };
            }
            Classification::NewIssuance
        }
        RpkiObject::Cert(cert) => {
            // A certificate for a subject key that already has a
            // certificate at another publication point: someone is
            // adopting another CA's child (reissue-as-own).
            for (other_dir, files) in &old_snap.dirs {
                if other_dir == dir {
                    continue;
                }
                for obj in files.values() {
                    if let RpkiObject::Cert(c) = obj {
                        if c.data().subject_key == cert.data().subject_key {
                            return Classification::SuspiciousReissue {
                                original_dir: other_dir.clone(),
                            };
                        }
                    }
                }
            }
            Classification::NewIssuance
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipres::Prefix;
    use netsim::Network;
    use rpki_ca::CertAuthority;
    use rpki_objects::{RepoUri, Span};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn rs(s: &str) -> ResourceSet {
        ResourceSet::from_prefix_strs(s)
    }

    struct Rig {
        net: Network,
        repos: RepoRegistry,
        ta: CertAuthority,
        sprint: CertAuthority,
        dir: RepoUri,
    }

    fn rig(seed: &str) -> Rig {
        let mut net = Network::new(0);
        let mut repos = RepoRegistry::new();
        repos.create(&mut net, "rpki.sprint.example");
        repos.create(&mut net, "rpki.ta.example");
        let ta_dir = RepoUri::new("rpki.ta.example", &["repo"]);
        let dir = RepoUri::new("rpki.sprint.example", &["repo"]);
        let mut ta = CertAuthority::new("TA", &format!("{seed}-ta"), ta_dir);
        ta.certify_self(rs("63.0.0.0/8"), Moment(0), Span::days(3650));
        let mut sprint = CertAuthority::new("Sprint", &format!("{seed}-sprint"), dir.clone());
        let rc = ta
            .issue_cert("Sprint", sprint.public_key(), rs("63.160.0.0/12"), dir.clone(), Moment(0))
            .unwrap();
        sprint.install_cert(rc);
        Rig { net, repos, ta, sprint, dir }
    }

    fn publish(rig: &mut Rig, now: Moment) {
        for ca in [&mut rig.ta, &mut rig.sprint] {
            assert!(rig.repos.publish(ca, now));
        }
        let _ = &rig.net;
    }

    #[test]
    fn first_snapshot_is_quiet() {
        let mut rig = rig("m0");
        publish(&mut rig, Moment(1));
        let mut mon = Monitor::new();
        assert!(mon.observe(MonitorSnapshot::capture(&rig.repos, Moment(1))).is_empty());
    }

    #[test]
    fn refresh_is_routine() {
        let mut rig = rig("m1");
        publish(&mut rig, Moment(1));
        let mut mon = Monitor::new();
        mon.observe(MonitorSnapshot::capture(&rig.repos, Moment(1)));
        publish(&mut rig, Moment(2)); // CRL+manifest numbers bump
        let events = mon.observe(MonitorSnapshot::capture(&rig.repos, Moment(2)));
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.classification == Classification::RoutineRefresh));
    }

    #[test]
    fn renewal_is_churn_not_alarm() {
        let mut rig = rig("m2");
        let roa = rig
            .sprint
            .issue_roa(Asn(1239), vec![RoaPrefix::exact(p("63.160.0.0/20"))], Moment(0))
            .unwrap();
        publish(&mut rig, Moment(1));
        let mut mon = Monitor::new();
        mon.observe(MonitorSnapshot::capture(&rig.repos, Moment(1)));
        rig.sprint.renew_roa(&roa.file_name(), Moment(50)).unwrap();
        publish(&mut rig, Moment(51));
        let events = mon.observe(MonitorSnapshot::capture(&rig.repos, Moment(51)));
        assert!(events.iter().any(|e| e.classification == Classification::Renewal));
        assert!(events.iter().all(|e| !e.classification.is_suspicious()), "{events:?}");
    }

    #[test]
    fn stealthy_withdrawal_flagged() {
        let mut rig = rig("m3");
        let roa = rig
            .sprint
            .issue_roa(Asn(1239), vec![RoaPrefix::exact(p("63.160.0.0/20"))], Moment(0))
            .unwrap();
        publish(&mut rig, Moment(1));
        let mut mon = Monitor::new();
        mon.observe(MonitorSnapshot::capture(&rig.repos, Moment(1)));
        rig.sprint.withdraw(&roa.file_name()).unwrap();
        publish(&mut rig, Moment(2));
        let events = mon.observe(MonitorSnapshot::capture(&rig.repos, Moment(2)));
        assert!(events.iter().any(|e| e.classification == Classification::StealthyRemoval));
    }

    #[test]
    fn recorder_counts_verdicts_and_emits_alarms() {
        let mut rig = rig("m3r");
        let roa = rig
            .sprint
            .issue_roa(Asn(1239), vec![RoaPrefix::exact(p("63.160.0.0/20"))], Moment(0))
            .unwrap();
        publish(&mut rig, Moment(1));
        let rec = Recorder::new();
        let mut mon = Monitor::new();
        mon.set_recorder(rec.clone());
        mon.observe(MonitorSnapshot::capture(&rig.repos, Moment(1)));
        rig.sprint.withdraw(&roa.file_name()).unwrap();
        publish(&mut rig, Moment(2));
        let events = mon.observe(MonitorSnapshot::capture(&rig.repos, Moment(2)));
        let suspicious = events.iter().filter(|e| e.classification.is_suspicious()).count();
        assert!(suspicious > 0);
        assert_eq!(rec.metrics().counter("monitor.alarms"), suspicious as u64);
        assert!(rec.metrics().counter("monitor.stealthy_removal") >= 1);
        let alarms: Vec<_> = rec.events().into_iter().filter(|e| e.kind == "alarm").collect();
        assert_eq!(alarms.len(), suspicious);
        assert!(alarms.iter().all(|e| e.layer == "monitor" && e.at == 2));
    }

    #[test]
    fn transparent_revocation_not_stealthy() {
        let mut rig = rig("m4");
        let roa = rig
            .sprint
            .issue_roa(Asn(1239), vec![RoaPrefix::exact(p("63.160.0.0/20"))], Moment(0))
            .unwrap();
        publish(&mut rig, Moment(1));
        let mut mon = Monitor::new();
        mon.observe(MonitorSnapshot::capture(&rig.repos, Moment(1)));
        rig.sprint.revoke_serial(roa.serial());
        publish(&mut rig, Moment(2));
        let events = mon.observe(MonitorSnapshot::capture(&rig.repos, Moment(2)));
        assert!(events.iter().any(|e| e.classification == Classification::RevokedRemoval));
        assert!(events.iter().all(|e| !e.classification.is_suspicious()));
    }

    #[test]
    fn shrinking_cert_with_orphans_is_suspected_whack() {
        let mut rig = rig("m5");
        // Sprint gets a child CA with a ROA, then the TA shrinks
        // Sprint's cert under that ROA's space. (Here the monitor
        // watches the TA's overwrite of Sprint's RC.)
        rig.sprint
            .issue_roa(Asn(1239), vec![RoaPrefix::exact(p("63.160.0.0/20"))], Moment(0))
            .unwrap();
        publish(&mut rig, Moment(1));
        let mut mon = Monitor::new();
        mon.observe(MonitorSnapshot::capture(&rig.repos, Moment(1)));
        // TA carves the ROA's space out of Sprint's cert.
        let carved = rs("63.160.0.0/12").difference(&rs("63.160.0.0/24"));
        rig.ta
            .issue_cert("Sprint", rig.sprint.public_key(), carved, rig.dir.clone(), Moment(2))
            .unwrap();
        publish(&mut rig, Moment(2));
        let events = mon.observe(MonitorSnapshot::capture(&rig.repos, Moment(2)));
        let whack = events
            .iter()
            .find(|e| matches!(e.classification, Classification::SuspectedWhack { .. }));
        let whack = whack.expect("whack flagged");
        match &whack.classification {
            Classification::SuspectedWhack { orphaned } => {
                assert_eq!(orphaned.len(), 1);
                assert!(orphaned[0].contains("63.160.0.0/20"));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn make_before_break_reissue_flagged() {
        let mut rig = rig("m6");
        rig.sprint
            .issue_roa(Asn(1239), vec![RoaPrefix::exact(p("63.160.0.0/20"))], Moment(0))
            .unwrap();
        publish(&mut rig, Moment(1));
        let mut mon = Monitor::new();
        mon.observe(MonitorSnapshot::capture(&rig.repos, Moment(1)));
        // The TA reissues the same authorization as its own ROA (the
        // "make" of make-before-break) at the TA's publication point.
        rig.ta.issue_roa(Asn(1239), vec![RoaPrefix::exact(p("63.160.0.0/20"))], Moment(2)).unwrap();
        publish(&mut rig, Moment(2));
        let events = mon.observe(MonitorSnapshot::capture(&rig.repos, Moment(2)));
        let reissue = events
            .iter()
            .find(|e| matches!(e.classification, Classification::SuspiciousReissue { .. }))
            .expect("reissue flagged");
        match &reissue.classification {
            Classification::SuspiciousReissue { original_dir } => {
                assert_eq!(original_dir, "rsync://rpki.sprint.example/repo");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn misbehavior_report_merges_object_and_transport_evidence() {
        // Object layer: a stealthy withdrawal at Sprint's pub point.
        let mut rig = rig("m8");
        let roa = rig
            .sprint
            .issue_roa(Asn(1239), vec![RoaPrefix::exact(p("63.160.0.0/20"))], Moment(0))
            .unwrap();
        publish(&mut rig, Moment(1));
        let mut mon = Monitor::new();
        mon.observe(MonitorSnapshot::capture(&rig.repos, Moment(1)));
        rig.sprint.withdraw(&roa.file_name()).unwrap();
        publish(&mut rig, Moment(2));
        let events = mon.observe(MonitorSnapshot::capture(&rig.repos, Moment(2)));

        // Transport layer: the relying party detected a pin on the
        // same host and downgraded, plus an unrelated flaky host.
        let rec = Recorder::new();
        rec.event(5, "rp", "rrdp_pinned").str("host", "rpki.sprint.example").emit();
        rec.event(5, "rp", "rrdp_downgrade")
            .str("host", "rpki.sprint.example")
            .str("reason", "pinned")
            .emit();
        rec.event(9, "rp", "rrdp_downgrade")
            .str("host", "rpki.flaky.example")
            .str("reason", "no_notification")
            .emit();
        rec.event(9, "net", "deliver").str("host", "rpki.sprint.example").emit();

        let report = MisbehaviorReport::build(&events, &rec.events());
        assert_eq!(report.hosts.len(), 2, "{report:?}");
        let sprint = report.host("rpki.sprint.example").expect("sprint accused");
        assert_eq!(sprint.pinned_detections, 1);
        assert_eq!(sprint.downgrades, 1);
        assert_eq!(sprint.object_alarms.len(), 1);
        assert_eq!(sprint.object_alarms[0].classification, Classification::StealthyRemoval);
        assert_eq!(sprint.transport[0].kind, "rrdp_pinned");
        assert_eq!(sprint.transport[1].reason.as_deref(), Some("pinned"));
        assert!(sprint.summary_line().starts_with("rpki.sprint.example: 1 object alarm"));
        let flaky = report.host("rpki.flaky.example").expect("flaky listed");
        assert_eq!(flaky.object_alarms.len(), 0);
        assert_eq!(flaky.downgrades, 1);
        // Routine churn and other layers' events accuse nobody.
        assert!(report.host("rpki.ta.example").is_none());
    }

    #[test]
    fn dossier_attaches_validation_rejections_and_unsafe_vrps() {
        use ipres::ResourceSet;
        use rpki_rp::{RejectedCa, Vrp};

        // A transport detection already accuses Sprint; the validation
        // run then adds a rejected CA under the same host plus one
        // under a host the monitor never saw.
        let rec = Recorder::new();
        rec.event(3, "rp", "rrdp_pinned").str("host", "rpki.sprint.example").emit();
        let mut report = MisbehaviorReport::build(&[], &rec.events());

        let mut run = ValidationRun::default();
        run.rejected_cas.push(RejectedCa {
            ca: "Continental".into(),
            dir: "rsync://rpki.sprint.example/repo".into(),
            resources: ResourceSet::from_prefix_strs("63.160.0.0/20"),
        });
        run.rejected_cas.push(RejectedCa {
            ca: "Etb".into(),
            dir: "rsync://rpki.quiet.example/repo".into(),
            resources: ResourceSet::from_prefix_strs("198.51.100.0/24"),
        });
        run.unsafe_vrps.push(Vrp::new(p("63.160.7.0/24"), 24, Asn(17054)));
        report.attach_validation(&run);

        let sprint = report.host("rpki.sprint.example").expect("sprint accused");
        assert_eq!(sprint.pinned_detections, 1, "transport evidence kept");
        assert_eq!(sprint.rejected_cas.len(), 1);
        assert!(sprint.rejected_cas[0].starts_with("Continental ("), "{:?}", sprint.rejected_cas);
        // The unsafe VRP overlaps Sprint's rejected space, not Etb's.
        assert_eq!(sprint.unsafe_vrps.len(), 1);
        let quiet = report.host("rpki.quiet.example").expect("validation-only host added");
        assert_eq!(quiet.rejected_cas.len(), 1);
        assert!(quiet.unsafe_vrps.is_empty());
        assert!(sprint.summary_line().contains("1 rejected CA(s), 1 unsafe VRP(s)"));
    }

    #[test]
    fn fresh_issuance_is_not_suspicious() {
        let mut rig = rig("m7");
        publish(&mut rig, Moment(1));
        let mut mon = Monitor::new();
        mon.observe(MonitorSnapshot::capture(&rig.repos, Moment(1)));
        rig.sprint
            .issue_roa(Asn(1239), vec![RoaPrefix::exact(p("63.161.0.0/20"))], Moment(2))
            .unwrap();
        publish(&mut rig, Moment(2));
        let events = mon.observe(MonitorSnapshot::capture(&rig.repos, Moment(2)));
        assert!(events.iter().any(|e| e.classification == Classification::NewIssuance));
        assert!(events.iter().all(|e| !e.classification.is_suspicious()));
    }
}
