//! The CA churn engine: realistic, seeded object churn.
//!
//! Production repositories are never quiet. CAs re-sign their object
//! sets on a cadence, manifests and CRLs refresh on their own clocks,
//! and operators add and withdraw ROAs continuously — RIR-scale
//! publication points advance their RRDP serial many times per hour
//! with no attack in sight. Every earlier PR drove repository writes as
//! a *side effect* of campaign faults; this module makes background
//! churn a first-class seeded workload, so the publication-server
//! policies in `rpki-repo::pubd` can be measured under the load they
//! were designed for.
//!
//! The engine is deterministic end to end: every decision derives from
//! a SplitMix64 chain keyed on `(seed, step, CA index)`, so two engines
//! built with the same seed drive two worlds through byte-identical
//! schedules — the property the compaction/retention equivalence
//! proptest leans on. The engine itself never touches a repository; it
//! mutates [`CertAuthority`] state and reports which authorities
//! changed, and the caller republishes those snapshots (layering:
//! `rpki-ca` cannot depend on `rpki-repo`).

use std::collections::BTreeMap;

use ipres::Asn;
use rpki_objects::{Moment, RoaPrefix};
use rpkisim_crypto::splitmix64;
use serde::Serialize;

use crate::authority::CertAuthority;

/// Per-step churn rates and cadences, applied independently to every
/// CA the engine drives. Rates are per-mille (probability in 1/1000)
/// per CA per step; cadences are in steps, `0` disabling the behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ChurnConfig {
    /// Per-mille chance a CA renews one existing ROA this step (same
    /// content, fresh validity and EE key — the old file disappears,
    /// a new one appears).
    pub renew_per_mille: u32,
    /// Per-mille chance a CA mints one additional ROA this step.
    pub add_per_mille: u32,
    /// Per-mille chance a CA withdraws one engine-minted ROA this step
    /// (only objects the engine added are withdrawn, so a scenario's
    /// hand-built truth assertions stay stable).
    pub withdraw_per_mille: u32,
    /// Re-publish (fresh manifest + CRL) every this many steps even if
    /// no object changed — the manifest/CRL refresh clock. `0` never.
    pub refresh_every: u64,
    /// Renew *every* issued ROA every this many steps — the bulk
    /// re-sign cadence. Staggered per CA so the whole world does not
    /// re-sign on the same step. `0` never.
    pub resign_every: u64,
}

impl ChurnConfig {
    /// A steady production-like mix: occasional renewals, slow
    /// add/withdraw drift, a manifest refresh clock, and a long
    /// re-sign cadence.
    pub fn steady() -> Self {
        ChurnConfig {
            renew_per_mille: 100,
            add_per_mille: 30,
            withdraw_per_mille: 20,
            refresh_every: 8,
            resign_every: 64,
        }
    }

    /// Renewals only, at `per_mille` per CA per step: object contents
    /// never change set-shape, so the client-observed VRP set is
    /// invariant. The campaign-safe preset.
    pub fn renew_only(per_mille: u32) -> Self {
        ChurnConfig {
            renew_per_mille: per_mille,
            add_per_mille: 0,
            withdraw_per_mille: 0,
            refresh_every: 0,
            resign_every: 0,
        }
    }

    /// The rate benches call "`pct`% churn": every step, `pct`% of CAs
    /// renew one ROA. Saturates at 100%.
    pub fn renew_rate_pct(pct: u32) -> Self {
        ChurnConfig::renew_only(pct.min(100) * 10)
    }
}

/// What one [`ChurnEngine::step_with`] call did.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct ChurnReport {
    /// The step number this report describes (0-based).
    pub step: u64,
    /// Indices (iteration order) of the CAs whose publication snapshot
    /// changed — the set the caller must republish.
    pub touched: Vec<usize>,
    /// Individual ROAs renewed (excluding bulk re-signs).
    pub renewed: u64,
    /// ROAs minted.
    pub added: u64,
    /// Engine-minted ROAs withdrawn.
    pub withdrawn: u64,
    /// CAs republished purely for the manifest/CRL refresh clock.
    pub refreshed: u64,
    /// CAs that bulk re-signed their whole ROA set.
    pub resigned: u64,
}

impl ChurnReport {
    /// Total object-level operations this step.
    pub fn operations(&self) -> u64 {
        self.renewed + self.added + self.withdrawn + self.resigned
    }
}

/// A deterministic churn-decision draw: one u64 per
/// `(seed, step, CA, salt)` tuple.
fn draw(seed: u64, step: u64, ca: usize, salt: u64) -> u64 {
    splitmix64(seed ^ splitmix64(step ^ splitmix64(((ca as u64) << 8) | salt)))
}

/// The seeded churn driver. Holds no references to the CAs it drives:
/// each [`step_with`](ChurnEngine::step_with) call borrows them afresh
/// as an iterator of `&mut CertAuthority`, so the engine drives a
/// world's CA vector without owning it.
#[derive(Debug, Clone)]
pub struct ChurnEngine {
    seed: u64,
    cfg: ChurnConfig,
    step: u64,
    /// `CA index → files this engine minted there` (withdraw candidates).
    minted: BTreeMap<usize, Vec<String>>,
    /// Monotone counter decorrelating successive mints.
    minted_counter: u64,
}

impl ChurnEngine {
    /// An engine at step 0.
    pub fn new(seed: u64, cfg: ChurnConfig) -> Self {
        ChurnEngine { seed, cfg, step: 0, minted: BTreeMap::new(), minted_counter: 0 }
    }

    /// The configured rates.
    pub fn config(&self) -> ChurnConfig {
        self.cfg
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Advances one step over the given authorities (iteration order is
    /// the CA index the schedule is keyed on), applying the configured
    /// mixes, and reports which CAs changed. The caller republishes the
    /// touched CAs' publication snapshots.
    pub fn step_with<'a, I>(&mut self, cas: I, now: Moment) -> ChurnReport
    where
        I: IntoIterator<Item = &'a mut CertAuthority>,
    {
        let step = self.step;
        self.step += 1;
        let mut report = ChurnReport { step, ..ChurnReport::default() };
        for (idx, ca) in cas.into_iter().enumerate() {
            let mut touched = false;

            if self.cfg.resign_every > 0
                && (step + idx as u64).is_multiple_of(self.cfg.resign_every)
            {
                let files: Vec<String> = ca.issued_roas().map(|r| r.file_name()).collect();
                for file in files {
                    let renewed =
                        ca.renew_roa(&file, now).expect("renewing an issued ROA cannot fail");
                    self.rename_minted(idx, &file, renewed.file_name());
                }
                report.resigned += 1;
                touched = true;
            } else if draw(self.seed, step, idx, 1) % 1000 < u64::from(self.cfg.renew_per_mille) {
                let files: Vec<String> = ca.issued_roas().map(|r| r.file_name()).collect();
                if !files.is_empty() {
                    let pick = draw(self.seed, step, idx, 2) as usize % files.len();
                    let file = &files[pick];
                    let renewed =
                        ca.renew_roa(file, now).expect("renewing an issued ROA cannot fail");
                    self.rename_minted(idx, file, renewed.file_name());
                    report.renewed += 1;
                    touched = true;
                }
            }

            if draw(self.seed, step, idx, 3) % 1000 < u64::from(self.cfg.add_per_mille) {
                if let Some(prefix) = self.mint_prefix(ca, idx) {
                    let asn = Asn(3_000_000_000 + idx as u32);
                    let roa = ca
                        .issue_roa(asn, vec![RoaPrefix::exact(prefix)], now)
                        .expect("minting inside the CA's own resources cannot fail");
                    self.minted.entry(idx).or_default().push(roa.file_name());
                    report.added += 1;
                    touched = true;
                }
            }

            if draw(self.seed, step, idx, 4) % 1000 < u64::from(self.cfg.withdraw_per_mille) {
                if let Some(files) = self.minted.get_mut(&idx) {
                    if let Some(file) = files.pop() {
                        ca.withdraw(&file).expect("engine-minted file must exist");
                        report.withdrawn += 1;
                        touched = true;
                    }
                }
            }

            if !touched
                && self.cfg.refresh_every > 0
                && (step + idx as u64).is_multiple_of(self.cfg.refresh_every)
            {
                // No object changed, but the refresh clock fired: the
                // caller's republish mints a fresh manifest and CRL —
                // exactly the delta a production refresh produces.
                report.refreshed += 1;
                touched = true;
            }

            if touched {
                report.touched.push(idx);
            }
        }
        report
    }

    /// Picks a deterministic subprefix of the CA's first resource block
    /// to mint a ROA for. Drawn from the upper half of an up-to-8-bit
    /// expansion so engine mints stay clear of the low-offset addresses
    /// fixtures hand out. `None` if the CA holds no prefixes.
    fn mint_prefix(&mut self, ca: &CertAuthority, idx: usize) -> Option<ipres::Prefix> {
        let base = *ca.resources().to_prefixes().first()?;
        let extra = (32u8.saturating_sub(base.len())).min(8);
        let len = base.len() + extra;
        let slots = 1u64 << extra;
        let half = (slots / 2).max(1);
        let offset = (half + (self.minted_counter ^ draw(self.seed, 0, idx, 5)) % half) % slots;
        self.minted_counter += 1;
        base.subprefixes(len).nth(offset as usize)
    }

    /// Keeps the withdraw-candidate list pointing at the renamed file a
    /// renewal produced.
    fn rename_minted(&mut self, idx: usize, old: &str, new: String) {
        if let Some(files) = self.minted.get_mut(&idx) {
            if let Some(slot) = files.iter_mut().find(|f| *f == old) {
                *slot = new;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipres::ResourceSet;
    use rpki_objects::{RepoUri, Span};

    fn ca(idx: usize) -> CertAuthority {
        let name = format!("ca{idx}");
        let sia = RepoUri::new("rpki.test.example", &["repo", &name]);
        let mut ca =
            CertAuthority::new(&format!("churn-ca-{idx}"), &format!("churn-key-{idx}"), sia);
        let resources: ResourceSet =
            format!("10.{idx}.0.0/24").parse::<ipres::Prefix>().unwrap().into();
        ca.certify_self(resources, Moment(0), Span::days(3650));
        for j in 0..3u8 {
            let prefix: ipres::Prefix = format!("10.{idx}.0.{j}/32").parse().unwrap();
            ca.issue_roa(Asn(65000 + idx as u32), vec![RoaPrefix::exact(prefix)], Moment(0))
                .unwrap();
        }
        ca
    }

    #[test]
    fn identical_seeds_drive_identical_schedules() {
        let mut a = [ca(0), ca(1), ca(2)];
        let mut b = [ca(0), ca(1), ca(2)];
        let mut ea = ChurnEngine::new(7, ChurnConfig::steady());
        let mut eb = ChurnEngine::new(7, ChurnConfig::steady());
        for step in 0..24 {
            let now = Moment(step * 86_400);
            let ra = ea.step_with(a.iter_mut(), now);
            let rb = eb.step_with(b.iter_mut(), now);
            assert_eq!(ra, rb, "same seed, same schedule");
        }
        for (x, y) in a.iter_mut().zip(b.iter_mut()) {
            let now = Moment(99 * 86_400);
            assert_eq!(
                x.publication_snapshot(now)
                    .files
                    .iter()
                    .map(|(n, _)| n.clone())
                    .collect::<Vec<_>>(),
                y.publication_snapshot(now)
                    .files
                    .iter()
                    .map(|(n, _)| n.clone())
                    .collect::<Vec<_>>(),
                "identically churned CAs publish identical file sets"
            );
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = [ca(0), ca(1), ca(2), ca(3)];
        let mut b = [ca(0), ca(1), ca(2), ca(3)];
        let mut ea = ChurnEngine::new(1, ChurnConfig::steady());
        let mut eb = ChurnEngine::new(2, ChurnConfig::steady());
        let mut diverged = false;
        for step in 0..16 {
            let now = Moment(step * 86_400);
            if ea.step_with(a.iter_mut(), now) != eb.step_with(b.iter_mut(), now) {
                diverged = true;
            }
        }
        assert!(diverged, "distinct seeds must produce distinct schedules");
    }

    #[test]
    fn renew_only_preserves_the_roa_population() {
        let mut cas = [ca(0), ca(1)];
        let before: Vec<usize> = cas.iter().map(|c| c.issued_roas().count()).collect();
        let mut engine = ChurnEngine::new(3, ChurnConfig::renew_only(1000));
        for step in 0..12 {
            let report = engine.step_with(cas.iter_mut(), Moment(step * 86_400));
            assert_eq!(report.added, 0);
            assert_eq!(report.withdrawn, 0);
            assert_eq!(report.renewed, 2, "per-mille 1000 renews every CA every step");
        }
        let after: Vec<usize> = cas.iter().map(|c| c.issued_roas().count()).collect();
        assert_eq!(before, after, "renewals must not change the population");
    }

    #[test]
    fn withdraw_only_claims_engine_minted_objects() {
        let mut cas = [ca(0)];
        let fixture_files: Vec<String> = cas[0].issued_roas().map(|r| r.file_name()).collect();
        let cfg = ChurnConfig {
            renew_per_mille: 0,
            add_per_mille: 1000,
            withdraw_per_mille: 1000,
            refresh_every: 0,
            resign_every: 0,
        };
        let mut engine = ChurnEngine::new(5, cfg);
        let mut added = 0u64;
        let mut withdrawn = 0u64;
        for step in 0..10 {
            let report = engine.step_with(cas.iter_mut(), Moment(step * 86_400));
            added += report.added;
            withdrawn += report.withdrawn;
        }
        assert!(added > 0);
        assert!(withdrawn > 0);
        for file in &fixture_files {
            assert!(
                cas[0].issued_roas().any(|r| r.file_name() == *file),
                "fixture object {file} must survive engine withdrawals"
            );
        }
    }

    #[test]
    fn resign_cadence_renews_the_full_set() {
        let mut cas = [ca(0)];
        let cfg = ChurnConfig {
            renew_per_mille: 0,
            add_per_mille: 0,
            withdraw_per_mille: 0,
            refresh_every: 0,
            resign_every: 4,
        };
        let mut engine = ChurnEngine::new(9, cfg);
        let before: Vec<String> = cas[0].issued_roas().map(|r| r.file_name()).collect();
        // Step 0: (0 + 0) % 4 == 0 — the single CA re-signs.
        let report = engine.step_with(cas.iter_mut(), Moment(86_400));
        assert_eq!(report.resigned, 1);
        let after: Vec<String> = cas[0].issued_roas().map(|r| r.file_name()).collect();
        assert_eq!(before.len(), after.len());
        for file in &before {
            assert!(!after.contains(file), "every file must be re-signed under a fresh EE key");
        }
    }
}
