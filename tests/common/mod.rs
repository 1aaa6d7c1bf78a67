//! The mutation vocabulary the differential harness and the walk pins
//! share: authority- and repository-side mutations against a
//! [`World`]. Not every test draws every item.

#![allow(dead_code)]

use ipres::Asn;
use rpki_objects::{Moment, RoaPrefix};
use rpki_risk::World;

/// One authority- or repository-side mutation against a world. Every
/// variant names the CA index it targets; the repository-side ones act
/// at the host the CA's SIA names.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// Renew the CA's first ROA: fresh file name, EE key, and serial,
    /// same VRP content (the steady-state no-semantic-change churn).
    Renew(usize),
    /// Issue a new ROA in the CA's own /24 (a real announce).
    Add(usize, u8),
    /// Withdraw the CA's most recently issued extra ROA, if any.
    Withdraw(usize),
    /// Revoke the CA's first child certificate via its CRL.
    Revoke(usize),
    /// Delete one file at rest without republishing (a whack: the
    /// manifest now references content the directory no longer has).
    Takedown(usize),
    /// Flip a byte of one stored file at rest (filesystem rot).
    Corrupt(usize),
}

pub fn apply(w: &mut World, op: Op, now: Moment) {
    match op {
        Op::Renew(ca) => {
            let file =
                w.cas[ca].issued_roas().next().expect("every CA keeps its first ROA").file_name();
            w.cas[ca].renew_roa(&file, now).expect("renewable");
            w.publish(ca, now);
        }
        Op::Add(ca, slot) => {
            let prefix = format!("10.0.{ca}.{}/32", 100 + usize::from(slot));
            w.cas[ca]
                .issue_roa(
                    Asn(64_000 + ca as u32),
                    vec![RoaPrefix::exact(prefix.parse().expect("literal"))],
                    now,
                )
                .expect("inside the CA's own /24");
            w.publish(ca, now);
        }
        Op::Withdraw(ca) => {
            // Keep the first ROA so Renew always has a target.
            let extra: Option<String> =
                w.cas[ca].issued_roas().skip(1).last().map(|r| r.file_name());
            if let Some(file) = extra {
                w.cas[ca].withdraw(&file).expect("present");
                w.publish(ca, now);
            }
        }
        Op::Revoke(ca) => {
            let serial = w.cas[ca].issued_certs().next().map(|c| c.data().serial);
            if let Some(serial) = serial {
                w.cas[ca].revoke_serial(serial);
                w.publish(ca, now);
            }
        }
        Op::Takedown(ca) => {
            let dir = w.cas[ca].sia().clone();
            let repo = w.repos.by_host_mut(dir.host()).expect("exists");
            if let Some((name, _)) = repo.list(&dir).first().cloned() {
                repo.delete(&dir, &name);
            }
        }
        Op::Corrupt(ca) => {
            let dir = w.cas[ca].sia().clone();
            let repo = w.repos.by_host_mut(dir.host()).expect("exists");
            if let Some((name, _)) = repo.list(&dir).last().cloned() {
                repo.corrupt_at_rest(&dir, &name);
            }
        }
    }
}
