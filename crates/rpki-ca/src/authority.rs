//! The certification authority state machine.

use std::collections::BTreeMap;

use ipres::{Asn, AsnSet, ResourceSet};
use rpki_objects::{
    CertData, Crl, CrlData, Encode, Manifest, ManifestData, Moment, RepoUri, ResourceCert, Roa,
    RoaData, RoaPrefix, RpkiObject, Span, Validity,
};
use rpkisim_crypto::{KeyId, KeyPair, PublicKey};
use serde::Serialize;

use crate::errors::IssueError;

/// Everything a CA currently serves at its publication point: issued
/// child certificates, issued ROAs, the current CRL, and the manifest
/// committing to all of them.
#[derive(Debug, Clone)]
pub struct PublicationSnapshot {
    /// `(file name, object)` pairs, manifest last.
    pub files: Vec<(String, RpkiObject)>,
}

impl PublicationSnapshot {
    /// Looks up an object by file name.
    pub fn get(&self, name: &str) -> Option<&RpkiObject> {
        self.files.iter().find(|(n, _)| n == name).map(|(_, o)| o)
    }

    /// The snapshot's manifest.
    pub fn manifest(&self) -> Option<&Manifest> {
        self.files.iter().rev().find_map(|(_, o)| match o {
            RpkiObject::Manifest(m) => Some(m),
            _ => None,
        })
    }
}

/// Result of an RFC 6489 key rollover.
#[derive(Debug)]
pub struct RolloverReport {
    /// The CA's previous key id (now retired).
    pub old_key: KeyId,
    /// The CA's new public key. The parent must issue a new certificate
    /// for it before the CA can publish again.
    pub new_key: PublicKey,
    /// How many issued objects were re-signed under the new key.
    pub resigned_objects: usize,
}

/// A certification authority.
///
/// Construction gives an un-certified CA (it has a key but no
/// resources). A trust anchor certifies itself via
/// [`CertAuthority::certify_self`]; everyone else receives a certificate
/// from a parent CA's [`CertAuthority::issue_cert`] and installs it with
/// [`CertAuthority::install_cert`].
pub struct CertAuthority {
    handle: String,
    key: KeyPair,
    /// The RC our parent issued to us (self-signed for a TA).
    cert: Option<ResourceCert>,
    /// Our publication directory (where objects *we issue* live).
    sia: RepoUri,
    next_serial: u64,
    crl_number: u64,
    manifest_number: u64,
    /// Child RCs we issued, keyed by subject key (file-name identity).
    issued_certs: BTreeMap<KeyId, ResourceCert>,
    /// ROAs we issued, keyed by file name.
    issued_roas: BTreeMap<String, Roa>,
    /// Serials revoked via CRL (the transparent path).
    revoked: Vec<u64>,
    /// Default lifetime for issued objects.
    default_lifetime: Span,
    /// CRL/manifest refresh interval.
    refresh: Span,
    /// Counter for deterministic one-time EE key seeds.
    ee_counter: u64,
}

impl CertAuthority {
    /// A new, un-certified CA with a deterministic key derived from
    /// `key_seed`.
    pub fn new(handle: &str, key_seed: &str, sia: RepoUri) -> Self {
        CertAuthority {
            handle: handle.to_owned(),
            key: KeyPair::from_seed(key_seed),
            cert: None,
            sia,
            next_serial: 1,
            crl_number: 0,
            manifest_number: 0,
            issued_certs: BTreeMap::new(),
            issued_roas: BTreeMap::new(),
            revoked: Vec::new(),
            default_lifetime: Span::days(365),
            refresh: Span::days(1),
            ee_counter: 0,
        }
    }

    /// Makes this CA a trust anchor over `resources`, self-signing its
    /// certificate.
    pub fn certify_self(&mut self, resources: ResourceSet, now: Moment, lifetime: Span) {
        let data = CertData {
            serial: self.bump_serial(),
            subject: self.handle.clone(),
            subject_key: self.key.public(),
            resources,
            as_resources: AsnSet::empty(),
            validity: Validity::starting(now, lifetime),
            issuer_key: self.key.id(),
            sia: self.sia.clone(),
            crl_dp: None,
        };
        self.cert = Some(ResourceCert::sign(data, &self.key));
    }

    /// The CA's handle (reporting only).
    pub fn handle(&self) -> &str {
        &self.handle
    }

    /// The CA's current public key.
    pub fn public_key(&self) -> PublicKey {
        self.key.public()
    }

    /// The CA's key id.
    pub fn key_id(&self) -> KeyId {
        self.key.id()
    }

    /// The CA's publication directory.
    pub fn sia(&self) -> &RepoUri {
        &self.sia
    }

    /// The certificate this CA currently holds, if any.
    pub fn cert(&self) -> Option<&ResourceCert> {
        self.cert.as_ref()
    }

    /// The resources this CA may allocate (empty if uncertified).
    pub fn resources(&self) -> ResourceSet {
        self.cert.as_ref().map(|c| c.data().resources.clone()).unwrap_or_default()
    }

    /// Where this CA publishes its CRL.
    pub fn crl_uri(&self) -> RepoUri {
        self.sia.join(&format!("{}.crl", self.key.id().short()))
    }

    /// Sets the lifetime of subsequently issued certificates and ROAs
    /// (default 365 days; always clamped to this CA's own window).
    pub fn set_default_lifetime(&mut self, lifetime: Span) {
        self.default_lifetime = lifetime;
    }

    /// Sets the CRL/manifest refresh interval — how long published
    /// CRLs and manifests stay fresh before relying parties treat them
    /// as stale (default 1 day). Short intervals are one of the paper's
    /// operational hazards: miss one refresh and Side Effect 6 fires.
    pub fn set_refresh_interval(&mut self, refresh: Span) {
        self.refresh = refresh;
    }

    /// Installs a certificate received from the parent. Replaces any
    /// previous one (renewal, rollover, or a parent's overwrite).
    pub fn install_cert(&mut self, cert: ResourceCert) {
        assert_eq!(
            cert.data().subject_key.id(),
            self.key.id(),
            "installed certificate is for a different key"
        );
        self.cert = Some(cert);
    }

    fn bump_serial(&mut self) -> u64 {
        let s = self.next_serial;
        self.next_serial += 1;
        s
    }

    fn require_cert(&self) -> Result<&ResourceCert, IssueError> {
        self.cert.as_ref().ok_or(IssueError::NoCertificate)
    }

    fn check_resources(&self, wanted: &ResourceSet) -> Result<(), IssueError> {
        let held = self.resources();
        if held.contains_set(wanted) {
            Ok(())
        } else {
            Err(IssueError::ResourcesNotHeld { excess: wanted.difference(&held) })
        }
    }

    /// The validity window for a newly issued object: `default_lifetime`
    /// from `now`, clamped to this CA's own certificate window (an
    /// issued object must not outlive its issuer). Errors if `now` falls
    /// outside the CA's own validity entirely.
    fn child_validity(&self, now: Moment) -> Result<Validity, IssueError> {
        let own = self.require_cert()?.data().validity;
        if !own.contains(now) {
            return Err(IssueError::ValidityOutlivesIssuer);
        }
        let end = (now + self.default_lifetime).min(own.not_after);
        Ok(Validity::new(now, end))
    }

    /// Issues (or reissues) a child resource certificate.
    ///
    /// If this CA already issued a certificate for `subject_key`, the
    /// new one **overwrites** it (same file name, per RFC 6487 naming) —
    /// the primitive behind targeted whacking. The overwritten
    /// certificate's serial is *not* revoked: overwriting is the
    /// non-transparent path (Side Effect 2). Call
    /// [`CertAuthority::revoke_serial`] as well for the transparent
    /// path.
    pub fn issue_cert(
        &mut self,
        subject_handle: &str,
        subject_key: PublicKey,
        resources: ResourceSet,
        subject_sia: RepoUri,
        now: Moment,
    ) -> Result<ResourceCert, IssueError> {
        let validity = self.child_validity(now)?;
        self.check_resources(&resources)?;
        let data = CertData {
            serial: self.bump_serial(),
            subject: subject_handle.to_owned(),
            subject_key,
            resources,
            as_resources: AsnSet::empty(),
            validity,
            issuer_key: self.key.id(),
            sia: subject_sia,
            crl_dp: Some(self.crl_uri()),
        };
        let cert = ResourceCert::sign(data, &self.key);
        self.issued_certs.insert(subject_key.id(), cert.clone());
        Ok(cert)
    }

    /// Issues a ROA authorising `asn` to originate `prefixes`.
    ///
    /// A fresh one-time EE key is derived deterministically from this
    /// CA's key seed and an internal counter.
    pub fn issue_roa(
        &mut self,
        asn: Asn,
        prefixes: Vec<RoaPrefix>,
        now: Moment,
    ) -> Result<Roa, IssueError> {
        let validity = self.child_validity(now)?;
        let resources = ResourceSet::from_prefixes(prefixes.iter().map(|rp| rp.prefix));
        self.check_resources(&resources)?;
        let ee_seed = format!("{}-ee-{}", self.handle, self.ee_counter);
        self.ee_counter += 1;
        let ee_key = KeyPair::from_seed(&ee_seed);
        let serial = self.bump_serial();
        let roa = Roa::issue(RoaData { asn, prefixes }, serial, validity, &self.key, &ee_key);
        self.issued_roas.insert(roa.file_name(), roa.clone());
        Ok(roa)
    }

    /// Renews an issued ROA: same content, fresh validity and EE key.
    /// The old ROA's file disappears from the publication point and the
    /// new one appears — normal churn the monitor must not flag.
    pub fn renew_roa(&mut self, file_name: &str, now: Moment) -> Result<Roa, IssueError> {
        let old = self
            .issued_roas
            .remove(file_name)
            .ok_or_else(|| IssueError::NoSuchObject(file_name.to_owned()))?;
        self.issue_roa(old.data().asn, old.data().prefixes.clone(), now)
    }

    /// Revokes a serial via the CRL — the transparent, auditable path
    /// (Side Effect 1). Also drops any issued object carrying that
    /// serial from the publication set.
    pub fn revoke_serial(&mut self, serial: u64) {
        if !self.revoked.contains(&serial) {
            self.revoked.push(serial);
        }
        self.issued_certs.retain(|_, c| c.data().serial != serial);
        self.issued_roas.retain(|_, r| r.serial() != serial);
    }

    /// **Stealthy revocation** (Side Effect 2): silently removes an
    /// issued object from the publication set without any CRL entry.
    /// From a relying party's perspective the object is simply missing
    /// at the next sync; distinguishing this from churn is the
    /// monitoring problem the paper poses.
    pub fn withdraw(&mut self, file_name: &str) -> Result<RpkiObject, IssueError> {
        if let Some(roa) = self.issued_roas.remove(file_name) {
            return Ok(RpkiObject::Roa(roa));
        }
        let key =
            self.issued_certs.iter().find(|(_, c)| c.file_name() == file_name).map(|(k, _)| *k);
        if let Some(k) = key {
            let cert = self.issued_certs.remove(&k).expect("key just found");
            return Ok(RpkiObject::Cert(cert));
        }
        Err(IssueError::NoSuchObject(file_name.to_owned()))
    }

    /// The child certificate currently issued for `subject_key`, if any.
    pub fn issued_cert_for(&self, subject_key: KeyId) -> Option<&ResourceCert> {
        self.issued_certs.get(&subject_key)
    }

    /// All currently issued child certificates.
    pub fn issued_certs(&self) -> impl Iterator<Item = &ResourceCert> {
        self.issued_certs.values()
    }

    /// All currently issued ROAs.
    pub fn issued_roas(&self) -> impl Iterator<Item = &Roa> {
        self.issued_roas.values()
    }

    /// Issued ROAs whose validity ends within `horizon` of `now` (a
    /// notAfter not past `now + horizon`) — the renewal worklist.
    /// Delayed renewal is one of the paper's missing-ROA triggers (Side
    /// Effect 6).
    pub fn expiring_roas(&self, now: Moment, horizon: Span) -> Vec<&Roa> {
        let end = now + horizon;
        self.issued_roas.values().filter(|r| !r.validity().not_after.is_past(end)).collect()
    }

    /// Generates the current CRL.
    pub fn generate_crl(&mut self, now: Moment) -> Crl {
        self.crl_number += 1;
        Crl::sign(
            CrlData {
                issuer_key: self.key.id(),
                number: self.crl_number,
                this_update: now,
                next_update: now + self.refresh,
                revoked: self.revoked.clone(),
            },
            &self.key,
        )
    }

    /// Produces the complete publication snapshot: issued certs and
    /// ROAs, a fresh CRL, and a manifest committing to all their bytes.
    pub fn publication_snapshot(&mut self, now: Moment) -> PublicationSnapshot {
        let mut files: Vec<(String, RpkiObject)> = Vec::new();
        for cert in self.issued_certs.values() {
            files.push((cert.file_name(), RpkiObject::Cert(cert.clone())));
        }
        for roa in self.issued_roas.values() {
            files.push((roa.file_name(), RpkiObject::Roa(roa.clone())));
        }
        let crl = self.generate_crl(now);
        files.push((crl.file_name(), RpkiObject::Crl(crl)));

        self.manifest_number += 1;
        let entries =
            files.iter().map(|(name, obj)| Manifest::entry_for(name, &obj.to_bytes())).collect();
        let manifest = Manifest::sign(
            ManifestData {
                issuer_key: self.key.id(),
                number: self.manifest_number,
                this_update: now,
                next_update: now + self.refresh,
                entries,
            },
            &self.key,
        );
        files.push((manifest.file_name(), RpkiObject::Manifest(manifest)));
        PublicationSnapshot { files }
    }

    /// RFC 6489 key rollover: adopts a new key and re-signs every issued
    /// object under it. Returns the new public key; the *parent* must
    /// certify it (and the old certificate becomes garbage) before
    /// relying parties will accept the re-signed objects.
    pub fn roll_key(&mut self, new_key_seed: &str, now: Moment) -> RolloverReport {
        let old_key = self.key.id();
        self.key = KeyPair::from_seed(new_key_seed);
        self.cert = None; // parent must re-certify
        let mut resigned = 0;

        let old_certs: Vec<ResourceCert> = self.issued_certs.values().cloned().collect();
        self.issued_certs.clear();
        for c in old_certs {
            let data = CertData {
                serial: self.bump_serial(),
                issuer_key: self.key.id(),
                crl_dp: Some(self.crl_uri()),
                ..c.data().clone()
            };
            let cert = ResourceCert::sign(data, &self.key);
            self.issued_certs.insert(cert.subject_key_id(), cert);
            resigned += 1;
        }

        let old_roas: Vec<Roa> = self.issued_roas.values().cloned().collect();
        self.issued_roas.clear();
        for r in old_roas {
            let ee_seed = format!("{}-ee-{}", self.handle, self.ee_counter);
            self.ee_counter += 1;
            let ee_key = KeyPair::from_seed(&ee_seed);
            let serial = self.bump_serial();
            let roa = Roa::issue(r.data().clone(), serial, r.validity(), &self.key, &ee_key);
            self.issued_roas.insert(roa.file_name(), roa);
            resigned += 1;
        }
        let _ = now; // reserved: staged rollover would keep both keys until `now + grace`
        RolloverReport { old_key, new_key: self.key.public(), resigned_objects: resigned }
    }

    /// Hands out the private key. This is the "compromised / coerced
    /// authority" capability transfer — the flipped threat model in one
    /// method. Misbehaviour experiments use the returned reference to
    /// drive this same engine.
    pub fn key_for_attack(&self) -> &KeyPair {
        &self.key
    }
}

impl std::fmt::Debug for CertAuthority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CertAuthority")
            .field("handle", &self.handle)
            .field("key", &self.key.id())
            .field("certified", &self.cert.is_some())
            .field("issued_certs", &self.issued_certs.len())
            .field("issued_roas", &self.issued_roas.len())
            .finish()
    }
}

/// Serialisable summary of a CA, for experiment output.
#[derive(Debug, Clone, Serialize)]
pub struct AuthoritySummary {
    /// The CA's handle.
    pub handle: String,
    /// Its resources, as prefix strings.
    pub resources: Vec<String>,
    /// Number of issued child certificates.
    pub issued_certs: usize,
    /// Number of issued ROAs.
    pub issued_roas: usize,
}

impl From<&CertAuthority> for AuthoritySummary {
    fn from(ca: &CertAuthority) -> Self {
        AuthoritySummary {
            handle: ca.handle().to_owned(),
            resources: ca.resources().to_prefixes().iter().map(|p| p.to_string()).collect(),
            issued_certs: ca.issued_certs.len(),
            issued_roas: ca.issued_roas.len(),
        }
    }
}
