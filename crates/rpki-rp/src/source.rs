//! Object retrieval abstractions.
//!
//! The validator doesn't care *how* bytes arrive — only which bytes do.
//! [`ObjectSource`] captures that: given a publication-point directory,
//! return whatever a sync produced. Five implementations:
//!
//! - [`NetworkSource`] — real simulated retrieval over `netsim`,
//!   subject to partitions, loss, corruption, and the BGP reachability
//!   oracle. This is the one experiments use. Optionally retries under
//!   [`SyncPolicy::default`].
//! - [`DirectSource`] — reads repository state directly (a "perfect
//!   network"), isolating validation logic from transport effects.
//! - [`RrdpSource`](crate::RrdpSource) — RRDP-preferring retrieval over
//!   `netsim`, with rsync fallback (see [`crate::rrdp`]).
//! - [`ResilientSource`] — wraps any other source with last-good
//!   snapshot fallback and per-repository circuit breaking (see
//!   [`crate::resilience`]).
//! - [`ScheduledSource`](crate::ScheduledSource) — wraps any other
//!   source and lets only due publication points reach it (see
//!   [`crate::scheduler`]).

use std::collections::BTreeMap;

use netsim::{Network, NodeId};
use rpki_objects::RepoUri;
use rpki_repo::{
    doubled, sync_dir, sync_dir_with_policy, DirProbe, Freshness, RepoRegistry, SyncOutcome,
    SyncPolicy,
};
use rpkisim_crypto::Digest;

pub use crate::resilience::ResilientSource;

/// A publication point's last complete fetch: its files, their content
/// digest, and when a contact last confirmed them. The stale cache and
/// the fetch scheduler both serve from it instead of the wire.
#[derive(Debug, Clone)]
pub(crate) struct LastGood {
    pub(crate) files: BTreeMap<String, Vec<u8>>,
    pub(crate) digest: Digest,
    pub(crate) at: u64,
}

impl LastGood {
    /// The record of `outcome`, a complete fetch, confirmed at `at`.
    pub(crate) fn of(outcome: &SyncOutcome, at: u64) -> Self {
        let digest = outcome.content_digest().expect("a complete outcome is listed");
        LastGood { files: outcome.files.clone(), digest, at }
    }

    /// Seconds since the last confirmation, at `now`.
    pub(crate) fn age(&self, now: u64) -> u64 {
        now.saturating_sub(self.at)
    }

    /// The record served as `dir`'s outcome, keyed by its digest.
    pub(crate) fn outcome(&self, dir: RepoUri, freshness: Freshness) -> SyncOutcome {
        SyncOutcome {
            files: self.files.clone(),
            listed: true,
            freshness,
            content: Some(self.digest),
            ..SyncOutcome::unreachable(dir)
        }
    }
}

/// Failed contacts in a row before a host's breaker first trips.
const FAILURE_THRESHOLD: u32 = 3;

/// When a host's breaker trips and for how long: it trips once its
/// failures reach `3 + trips · rearm`, and the trip holds the host off
/// for `min(doubled(base, trips), cap)` seconds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BreakerRule {
    pub(crate) base: u64,
    pub(crate) cap: u64,
    pub(crate) rearm: u32,
}

/// One host's circuit breaker: failed contacts and trips since its last
/// success, and the end of its latest cool-down. The stale cache and
/// the fetch scheduler each keep one per host, under their own rule: a
/// fixed cool-down re-opened by one failed probe, and a doubling
/// backoff re-armed by three more failures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Breaker {
    pub(crate) failures: u32,
    pub(crate) trips: u32,
    pub(crate) until: Option<u64>,
}

impl Breaker {
    /// Whether the host is held off at `now`: its cool-down runs until
    /// `until`, exclusive.
    pub(crate) fn is_open(&self, now: u64) -> bool {
        self.until.is_some_and(|until| now < until)
    }

    /// Closes the breaker after a good contact; whether it was not
    /// already clean.
    pub(crate) fn succeed(&mut self) -> bool {
        std::mem::take(self) != Breaker::default()
    }

    /// Books a failed contact at `now`; the end of the new cool-down if
    /// it trips.
    pub(crate) fn fail(&mut self, now: u64, rule: BreakerRule) -> Option<u64> {
        self.failures += 1;
        if self.failures < FAILURE_THRESHOLD.saturating_add(self.trips.saturating_mul(rule.rearm)) {
            return None;
        }
        let until = now.saturating_add(doubled(rule.base, self.trips).min(rule.cap));
        self.trips += 1;
        self.until = Some(until);
        self.until
    }
}

/// `hosts[host]`, inserted as the default on first contact. Unlike
/// `entry`, it copies the host name only when the host is new.
pub(crate) fn host_entry<'m, V: Default>(
    hosts: &'m mut BTreeMap<String, V>,
    host: &str,
) -> &'m mut V {
    if !hosts.contains_key(host) {
        hosts.insert(host.to_owned(), V::default());
    }
    hosts.get_mut(host).expect("inserted above")
}

/// Supplies publication-point contents to the validator.
pub trait ObjectSource {
    /// Syncs one directory, returning whatever arrived.
    fn load_dir(&mut self, dir: &RepoUri) -> SyncOutcome;

    /// The source's notion of the current simulated time, in seconds.
    /// Sources without a clock (e.g. [`DirectSource`]) report 0; the
    /// resilience layer needs a real clock to age snapshots.
    fn now(&self) -> u64 {
        0
    }

    /// Digest-only probe of one directory: the canonical content
    /// digest a complete sync would produce, without transferring the
    /// listing or any file, so an incremental validator can check a
    /// cached subtree for staleness at one-frame cost. `None` means
    /// the source cannot probe (the caller falls back to
    /// [`ObjectSource::load_dir`]).
    fn probe_dir(&mut self, _dir: &RepoUri) -> Option<DirProbe> {
        None
    }

    /// Cumulative frames this source's network has sent, if it has
    /// one. The fetch scheduler books per-directory deltas of this
    /// counter as [`RunStats::frames_used`](crate::RunStats::frames_used)
    /// (the schedule-gaming campaign's per-round `frames_used`); sources
    /// without a network (e.g. [`DirectSource`]) report `None` and book
    /// nothing.
    fn wire_frames(&self) -> Option<u64> {
        None
    }
}

impl<S: ObjectSource + ?Sized> ObjectSource for &mut S {
    fn load_dir(&mut self, dir: &RepoUri) -> SyncOutcome {
        (**self).load_dir(dir)
    }

    fn now(&self) -> u64 {
        (**self).now()
    }

    fn probe_dir(&mut self, dir: &RepoUri) -> Option<DirProbe> {
        (**self).probe_dir(dir)
    }

    fn wire_frames(&self) -> Option<u64> {
        (**self).wire_frames()
    }
}

/// Retrieval over the simulated network.
pub struct NetworkSource<'a> {
    net: &'a mut Network,
    repos: &'a RepoRegistry,
    client: NodeId,
    retry: bool,
}

impl<'a> NetworkSource<'a> {
    /// A source fetching from `client`'s vantage point, one bare
    /// session per directory (no retries).
    pub fn new(net: &'a mut Network, repos: &'a RepoRegistry, client: NodeId) -> Self {
        NetworkSource { net, repos, client, retry: false }
    }

    /// A source that retries each directory under
    /// [`SyncPolicy::default`].
    pub fn retrying(net: &'a mut Network, repos: &'a RepoRegistry, client: NodeId) -> Self {
        NetworkSource { net, repos, client, retry: true }
    }
}

impl ObjectSource for NetworkSource<'_> {
    fn load_dir(&mut self, dir: &RepoUri) -> SyncOutcome {
        if self.retry {
            let policy = SyncPolicy::default();
            sync_dir_with_policy(self.net, self.repos, self.client, dir, &policy).0
        } else {
            sync_dir(self.net, self.repos, self.client, dir)
        }
    }

    fn now(&self) -> u64 {
        self.net.now()
    }

    fn probe_dir(&mut self, dir: &RepoUri) -> Option<DirProbe> {
        let deadline = if self.retry { SyncPolicy::default().deadline } else { None };
        Some(rpki_repo::probe_dir(self.net, self.repos, self.client, dir, deadline))
    }

    fn wire_frames(&self) -> Option<u64> {
        Some(self.net.stats().sent)
    }
}

/// Perfect retrieval straight from at-rest repository state.
pub struct DirectSource<'a> {
    repos: &'a RepoRegistry,
}

impl<'a> DirectSource<'a> {
    /// A source reading `repos` without a network in between.
    pub fn new(repos: &'a RepoRegistry) -> Self {
        DirectSource { repos }
    }
}

impl ObjectSource for DirectSource<'_> {
    fn load_dir(&mut self, dir: &RepoUri) -> SyncOutcome {
        match self.repos.by_host(dir.host()) {
            Some(repo) => {
                let mut files = BTreeMap::new();
                for (name, _) in repo.list(dir) {
                    if let Some(bytes) = repo.fetch(dir, &name) {
                        files.insert(name, bytes.to_vec());
                    }
                }
                SyncOutcome {
                    files,
                    listed: true,
                    freshness: Freshness::Fresh,
                    content: Some(repo.content_digest(dir)),
                    ..SyncOutcome::unreachable(dir.clone())
                }
            }
            None => SyncOutcome::unreachable(dir.clone()),
        }
    }

    fn probe_dir(&mut self, dir: &RepoUri) -> Option<DirProbe> {
        match self.repos.by_host(dir.host()) {
            Some(repo) => Some(DirProbe {
                dir: dir.clone(),
                listed: true,
                digest: Some(repo.content_digest(dir)),
            }),
            None => Some(DirProbe::unreachable(dir.clone())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_source_reads_at_rest_state() {
        let mut net = Network::new(0);
        let mut repos = RepoRegistry::new();
        let node = repos.create(&mut net, "h");
        let dir = RepoUri::new("h", &["repo"]);
        repos.get_mut(node).unwrap().publish_raw(&dir, "a", vec![1]);
        let mut src = DirectSource::new(&repos);
        let out = src.load_dir(&dir);
        assert!(out.listed);
        assert_eq!(out.files["a"], vec![1]);
        // Unknown host: unreachable.
        let out = src.load_dir(&RepoUri::new("nope", &["repo"]));
        assert!(!out.listed);
    }

    #[test]
    fn network_source_sees_transport_faults() {
        let mut net = Network::new(0);
        let client = net.add_node("rp");
        let mut repos = RepoRegistry::new();
        let node = repos.create(&mut net, "h");
        let dir = RepoUri::new("h", &["repo"]);
        repos.get_mut(node).unwrap().publish_raw(&dir, "a", vec![1]);
        net.faults.partition(client, node);
        let mut src = NetworkSource::new(&mut net, &repos, client);
        let out = src.load_dir(&dir);
        assert!(!out.listed);
        // DirectSource over the same world is oblivious to the
        // partition — that contrast is the point.
        let mut direct = DirectSource::new(&repos);
        assert!(direct.load_dir(&dir).listed);
    }

    #[test]
    fn policy_source_retries_and_reports() {
        let mut net = Network::new(0);
        let client = net.add_node("rp");
        let mut repos = RepoRegistry::new();
        let node = repos.create(&mut net, "h");
        let dir = RepoUri::new("h", &["repo"]);
        repos.get_mut(node).unwrap().publish_raw(&dir, "a", vec![1]);
        // First file frame lost; the retry must recover it.
        net.faults.drop_nth(node, client, 2);
        let mut src = NetworkSource::retrying(&mut net, &repos, client);
        let out = src.load_dir(&dir);
        assert!(out.is_complete());
    }

    #[test]
    fn probe_digest_agrees_with_load_digest() {
        let mut net = Network::new(0);
        let client = net.add_node("rp");
        let mut repos = RepoRegistry::new();
        let node = repos.create(&mut net, "h");
        let dir = RepoUri::new("h", &["repo"]);
        repos.get_mut(node).unwrap().publish_raw(&dir, "a", vec![1, 2]);
        let mut direct = DirectSource::new(&repos);
        let probe = direct.probe_dir(&dir).unwrap();
        assert_eq!(probe.content_digest(), direct.load_dir(&dir).content_digest());
        let mut netsrc = NetworkSource::new(&mut net, &repos, client);
        let probe = netsrc.probe_dir(&dir).unwrap();
        assert_eq!(probe.content_digest(), netsrc.load_dir(&dir).content_digest());
    }

    #[test]
    fn network_source_exposes_simulated_clock() {
        let mut net = Network::new(0);
        let client = net.add_node("rp");
        net.advance_to(777);
        let repos = RepoRegistry::new();
        let src = NetworkSource::new(&mut net, &repos, client);
        assert_eq!(src.now(), 777);
    }
}
