//! Live RPKI worlds: one [`World`] type, built either as the paper's
//! Figure 2 model ([`World::model`]) or as a synthetic CA tree
//! ([`World::tree`]).
//!
//! The figure (an excerpt) and the surrounding prose pin down:
//!
//! - ARIN suballocates to Sprint (Table 4 gives Sprint's blocks:
//!   `63.160.0.0/12` and `208.0.0.0/11`);
//! - Sprint issues RCs to ETB S.A. ESP. and Continental Broadband, and
//!   "two ROAs that authorize specified prefix and its subprefixes of
//!   length up to 24";
//! - Continental Broadband (AS 17054) holds `63.174.16.0/20`, issues
//!   the covering ROA `(63.174.16.0/20, AS17054)` plus four more — the
//!   paper says revoking its RC "would whack four additional ROAs" —
//!   among them the make-before-break target `(63.174.16.0/22,
//!   AS7341)`;
//! - Continental hosts its own repository at `63.174.23.0` (Section 6).
//!
//! Values the excerpt leaves unreadable (exact ETB block, the sibling
//! ROA prefixes) are reconstructed to satisfy every constraint the
//! text states: the /24 carve-out must be collateral-free, the /22
//! target must *not* be, and `63.174.17.0/24` must be invalid while
//! `63.160.0.0/12` is unknown (Figure 5, left).

use bgp_sim::{Announcement, Topology};
use ipres::{Asn, Prefix, ResourceSet};
use netsim::{Network, NodeId};
use rpki_attacks::CaView;
use rpki_ca::{CertAuthority, ChurnEngine, ChurnReport};
use rpki_objects::{Moment, RepoUri, Roa, RoaPrefix, Span, TrustAnchorLocator};
use rpki_repo::RepoRegistry;
use rpki_rp::{DirectSource, ValidationConfig, ValidationRun, Validator};

fn p(s: &str) -> Prefix {
    s.parse().unwrap()
}

fn rs(s: &str) -> ResourceSet {
    ResourceSet::from_prefix_strs(s)
}

/// Well-known ASNs of the model.
pub mod asn {
    use ipres::Asn;

    /// Sprint.
    pub const SPRINT: Asn = Asn(1239);
    /// Continental Broadband.
    pub const CONTINENTAL: Asn = Asn(17054);
    /// The make-before-break target customer.
    pub const CUSTOMER_A: Asn = Asn(7341);
    /// Sibling customer.
    pub const CUSTOMER_B: Asn = Asn(7342);
    /// Sibling customer.
    pub const CUSTOMER_C: Asn = Asn(7343);
    /// Sibling customer.
    pub const CUSTOMER_D: Asn = Asn(7344);
    /// ETB S.A. ESP.
    pub const ETB: Asn = Asn(19094);
    /// The relying party's own AS.
    pub const RELYING_PARTY: Asn = Asn(64512);
}

/// Indices of the model's four authorities in [`World::cas`], in the
/// order the churn schedule is keyed on.
pub mod ca {
    /// ARIN (the model's trust anchor).
    pub const ARIN: usize = 0;
    /// Sprint.
    pub const SPRINT: usize = 1;
    /// ETB S.A. ESP.
    pub const ETB: usize = 2;
    /// Continental Broadband.
    pub const CONTINENTAL: usize = 3;
}

/// The model's canonical network seed (the paper's year).
pub const MODEL_SEED: u64 = 2013;

/// A live RPKI world: CAs publishing into repositories on a simulated
/// network, a relying party on that network with its trust anchor
/// locator, and the AS topology and announcements routing runs over.
///
/// Two constructors build one: [`World::model`] is the paper's Figure
/// 2 (four authorities on four hosts, with a topology and everyone's
/// announcements), [`World::tree`] a regular synthetic CA tree on one
/// host that scales the publication-point count for churn and scale
/// benchmarks (no topology, no announcements).
pub struct World {
    /// The simulated network.
    pub net: Network,
    /// All repositories.
    pub repos: RepoRegistry,
    /// The relying party's network node.
    pub rp_node: NodeId,
    /// Every CA; index 0 is the trust anchor. The model's four sit at
    /// the [`ca`] indices, a tree's in DFS preorder.
    pub cas: Vec<CertAuthority>,
    /// The relying party's trust anchor locator.
    pub tal: TrustAnchorLocator,
    /// The AS graph (empty for a tree).
    pub topology: Topology,
    /// Everyone's legitimate BGP announcements (none for a tree).
    pub announcements: Vec<Announcement>,
    churn_cursor: usize,
}

impl World {
    /// Builds and publishes the Figure 2 model over a network seeded
    /// with `seed` ([`MODEL_SEED`] is the canonical one). The seed
    /// feeds the network's fault dice, not the RPKI: every seed gives
    /// the same objects.
    pub fn model(seed: u64) -> World {
        let mut net = Network::new(seed);
        let rp_node = net.add_node("relying-party");
        let mut repos = RepoRegistry::new();
        for host in [
            "rpki.arin.example",
            "rpki.sprint.example",
            "rpki.etb.example",
            "rpki.continental.example",
        ] {
            repos.create(&mut net, host);
        }
        // Section 6: Continental hosts its own repository at
        // 63.174.23.0 inside its own /20, originated by AS 17054.
        repos
            .by_host_mut("rpki.continental.example")
            .expect("just created")
            .set_hosted_at(p("63.174.23.0/24"), asn::CONTINENTAL);

        let dir = |host: &str| RepoUri::new(host, &["repo"]);

        let mut arin = CertAuthority::new("ARIN", "model-arin", dir("rpki.arin.example"));
        arin.certify_self(rs("63.0.0.0/8, 208.0.0.0/4"), Moment(0), Span::days(3650));

        let mut sprint = CertAuthority::new("Sprint", "model-sprint", dir("rpki.sprint.example"));
        certify(&mut arin, &mut sprint, rs("63.160.0.0/12, 208.0.0.0/11"));
        let mut etb = CertAuthority::new("ETB S.A. ESP.", "model-etb", dir("rpki.etb.example"));
        certify(&mut sprint, &mut etb, rs("63.166.0.0/16"));
        let mut continental = CertAuthority::new(
            "Continental Broadband",
            "model-continental",
            dir("rpki.continental.example"),
        );
        certify(&mut sprint, &mut continental, rs("63.174.16.0/20"));
        let mut cas = vec![arin, sprint, etb, continental];

        // Sprint's two maxlen-24 ROAs, ETB's one, Continental's five;
        // each origin announces exactly its ROA's prefix.
        let mut announcements = Vec::new();
        for (idx, origin, roa) in [
            (ca::SPRINT, asn::SPRINT, RoaPrefix::up_to(p("63.160.64.0/20"), 24)),
            (ca::SPRINT, asn::SPRINT, RoaPrefix::up_to(p("208.24.0.0/16"), 24)),
            (ca::ETB, asn::ETB, RoaPrefix::exact(p("63.166.0.0/16"))),
            (ca::CONTINENTAL, asn::CONTINENTAL, RoaPrefix::exact(p("63.174.16.0/20"))),
            (ca::CONTINENTAL, asn::CUSTOMER_A, RoaPrefix::exact(p("63.174.16.0/22"))),
            (ca::CONTINENTAL, asn::CUSTOMER_B, RoaPrefix::exact(p("63.174.20.0/23"))),
            (ca::CONTINENTAL, asn::CUSTOMER_C, RoaPrefix::exact(p("63.174.22.0/24"))),
            (ca::CONTINENTAL, asn::CUSTOMER_D, RoaPrefix::exact(p("63.174.25.0/24"))),
        ] {
            announcements.push(Announcement { prefix: roa.prefix, origin });
            cas[idx].issue_roa(origin, vec![roa], Moment(0)).expect("own space");
        }

        let tal = repos.publish_trust_anchor(&cas[ca::ARIN]);

        // AS topology: Sprint at the top; ETB, Continental, and the
        // relying party are its customers; Continental's customers hang
        // below it.
        let mut topology = Topology::new();
        topology.add_provider_customer(asn::SPRINT, asn::ETB);
        topology.add_provider_customer(asn::SPRINT, asn::CONTINENTAL);
        topology.add_provider_customer(asn::SPRINT, asn::RELYING_PARTY);
        for customer in [asn::CUSTOMER_A, asn::CUSTOMER_B, asn::CUSTOMER_C, asn::CUSTOMER_D] {
            topology.add_provider_customer(asn::CONTINENTAL, customer);
        }

        let mut world =
            World { net, repos, rp_node, cas, tal, topology, announcements, churn_cursor: 0 };
        world.publish_all(Moment(1));
        world
    }

    /// Builds and publishes a regular synthetic CA tree over a network
    /// seeded with `seed`: one trust anchor, `branching` children per
    /// CA down to `depth` levels, `roas_per_ca` ROAs per CA, all hosted
    /// in one repository with one directory per CA.
    ///
    /// The total CA count is `1 + b + … + b^depth` and must stay within
    /// 65536 (one `/24` per CA inside `10.0.0.0/8`), which comfortably
    /// fits the planet-scale bench sweeps (five-thousand-point worlds).
    pub fn tree(seed: u64, depth: u32, branching: u32, roas_per_ca: usize) -> World {
        let total = subtree_size(depth, branching);
        assert!(total <= 65536, "tree of {total} CAs outgrows 10.0.0.0/8");
        assert!(roas_per_ca > 0 && roas_per_ca <= 200, "roas_per_ca out of range");

        let mut net = Network::new(seed);
        let rp_node = net.add_node("relying-party");
        let mut repos = RepoRegistry::new();
        repos.create(&mut net, "rpki.bench.example");

        let mut root = CertAuthority::new(
            "ca0",
            "bench-ca0",
            RepoUri::new("rpki.bench.example", &["repo", "ca0"]),
        );
        // The root holds the whole /8 (not just the tree's index range)
        // so benches can mint extra out-of-tree ROAs at the root without
        // caring about the tree's exact size.
        root.certify_self(ResourceSet::from_prefix_strs("10.0.0.0/8"), Moment(0), Span::days(3650));
        let mut cas = vec![root];
        grow(&mut cas, 0, depth, branching);
        debug_assert_eq!(cas.len(), total);

        for (idx, ca) in cas.iter_mut().enumerate() {
            for j in 0..roas_per_ca {
                ca.issue_roa(
                    Asn(65000 + idx as u32),
                    vec![RoaPrefix::exact(p(&format!("10.{}.{}.{j}/32", idx >> 8, idx & 255)))],
                    Moment(0),
                )
                .expect("ROA inside the CA's own /24");
            }
        }

        let tal = repos.publish_trust_anchor(&cas[0]);
        let (topology, announcements) = (Topology::new(), Vec::new());
        let mut world =
            World { net, repos, rp_node, cas, tal, topology, announcements, churn_cursor: 0 };
        world.publish_all(Moment(1));
        world
    }

    /// Number of publication points (one directory per CA).
    pub fn publication_points(&self) -> usize {
        self.cas.len()
    }

    /// ROAs issued across every CA: the VRP count of a healthy walk,
    /// since every ROA these worlds issue names distinct payloads.
    pub fn roa_count(&self) -> usize {
        self.cas.iter().map(|ca| ca.issued_roas().count()).sum()
    }

    /// Republishes CA `idx`'s complete snapshot (fresh manifest and
    /// CRL) at the host its SIA names.
    pub fn publish(&mut self, idx: usize, now: Moment) {
        assert!(self.repos.publish(&mut self.cas[idx], now), "every CA's host is registered");
    }

    /// Republishes the TA certificate and every CA's snapshot.
    pub fn publish_all(&mut self, now: Moment) {
        self.repos.publish_trust_anchor(&self.cas[0]);
        for idx in 0..self.cas.len() {
            self.publish(idx, now);
        }
    }

    /// Dirties `pct` percent of publication points (at least one when
    /// `pct > 0`): each selected CA renews one ROA and republishes its
    /// directory — fresh manifest, CRL, and ROA bytes — while every
    /// other directory keeps its exact on-disk content. Selection
    /// rotates deterministically so repeated rounds spread the churn.
    /// Returns the number of directories touched.
    pub fn churn(&mut self, pct: usize, now: Moment) -> usize {
        if pct == 0 {
            return 0;
        }
        let total = self.cas.len();
        let touched = ((total * pct).div_ceil(100)).clamp(1, total);
        for _ in 0..touched {
            let idx = self.churn_cursor % total;
            self.churn_cursor += 1;
            let ca = &mut self.cas[idx];
            let file = ca.issued_roas().next().expect("every CA has ROAs").file_name();
            ca.renew_roa(&file, now).expect("renewable");
            self.publish(idx, now);
        }
        touched
    }

    /// Advances `engine` one step over every CA (in [`cas`](World::cas)
    /// order, the index the schedule is keyed on) and republishes every
    /// touched CA's snapshot through the ordinary publication log, so
    /// RRDP clients see the churn as deltas — the realistic counterpart
    /// to [`churn`](World::churn)'s fixed-rate rotation. Returns the
    /// engine's report.
    pub fn run_churn(&mut self, engine: &mut ChurnEngine, now: Moment) -> ChurnReport {
        let report = engine.step_with(self.cas.iter_mut(), now);
        for &idx in &report.touched {
            self.publish(idx, now);
        }
        report
    }

    /// Poisons `host`'s publication point with one adversarial corpus
    /// case, signed with the key of the first CA publishing there and
    /// written through the ordinary publication log (so rsync and RRDP
    /// clients see the same bytes). Returns what was done, or `None`
    /// for an unknown host. Heal with [`publish_all`](World::publish_all):
    /// a fresh snapshot overwrites the poison and deletes stray files.
    pub fn poison_host(
        &mut self,
        host: &str,
        kind: rpki_attacks::CorpusKind,
        seed: u64,
        now: Moment,
    ) -> Option<rpki_attacks::CorpusCase> {
        let ca = self.cas.iter().find(|ca| ca.sia().host() == host)?;
        Some(rpki_attacks::poison(self.repos.by_host_mut(host)?, ca, kind, seed, now))
    }

    /// Validates over a perfect transport — the `&self` convenience
    /// probe for tests and examples that just want the world's VRPs.
    /// Emits the run through the network's recorder like
    /// [`validate_with`](World::validate_with).
    pub fn validate_direct(&self, now: Moment) -> ValidationRun {
        let mut source = DirectSource::new(&self.repos);
        let run = Validator::new(ValidationConfig::at(now))
            .run(&mut source, std::slice::from_ref(&self.tal));
        run.emit(&self.net.recorder(), now.0);
        run
    }

    /// Adds Figure 5 (right)'s new ROA: `(63.160.0.0/12-13, AS1239)` —
    /// the Side Effect 5 trigger — and republishes. Model only.
    pub fn add_figure5_right_roa(&mut self, now: Moment) -> Roa {
        let roa = self.cas[ca::SPRINT]
            .issue_roa(asn::SPRINT, vec![RoaPrefix::up_to(p("63.160.0.0/12"), 13)], now)
            .expect("own space");
        self.publish_all(now);
        roa
    }

    /// What Sprint — or anyone reading the repositories — sees of
    /// Continental: the RC Sprint issued it and everything at its
    /// publication point. The input whack planning and monitoring
    /// start from. Model only.
    pub fn continental_view(&self) -> CaView {
        let continental = self.cas[ca::CONTINENTAL].key_id();
        let rc = self.cas[ca::SPRINT].issued_cert_for(continental).expect("issued in build");
        CaView::from_repos(rc, &self.repos)
    }

    /// The file name of Continental's covering `/20` ROA (Figure 3's
    /// target). Model only.
    pub fn covering_roa_file(&self) -> String {
        self.continental_roa_file(asn::CONTINENTAL)
    }

    /// The file name of the `/22` customer ROA (the make-before-break
    /// target). Model only.
    pub fn customer_roa_file(&self) -> String {
        self.continental_roa_file(asn::CUSTOMER_A)
    }

    fn continental_roa_file(&self, origin: Asn) -> String {
        self.cas[ca::CONTINENTAL]
            .issued_roas()
            .find(|r| r.asn() == origin)
            .expect("Continental issued it in build")
            .file_name()
    }
}

/// Certifies `child` under `parent`: an RC for `resources` to the
/// child's handle, key and SIA, issued at `Moment(0)` and installed.
fn certify(parent: &mut CertAuthority, child: &mut CertAuthority, resources: ResourceSet) {
    let rc = parent
        .issue_cert(child.handle(), child.public_key(), resources, child.sia().clone(), Moment(0))
        .expect("inside the parent's resources");
    child.install_cert(rc);
}

/// Number of CAs in a subtree whose root has `depth` further levels of
/// `branching` children below it.
fn subtree_size(depth: u32, branching: u32) -> usize {
    (0..=depth).map(|i| (branching as usize).pow(i)).sum()
}

/// A `/24` per CA index: CA `i` owns `10.(i >> 8).(i & 255).0/24`, and
/// because CAs are numbered in DFS preorder a subtree's resources are
/// one contiguous index range, covered here by a minimal set of CIDR
/// blocks (greedy aggregation) so certificates stay small even for
/// thousand-CA subtrees.
fn synthetic_resources(start: usize, size: usize) -> ResourceSet {
    let mut prefixes = Vec::new();
    let mut i = start as u32;
    let end = (start + size) as u32;
    while i < end {
        // Largest power-of-two run that is aligned at `i` and fits.
        let align = if i == 0 { 1 << 16 } else { 1 << i.trailing_zeros().min(16) };
        let fit = end - i;
        let run: u32 = align.min(1 << (31 - fit.leading_zeros()));
        let len = 24 - run.trailing_zeros() as u8;
        prefixes.push(Prefix::v4(10, (i >> 8) as u8, (i & 255) as u8, 0, len));
        i += run;
    }
    ResourceSet::from_prefixes(prefixes)
}

/// Appends `parent`'s subtree below it in DFS preorder: `branching`
/// children per CA for `levels_left` more levels.
fn grow(cas: &mut Vec<CertAuthority>, parent: usize, levels_left: u32, branching: u32) {
    if levels_left == 0 {
        return;
    }
    for _ in 0..branching {
        let idx = cas.len();
        let size = subtree_size(levels_left - 1, branching);
        let mut ca = CertAuthority::new(
            &format!("ca{idx}"),
            &format!("bench-ca{idx}"),
            RepoUri::new("rpki.bench.example", &["repo", &format!("ca{idx}")]),
        );
        certify(&mut cas[parent], &mut ca, synthetic_resources(idx, size));
        cas.push(ca);
        grow(cas, idx, levels_left - 1, branching);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{Fetch, ValidationOptions};
    use ipres::Asn;
    use rpki_rp::{ResilientState, Route, RouteValidity, ValidationState};

    #[test]
    fn model_validates_to_seven_plus_one_vrps() {
        let w = World::model(MODEL_SEED);
        let run = w.validate_direct(Moment(2));
        // 2 (Sprint) + 1 (ETB) + 5 (Continental) = 8 VRPs; the paper's
        // excerpt shows 7 ROAs, and our reconstruction carries the full
        // five-ROA Continental set the prose implies.
        assert_eq!(run.vrps.len(), 8);
        assert_eq!(run.cas.len(), 4);
    }

    #[test]
    fn figure5_left_states_hold() {
        let w = World::model(MODEL_SEED);
        let cache = w.validate_direct(Moment(2)).vrp_cache();
        // The /12 is unknown (no covering ROA).
        assert_eq!(
            cache.classify(Route::new("63.160.0.0/12".parse().unwrap(), asn::SPRINT)),
            RouteValidity::Unknown
        );
        // 63.174.17.0/24 is invalid (covered by the /20 ROA).
        assert_eq!(
            cache.classify(Route::new("63.174.17.0/24".parse().unwrap(), asn::CONTINENTAL)),
            RouteValidity::Invalid
        );
        // The legitimate announcements are valid.
        for ann in &w.announcements {
            assert_eq!(
                cache.classify(Route::new(ann.prefix, ann.origin)),
                RouteValidity::Valid,
                "{} ← {}",
                ann.prefix,
                ann.origin
            );
        }
    }

    #[test]
    fn figure5_right_flips_unknowns_to_invalid() {
        let mut w = World::model(MODEL_SEED);
        let before = w.validate_direct(Moment(2)).vrp_cache();
        let probe = Route::new("63.161.0.0/16".parse().unwrap(), Asn(999));
        assert_eq!(before.classify(probe), RouteValidity::Unknown);
        w.add_figure5_right_roa(Moment(3));
        let after = w.validate_direct(Moment(4)).vrp_cache();
        assert_eq!(after.classify(probe), RouteValidity::Invalid);
    }

    #[test]
    fn seeded_builds_differ_only_in_network_randomness() {
        // Same world content regardless of seed: the seed feeds the
        // network's fault dice, not the RPKI.
        let a = World::model(1);
        let b = World::model(2);
        assert_eq!(a.validate_direct(Moment(2)).vrps, b.validate_direct(Moment(2)).vrps);
    }

    #[test]
    fn resilient_validation_matches_direct_when_healthy() {
        let mut w = World::model(7);
        let direct = w.validate_direct(Moment(2));
        let mut state = ResilientState::default();
        let resilient = w.validate_with(
            ValidationOptions::at(Moment(2)).fetch(Fetch::Retry).stale_cache(&mut state),
        );
        assert_eq!(direct.vrps, resilient.vrps);
        // Every visited directory left a snapshot behind.
        assert!(state.snapshot_count() >= 4, "snapshots: {}", state.snapshot_count());
    }

    #[test]
    fn network_validation_matches_direct() {
        let mut w = World::model(MODEL_SEED);
        let direct = w.validate_direct(Moment(2));
        let networked = w.validate_with(ValidationOptions::at(Moment(2)));
        assert_eq!(direct.vrps, networked.vrps);
    }

    #[test]
    fn continental_repo_is_inside_its_own_roa() {
        let w = World::model(MODEL_SEED);
        let repo = w.repos.by_host("rpki.continental.example").unwrap();
        let (prefix, origin) = repo.hosted_at().unwrap();
        assert_eq!(origin, asn::CONTINENTAL);
        // The repo prefix sits inside the /20 the covering ROA names —
        // the circularity precondition of Section 6.
        assert!("63.174.16.0/20".parse::<Prefix>().unwrap().covers(prefix));
    }

    #[test]
    fn synthetic_tree_validates_and_reuses_under_partial_churn() {
        // branching 3, depth 2 → 1 + 3 + 9 = 13 publication points.
        let mut w = World::tree(11, 2, 3, 2);
        assert_eq!(w.publication_points(), 13);
        let mut state = ValidationState::full();
        let first = w.validate_with(ValidationOptions::at(Moment(2)).incremental(&mut state));
        assert_eq!(first.vrps.len(), w.roa_count());
        assert_eq!(first.cas.len(), 13);
        // Dirty ~10% (two points after ceil): only those re-walk.
        let touched = w.churn(10, Moment(60));
        assert_eq!(touched, 2);
        let second = w.validate_with(ValidationOptions::at(Moment(62)).incremental(&mut state));
        assert_eq!(second.vrps.len(), w.roa_count());
        assert_eq!(state.stats().subtrees_rewalked as usize, touched);
        assert_eq!(state.stats().subtrees_reused as usize, 13 - touched);
        // Renewals keep VRP content identical, so the delta is empty.
        assert!(state.last_delta().is_empty());
        // And the incremental output matches a cold walk of the same world.
        assert_eq!(second.vrps, w.validate_with(ValidationOptions::at(Moment(62))).vrps);
    }

    #[test]
    fn engine_churn_keeps_the_model_world_valid() {
        use rpki_ca::ChurnConfig;
        let mut w = World::model(MODEL_SEED);
        let baseline = w.validate_direct(Moment(2)).vrps;
        let mut engine = ChurnEngine::new(17, ChurnConfig::renew_only(500));
        let mut touched = 0usize;
        for step in 0..8u64 {
            let report = w.run_churn(&mut engine, Moment(2 + step));
            touched += report.touched.len();
        }
        assert!(touched > 0, "per-mille 500 over 4 CAs × 8 steps must touch someone");
        // Renew-only churn re-signs objects without changing the VRP
        // population the model's assertions are built on.
        assert_eq!(w.validate_direct(Moment(10)).vrps, baseline);
    }

    #[test]
    fn engine_churn_tracks_the_synthetic_population() {
        use rpki_ca::ChurnConfig;
        let mut w = World::tree(11, 2, 3, 2);
        let mut engine = ChurnEngine::new(23, ChurnConfig::steady());
        for step in 0..12u64 {
            w.run_churn(&mut engine, Moment(2 + step * 60));
        }
        // `roa_count()` counts the CAs' ROAs after adds and withdraws,
        // so the validated VRP set always matches it.
        let run = w.validate_with(ValidationOptions::at(Moment(2 + 12 * 60)));
        assert_eq!(run.vrps.len(), w.roa_count());
    }

    #[test]
    fn topology_routes_all_announcements() {
        use bgp_sim::{propagate, RpkiPolicy};
        let w = World::model(MODEL_SEED);
        let cache = w.validate_direct(Moment(2)).vrp_cache();
        let state = propagate(&w.topology, &w.announcements, RpkiPolicy::DropInvalid, &cache)
            .expect("model topology converges");
        for ann in &w.announcements {
            // The data plane delivers to whoever announced the longest
            // matching prefix for the probe address (e.g. probing the
            // first address of Continental's /20 lands at the customer
            // /22 — correct LPM behaviour, not a failure).
            let probe = ann.prefix.addr();
            let expected = w
                .announcements
                .iter()
                .filter(|a| a.prefix.contains(probe))
                .max_by_key(|a| a.prefix.len())
                .expect("the announcement itself matches")
                .origin;
            let out = state.forward(asn::RELYING_PARTY, probe);
            assert!(out.delivered_to(expected), "{} → {:?}", ann.prefix, out);
        }
    }
}
