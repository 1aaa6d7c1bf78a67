//! The generator itself.

use std::collections::BTreeMap;

use bgp_sim::{Announcement, Topology};
use ipres::{Asn, Prefix, ResourceSet};
use netsim::Network;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpki_ca::{CertAuthority, ChurnEngine, ChurnReport};
use rpki_objects::{Moment, RepoUri, RoaPrefix, Span, TrustAnchorLocator};
use rpki_repo::RepoRegistry;

use crate::data::{rir_of_country, ANCHOR_ORGS, RIRS};

/// Generator parameters. All sizes are exact, not expectations.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Master seed; everything derives from it.
    pub seed: u64,
    /// Number of transit ISPs (beyond the anchors), spread over RIRs.
    pub transits: usize,
    /// Number of stub/customer organisations.
    pub stubs: usize,
    /// Fraction of organisations issuing ROAs (the paper's production
    /// snapshot was <1%; full deployment is 1.0).
    pub roa_adoption: f64,
    /// Probability that a customer's country differs from its
    /// provider's (drives Table 4's cross-border certification).
    pub cross_border: f64,
    /// Whether to plant the paper's Table 4 anchor organisations.
    pub anchors: bool,
    /// Probability that an organisation hosts its own repository
    /// (its own publication host, like the paper's Continental).
    /// Everyone else publishes under their RIR's host, one directory
    /// per organisation — the real Internet's fan-out, where a few
    /// hosted publication servers carry thousands of publication
    /// points. Anchors always self-host (the paper's premise).
    pub self_hosting: f64,
}

impl Config {
    /// A small, fast world for tests.
    pub fn small(seed: u64) -> Self {
        Config {
            seed,
            transits: 12,
            stubs: 60,
            roa_adoption: 1.0,
            cross_border: 0.2,
            anchors: true,
            self_hosting: 1.0,
        }
    }

    /// An internet-scale world: tens of thousands of ASes, thousands
    /// of publication points, RIR-hosted fan-out with a sprinkle of
    /// self-hosters. Generation stays linear in the org count.
    pub fn planet(seed: u64, stubs: usize) -> Self {
        Config {
            seed,
            transits: 120,
            stubs,
            roa_adoption: 1.0,
            cross_border: 0.15,
            anchors: true,
            self_hosting: 0.05,
        }
    }
}

/// What kind of organisation an [`Org`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrgKind {
    /// Transit ISP (has customers; tier-1s are the first few transits).
    Transit,
    /// Edge customer.
    Stub,
    /// A planted Table 4 anchor (transit-like).
    Anchor,
}

/// Who allocated an organisation's address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParentRef {
    /// Directly from an RIR (index into [`RIRS`]).
    Rir(usize),
    /// From another organisation (index into `orgs`).
    Org(usize),
}

/// One organisation in the synthetic Internet.
#[derive(Debug, Clone)]
pub struct Org {
    /// Unique handle, e.g. `"transit-3"` or `"Level3"`.
    pub handle: String,
    /// Role.
    pub kind: OrgKind,
    /// The organisation's AS number.
    pub asn: Asn,
    /// Home country (ISO code).
    pub country: String,
    /// The RIR region the org is *registered* in (its home country's,
    /// or its provider's for countries outside all regions).
    pub rir: usize,
    /// Address blocks allocated to it.
    pub prefixes: Vec<Prefix>,
    /// Who allocated those blocks.
    pub parent: ParentRef,
    /// Index of this org's CA in [`SyntheticInternet::cas`].
    pub ca: usize,
    /// Whether the org issued ROAs for its prefixes.
    pub adopted_roa: bool,
}

/// A generated Internet: organisations, a working CA hierarchy, an AS
/// topology, and the BGP announcements everyone makes.
pub struct SyntheticInternet {
    /// Generator parameters used.
    pub config: Config,
    /// All organisations.
    pub orgs: Vec<Org>,
    /// CA hierarchy: `cas[0]` is the IANA trust anchor, `cas[1..=5]`
    /// the RIRs, the rest org CAs (see [`Org::ca`]).
    pub cas: Vec<CertAuthority>,
    /// The AS graph.
    pub topology: Topology,
    /// Everyone's BGP originations.
    pub announcements: Vec<Announcement>,
    /// AS → home country.
    pub as_country: BTreeMap<Asn, String>,
}

impl SyntheticInternet {
    /// Grows an Internet from `config`.
    pub fn generate(config: Config) -> SyntheticInternet {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let now = Moment(0);
        let mut next_asn = 1000u32;
        let mut asn = || {
            let a = Asn(next_asn);
            next_asn += 1;
            a
        };

        // --- IANA and the RIRs ---
        let mut cas: Vec<CertAuthority> = Vec::new();
        let mut iana = CertAuthority::new("IANA", &seeded(config.seed, "iana"), sia_of("iana"));
        iana.certify_self(ResourceSet::from_prefix_strs("0.0.0.0/0"), now, Span::days(3650));
        cas.push(iana);

        for (i, rir) in RIRS.iter().enumerate() {
            let mut resources = ResourceSet::from_prefix(Prefix::v4(rir.base_octet, 0, 0, 0, 8));
            if config.anchors {
                for anchor in &ANCHOR_ORGS {
                    if rir_of_country(anchor.home) == Some(i) {
                        resources = resources
                            .union(&ResourceSet::from_prefix(anchor.rc_prefix.parse().unwrap()));
                    }
                }
            }
            let mut ca =
                CertAuthority::new(rir.name, &seeded(config.seed, rir.name), sia_of(rir.name));
            let cert = cas[0]
                .issue_cert(rir.name, ca.public_key(), resources, ca.sia().clone(), now)
                .expect("IANA holds everything");
            ca.install_cert(cert);
            cas.push(ca);
        }

        let mut orgs: Vec<Org> = Vec::new();
        let mut topology = Topology::new();
        // Per-RIR allocation cursor: next free /16 within the pool /8.
        let mut rir_cursor = [0u16; 5];
        // Incrementally maintained index pools, so provider selection
        // stays O(1) per org instead of re-scanning every org created
        // so far (the old quadratic scan dominated at planet scale).
        let mut transit_indices: Vec<usize> = Vec::new();
        let mut provider_indices: Vec<usize> = Vec::new();

        // --- Anchors (Table 4 rows) ---
        if config.anchors {
            for anchor in &ANCHOR_ORGS {
                let rir = rir_of_country(anchor.home).expect("anchor home in a region");
                let a = asn();
                let prefix: Prefix = anchor.rc_prefix.parse().expect("static prefix");
                let ca_idx = cas.len();
                let mut ca = CertAuthority::new(
                    anchor.name,
                    &seeded(config.seed, anchor.name),
                    sia_of(anchor.name),
                );
                let cert = cas[1 + rir]
                    .issue_cert(
                        anchor.name,
                        ca.public_key(),
                        ResourceSet::from_prefix(prefix),
                        ca.sia().clone(),
                        now,
                    )
                    .expect("anchor prefix granted to its RIR");
                ca.install_cert(cert);
                cas.push(ca);
                topology.add_as(a);
                provider_indices.push(orgs.len());
                orgs.push(Org {
                    handle: anchor.name.to_owned(),
                    kind: OrgKind::Anchor,
                    asn: a,
                    country: anchor.home.to_owned(),
                    rir,
                    prefixes: vec![prefix],
                    parent: ParentRef::Rir(rir),
                    ca: ca_idx,
                    adopted_roa: true,
                });
            }
        }

        // --- Transit ISPs ---
        let tier1_count = 5.min(config.transits.max(1));
        for t in 0..config.transits {
            let rir = t % RIRS.len();
            let country =
                RIRS[rir].countries[rng.gen_range(0..RIRS[rir].countries.len())].to_owned();
            let a = asn();
            let third = rir_cursor[rir];
            rir_cursor[rir] += 1;
            assert!(third < 256, "RIR /8 pool exhausted; lower `transits`");
            let prefix = Prefix::v4(RIRS[rir].base_octet, third as u8, 0, 0, 16);
            let handle = format!("transit-{t}");
            let ca_idx = cas.len();
            let sia = org_sia(&mut rng, &config, rir, &handle);
            let mut ca = CertAuthority::new(&handle, &seeded(config.seed, &handle), sia);
            let cert = cas[1 + rir]
                .issue_cert(
                    &handle,
                    ca.public_key(),
                    ResourceSet::from_prefix(prefix),
                    ca.sia().clone(),
                    now,
                )
                .expect("pool /16 within RIR /8");
            ca.install_cert(cert);
            cas.push(ca);
            topology.add_as(a);
            let org_idx = orgs.len();
            orgs.push(Org {
                handle,
                kind: OrgKind::Transit,
                asn: a,
                country,
                rir,
                prefixes: vec![prefix],
                parent: ParentRef::Rir(rir),
                ca: ca_idx,
                adopted_roa: rng.gen_bool(config.roa_adoption),
            });

            // Topology: the first `tier1_count` transits form a full
            // peering mesh; later transits buy from 1–2 earlier transit
            // or anchor providers (degree bias emerges from growth
            // order). Providers are sampled from the incrementally
            // maintained pools — the org list is never re-scanned.
            if transit_indices.len() < tier1_count {
                for &other in &transit_indices {
                    topology.add_peering(orgs[org_idx].asn, orgs[other].asn);
                }
            } else {
                let providers = (1 + rng.gen_range(0..2usize)).min(provider_indices.len());
                let mut chosen: Vec<usize> = Vec::with_capacity(providers);
                while chosen.len() < providers {
                    let cand = provider_indices[rng.gen_range(0..provider_indices.len())];
                    if !chosen.contains(&cand) {
                        chosen.push(cand);
                    }
                }
                for &prov in &chosen {
                    topology.add_provider_customer(orgs[prov].asn, orgs[org_idx].asn);
                }
            }
            transit_indices.push(org_idx);
            provider_indices.push(org_idx);
        }

        // Anchors (Level3-class networks) are default-free-zone members:
        // they join the tier-1 clique (peering with every tier-1 transit
        // and with each other), so no valley separates their customer
        // cones from the rest of the Internet.
        let dfz: Vec<Asn> = orgs
            .iter()
            .filter(|o| o.kind == OrgKind::Transit)
            .take(tier1_count)
            .map(|o| o.asn)
            .chain(orgs.iter().filter(|o| o.kind == OrgKind::Anchor).map(|o| o.asn))
            .collect();
        for (i, &a) in dfz.iter().enumerate() {
            for &b in &dfz[i + 1..] {
                if topology.relationship(a, b).is_none() {
                    topology.add_peering(a, b);
                }
            }
        }

        // --- Anchor customers (one per Table 4 country) ---
        if config.anchors {
            let anchor_indices: Vec<usize> = orgs
                .iter()
                .enumerate()
                .filter(|(_, o)| o.kind == OrgKind::Anchor)
                .map(|(i, _)| i)
                .collect();
            for &ai in &anchor_indices {
                let anchor_name = orgs[ai].handle.clone();
                let spec = ANCHOR_ORGS.iter().find(|s| s.name == anchor_name).expect("anchor spec");
                let base = orgs[ai].prefixes[0];
                for (k, country) in spec.customer_countries.iter().enumerate() {
                    let a = asn();
                    // The k-th /24 inside the anchor's block.
                    let step = 1u128 << (32 - 24);
                    let addr =
                        ipres::Addr::new(base.family(), base.addr().value() + (k as u128) * step);
                    let prefix = Prefix::new(addr, 24);
                    let handle = format!("{}-cust-{}", slug(&anchor_name), country);
                    let crir = rir_of_country(country).unwrap_or(orgs[ai].rir);
                    let ca_idx = cas.len();
                    let sia = org_sia(&mut rng, &config, crir, &handle);
                    let mut ca = CertAuthority::new(&handle, &seeded(config.seed, &handle), sia);
                    let cert = cas[orgs[ai].ca]
                        .issue_cert(
                            &handle,
                            ca.public_key(),
                            ResourceSet::from_prefix(prefix),
                            ca.sia().clone(),
                            now,
                        )
                        .expect("customer /24 within anchor block");
                    ca.install_cert(cert);
                    cas.push(ca);
                    topology.add_provider_customer(orgs[ai].asn, a);
                    topology.add_as(a);
                    orgs.push(Org {
                        handle,
                        kind: OrgKind::Stub,
                        asn: a,
                        country: (*country).to_owned(),
                        rir: crir,
                        prefixes: vec![prefix],
                        parent: ParentRef::Org(ai),
                        ca: ca_idx,
                        adopted_roa: true,
                    });
                }
            }
        }

        // --- Random stubs ---
        let transit_pool: Vec<usize> = orgs
            .iter()
            .enumerate()
            .filter(|(_, o)| matches!(o.kind, OrgKind::Transit))
            .map(|(i, _)| i)
            .collect();
        assert!(!transit_pool.is_empty() || config.stubs == 0, "stubs need transits");
        let mut stub_cursor: BTreeMap<usize, u8> = BTreeMap::new(); // per-provider /24 counter
        for s in 0..config.stubs {
            let &prov =
                transit_pool.get(rng.gen_range(0..transit_pool.len())).expect("non-empty pool");
            let count = stub_cursor.entry(prov).or_insert(0);
            if *count == 255 {
                continue; // provider block full; skip (rare at test scales)
            }
            let third = *count;
            *count += 1;
            let base = orgs[prov].prefixes[0];
            let addr =
                ipres::Addr::new(base.family(), base.addr().value() + ((third as u128) << 8));
            let prefix = Prefix::new(addr, 24);
            let a = asn();
            // Country: provider's, or (cross-border) a random other.
            let country = if rng.gen_bool(config.cross_border) {
                let all: Vec<&str> =
                    RIRS.iter().flat_map(|r| r.countries.iter().copied()).collect();
                all[rng.gen_range(0..all.len())].to_owned()
            } else {
                orgs[prov].country.clone()
            };
            let handle = format!("stub-{s}");
            let rir = rir_of_country(&country).unwrap_or(orgs[prov].rir);
            let ca_idx = cas.len();
            let sia = org_sia(&mut rng, &config, rir, &handle);
            let mut ca = CertAuthority::new(&handle, &seeded(config.seed, &handle), sia);
            let cert = cas[orgs[prov].ca]
                .issue_cert(
                    &handle,
                    ca.public_key(),
                    ResourceSet::from_prefix(prefix),
                    ca.sia().clone(),
                    now,
                )
                .expect("stub /24 within provider /16");
            ca.install_cert(cert);
            cas.push(ca);
            topology.add_provider_customer(orgs[prov].asn, a);
            orgs.push(Org {
                handle,
                kind: OrgKind::Stub,
                asn: a,
                country,
                rir,
                prefixes: vec![prefix],
                parent: ParentRef::Org(prov),
                ca: ca_idx,
                adopted_roa: rng.gen_bool(config.roa_adoption),
            });
        }

        // --- ROAs and announcements ---
        let mut announcements = Vec::new();
        let mut as_country = BTreeMap::new();
        for org in &orgs {
            as_country.insert(org.asn, org.country.clone());
            for &prefix in &org.prefixes {
                announcements.push(Announcement { prefix, origin: org.asn });
                if org.adopted_roa {
                    cas[org.ca]
                        .issue_roa(org.asn, vec![RoaPrefix::exact(prefix)], now)
                        .expect("own prefix");
                }
            }
        }

        SyntheticInternet { config, orgs, cas, topology, announcements, as_country }
    }

    /// Registers a repository for every CA and publishes everything.
    /// Returns the TAL a relying party should use.
    pub fn materialize(
        &mut self,
        net: &mut Network,
        repos: &mut RepoRegistry,
        now: Moment,
    ) -> TrustAnchorLocator {
        for ca in &self.cas {
            let host = ca.sia().host().to_owned();
            if repos.by_host(&host).is_none() {
                repos.create(net, &host);
            }
        }
        let tal = repos.publish_trust_anchor(&self.cas[0]);
        self.publish_all(repos, now);
        tal
    }

    /// Republishes every CA's snapshot (periodic refresh). A CA whose
    /// host is not in `repos` is skipped.
    pub fn publish_all(&mut self, repos: &mut RepoRegistry, now: Moment) {
        for ca in &mut self.cas {
            repos.publish(ca, now);
        }
    }

    /// Advances `engine` one step over every CA (vector order — the
    /// index the schedule is keyed on) and republishes the touched
    /// snapshots into their repositories, so the planet-scale world
    /// churns like production publication points do. Returns the
    /// engine's report.
    pub fn run_churn(
        &mut self,
        engine: &mut ChurnEngine,
        repos: &mut RepoRegistry,
        now: Moment,
    ) -> ChurnReport {
        let report = engine.step_with(self.cas.iter_mut(), now);
        for &idx in &report.touched {
            repos.publish(&mut self.cas[idx], now);
        }
        report
    }

    /// Count of organisations that issued ROAs.
    pub fn adopters(&self) -> usize {
        self.orgs.iter().filter(|o| o.adopted_roa).count()
    }
}

fn seeded(seed: u64, handle: &str) -> String {
    format!("topogen-{seed}-{handle}")
}

fn slug(handle: &str) -> String {
    handle
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '-' })
        .collect()
}

fn sia_of(handle: &str) -> RepoUri {
    RepoUri::new(&format!("rpki.{}.example", slug(handle)), &["repo"])
}

/// Publication point under the RIR's shared repository host, for orgs
/// that do not run their own publication server.
fn rir_hosted_sia(rir: usize, handle: &str) -> RepoUri {
    RepoUri::new(&format!("rpki.{}.example", slug(RIRS[rir].name)), &["repo", &slug(handle)])
}

/// Roll the self-hosting dice for an ordinary org: most real-world CAs
/// publish under their RIR's repository rather than running their own
/// rsync/RRDP endpoint, so `config.self_hosting` is the probability of
/// a dedicated host. One RNG draw is always consumed, keeping worlds
/// with different `self_hosting` values byte-comparable elsewhere.
fn org_sia(rng: &mut impl Rng, config: &Config, rir: usize, handle: &str) -> RepoUri {
    if rng.gen_bool(config.self_hosting) {
        sia_of(handle)
    } else {
        rir_hosted_sia(rir, handle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = SyntheticInternet::generate(Config::small(11));
        let b = SyntheticInternet::generate(Config::small(11));
        assert_eq!(a.orgs.len(), b.orgs.len());
        assert_eq!(a.announcements, b.announcements);
        let countries_a: Vec<&String> = a.orgs.iter().map(|o| &o.country).collect();
        let countries_b: Vec<&String> = b.orgs.iter().map(|o| &o.country).collect();
        assert_eq!(countries_a, countries_b);
        // Different seed, different world.
        let c = SyntheticInternet::generate(Config::small(12));
        let countries_c: Vec<&String> = c.orgs.iter().map(|o| &o.country).collect();
        assert_ne!(countries_a, countries_c);
    }

    #[test]
    fn structure_matches_config() {
        let cfg = Config::small(5);
        let net = SyntheticInternet::generate(cfg);
        let anchors = net.orgs.iter().filter(|o| o.kind == OrgKind::Anchor).count();
        let transits = net.orgs.iter().filter(|o| o.kind == OrgKind::Transit).count();
        assert_eq!(anchors, ANCHOR_ORGS.len());
        assert_eq!(transits, cfg.transits);
        // Stubs: the configured ones plus one per anchor-customer row.
        let anchor_customers: usize = ANCHOR_ORGS.iter().map(|a| a.customer_countries.len()).sum();
        let stubs = net.orgs.iter().filter(|o| o.kind == OrgKind::Stub).count();
        assert_eq!(stubs, cfg.stubs + anchor_customers);
        // CA count: IANA + 5 RIRs + one per org.
        assert_eq!(net.cas.len(), 6 + net.orgs.len());
        // Full adoption in the small config.
        assert_eq!(net.adopters(), net.orgs.len());
    }

    #[test]
    fn allocations_nest_properly() {
        let net = SyntheticInternet::generate(Config::small(7));
        for org in &net.orgs {
            let own: ResourceSet = org.prefixes.iter().copied().collect();
            let parent_resources = match org.parent {
                ParentRef::Rir(r) => net.cas[1 + r].resources(),
                ParentRef::Org(p) => net.orgs[p].prefixes.iter().copied().collect::<ResourceSet>(),
            };
            assert!(
                parent_resources.contains_set(&own),
                "{} not inside its parent's space",
                org.handle
            );
        }
    }

    #[test]
    fn allocations_are_disjoint_across_branches() {
        // Two orgs' prefixes may nest only along an allocation chain;
        // unrelated branches must never overlap (the collision class
        // behind the old 8/8 pool bug).
        let net = SyntheticInternet::generate(Config::small(2024));
        let is_ancestor = |mut a: usize, b: usize| -> bool {
            loop {
                if a == b {
                    return true;
                }
                match net.orgs[a].parent {
                    ParentRef::Org(p) => a = p,
                    ParentRef::Rir(_) => return false,
                }
            }
        };
        for i in 0..net.orgs.len() {
            for j in (i + 1)..net.orgs.len() {
                let related = is_ancestor(i, j) || is_ancestor(j, i);
                if related {
                    continue;
                }
                for pa in &net.orgs[i].prefixes {
                    for pb in &net.orgs[j].prefixes {
                        assert!(
                            !pa.overlaps(*pb),
                            "{} {} overlaps {} {}",
                            net.orgs[i].handle,
                            pa,
                            net.orgs[j].handle,
                            pb
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn topology_is_connected_and_acyclic() {
        let net = SyntheticInternet::generate(Config::small(9));
        assert!(net.topology.find_transit_cycle().is_none());
        // Every org AS is in the graph.
        for org in &net.orgs {
            assert!(net.topology.contains(org.asn), "{} missing", org.handle);
        }
        // Stubs have at least one provider.
        for org in net.orgs.iter().filter(|o| o.kind == OrgKind::Stub) {
            assert!(!net.topology.providers(org.asn).is_empty(), "{}", org.handle);
        }
    }

    #[test]
    fn partial_adoption_respected() {
        let mut cfg = Config::small(13);
        cfg.roa_adoption = 0.0;
        cfg.anchors = false;
        let net = SyntheticInternet::generate(cfg);
        assert_eq!(net.adopters(), 0);
        cfg.roa_adoption = 1.0;
        let net = SyntheticInternet::generate(cfg);
        assert_eq!(net.adopters(), net.orgs.len());
    }

    #[test]
    fn self_hosting_knob_controls_fanout_without_changing_vrps() {
        use rpki_rp::{DirectSource, ValidationConfig, Validator};
        use std::collections::BTreeSet;

        let vrps_and_hosts = |self_hosting: f64| {
            let mut cfg = Config::small(31);
            cfg.anchors = false;
            cfg.self_hosting = self_hosting;
            let mut world = SyntheticInternet::generate(cfg);
            let mut net = Network::new(0);
            let mut repos = RepoRegistry::new();
            let tal = world.materialize(&mut net, &mut repos, Moment(1));
            let hosts: BTreeSet<String> =
                world.cas.iter().map(|ca| ca.sia().host().to_owned()).collect();
            let mut source = DirectSource::new(&repos);
            let run = Validator::new(ValidationConfig::at(Moment(2))).run(&mut source, &[tal]);
            (run.vrps, hosts.len())
        };

        let (vrps_self, hosts_self) = vrps_and_hosts(1.0);
        let (vrps_hosted, hosts_hosted) = vrps_and_hosts(0.0);
        // Fully hosted: only IANA + the five RIR hosts exist.
        assert_eq!(hosts_hosted, 6);
        // Fully self-hosted: every org runs its own host.
        assert!(hosts_self > hosts_hosted + 50);
        // The knob only moves publication points, never the VRP set:
        // both worlds consume one dice roll per org either way.
        assert!(!vrps_self.is_empty());
        assert_eq!(vrps_self, vrps_hosted);
    }

    #[test]
    fn planet_config_is_linear_enough_to_materialize() {
        // A mid-size planet slice: generation plus materialisation must
        // stay cheap (the full bench sweep runs far larger worlds).
        let mut world = SyntheticInternet::generate(Config::planet(77, 2000));
        let mut net = Network::new(0);
        let mut repos = RepoRegistry::new();
        world.materialize(&mut net, &mut repos, Moment(1));
        // RIR-hosted fan-out: almost all orgs share the 6 infra hosts.
        use std::collections::BTreeSet;
        let hosts: BTreeSet<String> =
            world.cas.iter().map(|ca| ca.sia().host().to_owned()).collect();
        assert!(world.orgs.len() >= 2100, "{} orgs", world.orgs.len());
        assert!(hosts.len() < world.orgs.len() / 4, "{} hosts", hosts.len());
    }

    #[test]
    fn materialized_world_validates() {
        use rpki_rp::{DirectSource, ValidationConfig, Validator};
        let mut world = SyntheticInternet::generate(Config::small(21));
        let mut net = Network::new(0);
        let mut repos = RepoRegistry::new();
        let tal = world.materialize(&mut net, &mut repos, Moment(1));
        let mut source = DirectSource::new(&repos);
        let run = Validator::new(ValidationConfig::at(Moment(2)))
            .run(&mut source, std::slice::from_ref(&tal));
        // Every org is a CA on the tree (plus IANA + RIRs).
        assert_eq!(run.cas.len(), 6 + world.orgs.len());
        // One VRP per adopted prefix.
        let expected: usize =
            world.orgs.iter().filter(|o| o.adopted_roa).map(|o| o.prefixes.len()).sum();
        assert_eq!(run.vrps.len(), expected);
    }

    #[test]
    fn cross_border_knob_moves_the_needle() {
        let mut low_cfg = Config::small(31);
        low_cfg.cross_border = 0.0;
        low_cfg.anchors = false;
        let low = SyntheticInternet::generate(low_cfg);
        let mismatched = |net: &SyntheticInternet| {
            net.orgs
                .iter()
                .filter(|o| matches!(o.parent, ParentRef::Org(_)))
                .filter(|o| {
                    let ParentRef::Org(p) = o.parent else { unreachable!() };
                    net.orgs[p].country != o.country
                })
                .count()
        };
        assert_eq!(mismatched(&low), 0);
        let mut high_cfg = low_cfg;
        high_cfg.cross_border = 0.9;
        let high = SyntheticInternet::generate(high_cfg);
        assert!(mismatched(&high) > low_cfg.stubs / 3, "got {}", mismatched(&high));
    }
}
