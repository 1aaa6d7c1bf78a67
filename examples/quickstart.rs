//! Quickstart: build a tiny RPKI, publish it, validate it, and classify
//! BGP routes — the whole pipeline in one file.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use ipres::{Asn, ResourceSet};
use netsim::Network;
use rpki_ca::CertAuthority;
use rpki_objects::{Moment, RepoUri, RoaPrefix, Span};
use rpki_repo::RepoRegistry;
use rpki_risk::{ValidationOptions, VantagePoint};
use rpki_rp::Route;

fn main() {
    // 1. A network with a relying party and two repository hosts.
    let mut net = Network::new(1);
    let rp = net.add_node("relying-party");
    let mut repos = RepoRegistry::new();
    repos.create(&mut net, "rpki.registry.example");
    repos.create(&mut net, "rpki.isp.example");

    // 2. A registry (trust anchor) that suballocates 10.0.0.0/8 to an
    //    ISP.
    let registry_dir = RepoUri::new("rpki.registry.example", &["repo"]);
    let isp_dir = RepoUri::new("rpki.isp.example", &["repo"]);
    let mut registry = CertAuthority::new("Registry", "quickstart-registry", registry_dir);
    registry.certify_self(ResourceSet::from_prefix_strs("10.0.0.0/8"), Moment(0), Span::days(3650));
    let mut isp = CertAuthority::new("ExampleISP", "quickstart-isp", isp_dir.clone());
    let cert = registry
        .issue_cert(
            "ExampleISP",
            isp.public_key(),
            ResourceSet::from_prefix_strs("10.20.0.0/16"),
            isp_dir.clone(),
            Moment(0),
        )
        .expect("registry holds the /8");
    isp.install_cert(cert);

    // 3. The ISP authorises AS 65001 to originate its /16 and
    //    subprefixes down to /20.
    let roa = isp
        .issue_roa(
            Asn(65001),
            vec![RoaPrefix::up_to("10.20.0.0/16".parse().unwrap(), 20)],
            Moment(0),
        )
        .expect("own space");
    println!("issued {roa}");

    // 4. Publish everything: the TA certificate out of band, each CA's
    //    snapshot at its publication point.
    let tal = repos.publish_trust_anchor(&registry);
    for ca in [&mut registry, &mut isp] {
        assert!(repos.publish(ca, Moment(1)), "both hosts are registered");
    }

    // 5. A relying party validates over the (simulated) network from
    //    the trust anchor locator.
    let run = ValidationOptions::at(Moment(2)).run(VantagePoint {
        net: &mut net,
        repos: &repos,
        node: rp,
        tals: std::slice::from_ref(&tal),
    });
    println!(
        "validated {} CA(s), {} VRP(s), {} diagnostic(s)",
        run.cas.len(),
        run.vrps.len(),
        run.diagnostics.len()
    );

    // 6. Classify routes per RFC 6811.
    let cache = run.vrp_cache();
    let routes = [
        ("the ISP's own /16", Route::new("10.20.0.0/16".parse().unwrap(), Asn(65001))),
        ("an authorised /20", Route::new("10.20.16.0/20".parse().unwrap(), Asn(65001))),
        ("a subprefix hijack", Route::new("10.20.16.0/20".parse().unwrap(), Asn(666))),
        ("a too-long /24", Route::new("10.20.16.0/24".parse().unwrap(), Asn(65001))),
        ("an unrelated prefix", Route::new("192.0.2.0/24".parse().unwrap(), Asn(65001))),
    ];
    for (label, route) in routes {
        println!("{label:>22}: {route} → {}", cache.classify(route));
    }

    assert_eq!(run.vrps.len(), 1);
    println!("\nquickstart OK");
}
