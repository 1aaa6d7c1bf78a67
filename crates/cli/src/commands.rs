//! Subcommand implementations.

use std::process::ExitCode;
use std::str::FromStr;

use bgp_sim::RpkiPolicy;
use ipres::Asn;
use rpki_attacks::{damage_between, plan_whack, probes_for, WhackStep};
use rpki_objects::Moment;
use rpki_risk::fixtures::asn;
use rpki_risk::{collapse_bands, jurisdiction_report, rir_reach, validity_grid, ModelRpki};
use topogen::{Config, SyntheticInternet};

/// Top-level usage text.
pub const USAGE: &str = "\
rpki-risk — misbehaving-RPKI-authority analysis (HotNets '13 reproduction)

USAGE:
    rpki-risk <COMMAND> [OPTIONS]

COMMANDS:
    demo                 Build and validate the paper's Figure 2 model RPKI
    whack                Plan and execute a targeted ROA whack in the model
        --origin <ASN>       target ROA by origin AS (default 17054)
        --dry-run            plan only; do not execute
    audit                Jurisdiction audit of a synthetic Internet (Table 4)
        --seed <N>           generator seed (default 2013)
        --scale <N>          world size multiplier (default 1)
    tradeoff             The drop-vs-depref policy comparison (Table 6)
    grid                 Route-validity bands for 63.160.0.0/12 (Figure 5)
        --right              include Sprint's covering /12-13 ROA
    help                 Show this message

All commands accept --json to emit a machine-readable record on stderr.
";

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// The number after flag `name`, or `default` when the flag is absent.
/// A flag that is present must carry a value that parses: otherwise the
/// offending flag and the usage go to stderr and this is `None`, on
/// which the command fails.
fn number_opt<T: FromStr>(args: &[String], name: &str, default: T) -> Option<T> {
    let Some(at) = args.iter().position(|a| a == name) else {
        return Some(default);
    };
    let value = args.get(at + 1);
    let parsed = value.and_then(|v| v.parse().ok());
    if parsed.is_none() {
        match value {
            Some(v) => eprintln!("{name} takes a number, not {v:?}\n"),
            None => eprintln!("{name} takes a number, but none was given\n"),
        }
        eprint!("{USAGE}");
    }
    parsed
}

fn emit_json<T: serde::Serialize>(args: &[String], label: &str, value: &T) {
    if flag(args, "--json") {
        eprintln!("{}", serde_json::json!({ "command": label, "data": value }));
    }
}

/// `rpki-risk demo`
pub fn demo(args: &[String]) -> ExitCode {
    let w = ModelRpki::build();
    println!("model RPKI (the paper's Figure 2, reconstructed)\n");
    println!("ARIN (trust anchor): {}", w.arin.resources());
    for ca in [&w.sprint, &w.etb, &w.continental] {
        println!("  RC → {:<24} {}", ca.handle(), ca.resources());
        for roa in ca.issued_roas() {
            println!("       {roa}");
        }
    }
    let run = w.validate_direct(Moment(2));
    println!(
        "\nvalidation: {} CAs, {} VRPs, {} diagnostics",
        run.cas.len(),
        run.vrps.len(),
        run.diagnostics.len()
    );
    emit_json(args, "demo", &run.vrps);
    ExitCode::SUCCESS
}

/// `rpki-risk whack --origin <asn> [--dry-run]`
pub fn whack(args: &[String]) -> ExitCode {
    let Some(origin) = number_opt(args, "--origin", asn::CONTINENTAL.0) else {
        return ExitCode::FAILURE;
    };
    let mut w = ModelRpki::build();
    let before = w.validate_direct(Moment(2));

    let view = w.continental_view();
    let Some(target) = view.roas.iter().find(|r| r.asn() == Asn(origin)) else {
        eprintln!("no ROA with origin AS{origin} at Continental's publication point;");
        eprintln!("try one of:");
        for roa in &view.roas {
            eprintln!("  --origin {}", roa.asn().0);
        }
        return ExitCode::FAILURE;
    };
    let target_file = target.file_name();
    let plan = match plan_whack(std::slice::from_ref(&view), &target_file) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("planning failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!("target : {}", plan.target);
    println!("carve  : {}", plan.carved);
    println!("reissues needed (detection surface): {}", plan.reissued);
    for step in &plan.steps {
        match step {
            WhackStep::OverwriteChildCert { handle, new_resources, .. } => {
                println!("step   : overwrite RC of {handle} → {new_resources}");
            }
            WhackStep::ReissueCertAsOwn { handle, .. } => {
                println!("step   : reissue RC of {handle} as own child");
            }
            WhackStep::ReissueRoaAsOwn { asn, .. } => {
                println!("step   : reissue ROA of {asn} as own");
            }
        }
    }

    if flag(args, "--dry-run") {
        println!("\n(dry run; nothing executed)");
        emit_json(args, "whack-plan", &plan.reissued);
        return ExitCode::SUCCESS;
    }

    plan.execute(&mut w.sprint, Moment(3)).expect("model execution");
    w.publish_all(Moment(3));
    let after = w.validate_direct(Moment(4));
    let damage = damage_between(&before.vrps, &after.vrps, &probes_for(&before.vrps));
    println!("\nexecuted. VRPs {} → {}", before.vrps.len(), after.vrps.len());
    for (route, state) in &damage.routes_degraded {
        println!("degraded: {route} → {state}");
    }
    let clean = damage.clean_except(&[Asn(origin)]);
    println!("collateral-free: {clean}");
    emit_json(args, "whack", &damage);
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `rpki-risk audit [--seed N] [--scale N]`
pub fn audit(args: &[String]) -> ExitCode {
    let (Some(seed), Some(scale)) =
        (number_opt(args, "--seed", 2013u64), number_opt(args, "--scale", 1usize))
    else {
        return ExitCode::FAILURE;
    };
    let config = Config {
        seed,
        transits: 25 * scale,
        stubs: 200 * scale,
        roa_adoption: 1.0,
        cross_border: 0.15,
        anchors: true,
        self_hosting: 1.0,
    };
    let world = SyntheticInternet::generate(config);
    let report = jurisdiction_report(&world);
    println!(
        "{} of {} RCs cover countries outside their parent RIR's region\n",
        report.rcs_crossing_borders, report.rcs_examined
    );
    for row in report.rows.iter().take(12) {
        println!(
            "  {:<14} {:<16} via {:<7} → {}",
            row.holder,
            row.rc.join(","),
            row.rir,
            row.foreign_countries.join(",")
        );
    }
    println!("\nper-RIR whacking reach into non-member countries:");
    for r in rir_reach(&world) {
        if r.foreign_orgs > 0 {
            println!(
                "  {:<8} {:>3} orgs in {}",
                r.rir,
                r.foreign_orgs,
                r.whackable_foreign_countries.join(",")
            );
        }
    }
    emit_json(args, "audit", &report.rows);
    ExitCode::SUCCESS
}

/// `rpki-risk tradeoff`
pub fn tradeoff(args: &[String]) -> ExitCode {
    let table = rpki_risk::tradeoff::table6(&ModelRpki::build());
    println!("{:<16} {:>14} {:>14}", "policy", "under hijack", "under whack");
    for policy in [RpkiPolicy::Ignore, RpkiPolicy::DropInvalid, RpkiPolicy::DeprefInvalid] {
        println!(
            "{:<16} {:>13.0}% {:>13.0}%",
            format!("{policy:?}"),
            table.get("routing attack", policy).unwrap_or(0.0) * 100.0,
            table.get("RPKI manipulation", policy).unwrap_or(0.0) * 100.0,
        );
    }
    emit_json(args, "tradeoff", &table.rows);
    ExitCode::SUCCESS
}

/// `rpki-risk grid [--right]`
pub fn grid(args: &[String]) -> ExitCode {
    let mut w = ModelRpki::build();
    if flag(args, "--right") {
        w.add_figure5_right_roa(Moment(2));
    }
    let cache = w.validate_direct(Moment(3)).vrp_cache();
    let origins = [asn::SPRINT, asn::CONTINENTAL, asn::CUSTOMER_A];
    let rows = validity_grid(&cache, "63.160.0.0/12".parse().unwrap(), 24, &origins);
    let bands = collapse_bands(&rows);
    println!(
        "{:<38} {:>4} {:>6}  {:<8} {:<8} {:<8}",
        "prefix range", "len", "count", "AS1239", "AS17054", "AS7341"
    );
    for band in &bands {
        let range = if band.count == 1 {
            band.first.to_string()
        } else {
            format!("{} … {}", band.first, band.last)
        };
        println!(
            "{:<38} {:>4} {:>6}  {:<8} {:<8} {:<8}",
            range,
            band.first.len(),
            band.count,
            band.states[0].1.to_string(),
            band.states[1].1.to_string(),
            band.states[2].1.to_string(),
        );
    }
    emit_json(args, "grid", &bands);
    ExitCode::SUCCESS
}
