//! Subcommand implementations: one per artifact of the paper. Each
//! prints its figure or table, then checks the paper's shape on what
//! it computed ([`shape`]) and fails when the shape breaks.

use std::process::ExitCode;
use std::str::FromStr;

use bgp_sim::RpkiPolicy;
use ipres::Asn;
use rpki_attacks::{damage_between, plan_whack, probes_for, DamageReport, WhackPlan, WhackStep};
use rpki_objects::Moment;
use rpki_obs::{Recorder, Summary, SummaryTable};
use rpki_risk::fixtures::{asn, ca};
use rpki_risk::{
    collapse_bands, jurisdiction_report, rir_reach, se5_new_roa_impact, se6_missing_roa_impact,
    validity_grid, Fetch, LoopbackWorld, ValidationOptions, World, MODEL_SEED,
};
use rpki_rp::{ResilienceConfig, ResilientState, Route, RouteValidity, Vrp};
use serde::Serialize;
use topogen::{Config, OrgKind, SyntheticInternet, ANCHOR_ORGS};

/// Top-level usage text.
pub const USAGE: &str = "\
rpki-risk — misbehaving-RPKI-authority analysis (HotNets '13 reproduction)

Each command reproduces one artifact of the paper: it prints it, checks
the paper's shape on what it computed, and exits non-zero if it broke.

USAGE:
    rpki-risk <COMMAND> [OPTIONS]

COMMANDS:
    loop                 The RPKI-BGP dependency loop at fixed point (Figure 1)
    demo                 Build and validate the paper's model RPKI (Figure 2)
    whack                Targeted ROA whacks by a grandparent (Figure 3)
        --origin <ASN>       one target ROA by origin AS (default: both of Figure 3's)
        --dry-run            plan only; do not execute
    audit                Jurisdiction audit of a synthetic Internet (Table 4)
        --seed <N>           generator seed (default 2013)
        --scale <N>          world size multiplier, at least 1 (default 1)
    grid                 Route-validity bands for 63.160.0.0/12 (Figure 5)
        --right              include Sprint's covering /12-13 ROA
    tradeoff             The drop-vs-depref policy comparison (Table 6)
    se5                  A new covering ROA invalidates routes (Side Effect 5)
        --scale <N>          world size multiplier, at least 1 (default 1)
    se6                  A missing ROA invalidates routes (Side Effect 6)
        --scale <N>          world size multiplier, at least 1 (default 1)
    se7                  A transient fault becomes a persistent one (Side Effect 7)
        --trace <PATH>       write the run's JSONL event trace to PATH
    help                 Show this message

All commands accept --json to emit a machine-readable record on stderr.
";

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Puts `problem` and the usage on stderr; `None`, on which the
/// command fails without running.
fn refuse<T>(problem: &str) -> Option<T> {
    eprintln!("{problem}\n");
    eprint!("{USAGE}");
    None
}

/// The number after flag `name`, or `default` when the flag is absent.
/// A flag that is present must carry a value that parses: otherwise
/// this is [`refuse`]d.
fn number_opt<T: FromStr>(args: &[String], name: &str, default: T) -> Option<T> {
    let Some(at) = args.iter().position(|a| a == name) else {
        return Some(default);
    };
    match args.get(at + 1) {
        Some(v) => v.parse().ok().or_else(|| refuse(&format!("{name} takes a number, not {v:?}"))),
        None => refuse(&format!("{name} takes a number, but none was given")),
    }
}

/// `--scale N`: a world-size multiplier, so zero is refused too.
fn scale_opt(args: &[String]) -> Option<usize> {
    match number_opt(args, "--scale", 1)? {
        0 => refuse("--scale multiplies the world size, so it must be at least 1"),
        scale => Some(scale),
    }
}

/// The path after flag `name`: `Some(None)` when the flag is absent,
/// [`refuse`]d when it is present without one.
fn path_opt(args: &[String], name: &str) -> Option<Option<String>> {
    let Some(at) = args.iter().position(|a| a == name) else {
        return Some(None);
    };
    match args.get(at + 1) {
        Some(path) if !path.starts_with("--") => Some(Some(path.clone())),
        _ => refuse(&format!("{name} takes a path, but none was given")),
    }
}

fn emit_json<T: serde::Serialize>(args: &[String], label: &str, value: &T) {
    if flag(args, "--json") {
        eprintln!("{}", serde_json::json!({ "command": label, "data": value }));
    }
}

/// Ends a subcommand: prints `claim` when every check holds; otherwise
/// names each broken one on stderr and fails.
fn shape<S: AsRef<str>>(claim: &str, checks: &[(bool, S)]) -> ExitCode {
    let broken: Vec<&str> =
        checks.iter().filter(|(holds, _)| !holds).map(|(_, what)| what.as_ref()).collect();
    if broken.is_empty() {
        println!("\nOK: {claim}");
        return ExitCode::SUCCESS;
    }
    for what in broken {
        eprintln!("shape broken: {what}");
    }
    ExitCode::FAILURE
}

/// `rpki-risk loop` — Figure 1: the loopback fixed point from a healthy
/// cache and from one that lost a ROA. The machinery that distributes
/// RPKI objects depends on the routes those objects validate.
pub fn dependency_loop(args: &[String]) -> ExitCode {
    println!("Figure 1 — the RPKI ⇆ BGP dependency loop, executed to fixed point");

    let mut w = World::model(MODEL_SEED);
    w.add_figure5_right_roa(Moment(2));
    let full = w.validate_direct(Moment(3)).vrps;
    let degraded: Vec<Vrp> = full.iter().copied().filter(|v| v.asn != asn::CONTINENTAL).collect();

    let mut world = w.loopback(RpkiPolicy::DropInvalid);
    let healthy = world.run(&full, Moment(3), None);
    let trapped = world.run(&degraded, Moment(4), None);

    let mut table =
        SummaryTable::new(&["starting cache", "iterations", "fetchable repos", "final VRPs"]);
    for (label, out) in [("complete", &healthy), ("one ROA lost", &trapped)] {
        table.row(&[
            label.to_owned(),
            out.iterations.to_string(),
            out.reachable_repos.len().to_string(),
            out.vrps.len().to_string(),
        ]);
    }
    table.print("Fixed points under drop-invalid");
    println!("\nUnreachable at the degraded fixed point: {:?}", trapped.unreachable_repos);

    emit_json(args, "loop", &serde_json::json!({ "healthy": healthy, "trapped": trapped }));
    let continental = "rpki.continental.example";
    shape(
        "validity gates transport gates validity — the loop of Figure 1 is closed \
         and has multiple stable states.",
        &[
            (healthy.can_fetch(continental), "the complete cache must reach Continental"),
            (!trapped.can_fetch(continental), "the degraded cache must lose Continental"),
            (
                trapped.vrps.len() < healthy.vrps.len(),
                "the trapped fixed point must hold fewer VRPs",
            ),
        ],
    )
}

/// `rpki-risk demo` — Figure 2: the reconstructed model RPKI, validated.
pub fn demo(args: &[String]) -> ExitCode {
    let w = World::model(MODEL_SEED);
    println!("model RPKI (the paper's Figure 2, reconstructed)\n");
    println!("ARIN (trust anchor): {}", w.cas[ca::ARIN].resources());
    for ca in &w.cas[ca::SPRINT..] {
        let issuer = if ca.handle() == "Sprint" { "ARIN" } else { "Sprint" };
        println!("└─ RC → {:<24} {}  (issued by {issuer})", ca.handle(), ca.resources());
        for roa in ca.issued_roas() {
            println!("   └─ {roa}");
        }
    }

    let run = w.validate_direct(Moment(2));
    let mut cas = SummaryTable::new(&["validated CA", "depth", "resources"]);
    for ca in &run.cas {
        cas.row(&[ca.handle.to_string(), ca.depth.to_string(), ca.resources.join(", ")]);
    }
    cas.print("Validated hierarchy");
    let mut vrps = SummaryTable::new(&["VRP", "origin"]);
    for v in &run.vrps {
        vrps.row(&[format!("{}-{}", v.prefix, v.max_len), v.asn.to_string()]);
    }
    vrps.print("Validated ROA payloads");
    println!(
        "\nvalidation: {} CAs, {} VRPs, {} diagnostics",
        run.cas.len(),
        run.vrps.len(),
        run.diagnostics.len()
    );

    emit_json(args, "demo", &run.vrps);
    shape(
        "the model validates to 8 VRPs across 4 CAs.",
        &[
            (run.vrps.len() == 8, "the model must validate to 8 VRPs"),
            (run.cas.len() == 4, "the model must validate 4 CAs"),
        ],
    )
}

/// Sprint, the grandparent, plans the whack of Continental's ROA for
/// `origin` from public data and, unless `dry_run`, executes it and
/// measures the damage against the validator. `None` (after saying why
/// on stderr) when there is no such ROA or no plan.
fn whack_one(origin: Asn, dry_run: bool) -> Option<(WhackPlan, Option<DamageReport>)> {
    let mut w = World::model(MODEL_SEED);
    let before = w.validate_direct(Moment(2));

    let view = w.continental_view();
    let Some(target) = view.roas.iter().find(|r| r.asn() == origin) else {
        eprintln!("no ROA with origin {origin} at Continental's publication point;");
        eprintln!("try one of:");
        for roa in &view.roas {
            eprintln!("  --origin {}", roa.asn().0);
        }
        return None;
    };
    let plan = match plan_whack(std::slice::from_ref(&view), &target.file_name()) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("planning failed: {e}");
            return None;
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
                println!("step   : reissue RC of {handle} as Sprint's own (SUSPICIOUS)");
            }
            WhackStep::ReissueRoaAsOwn { asn, prefixes } => {
                let ps: Vec<String> = prefixes.iter().map(|p| p.to_string()).collect();
                println!(
                    "step   : reissue ROA ({}, {asn}) at Sprint's pub point (SUSPICIOUS)",
                    ps.join(" ")
                );
            }
        }
    }
    if dry_run {
        return Some((plan, None));
    }

    plan.execute(&mut w.cas[ca::SPRINT], Moment(3)).expect("model execution");
    w.publish_all(Moment(3));
    let after = w.validate_direct(Moment(4));
    let damage = damage_between(&before.vrps, &after.vrps, &probes_for(&before.vrps));
    println!("\nexecuted. VRPs {} → {}", before.vrps.len(), after.vrps.len());
    for (route, state) in &damage.routes_degraded {
        println!("degraded: {route} → {state}");
    }
    println!("collateral-free: {}", damage.clean_except(&[origin]));
    Some((plan, Some(damage)))
}

/// One Figure 3 construction, as `whack` without `--origin` exports it.
#[derive(Serialize)]
struct WhackRecord {
    attack: &'static str,
    target: String,
    carved: String,
    reissued: usize,
    vrps_lost: Option<usize>,
    clean: Option<bool>,
}

/// `rpki-risk whack [--origin <asn>] [--dry-run]` — Figure 3. Without
/// `--origin`, both Section 3.1 constructions: the collateral-free
/// carve (Side Effect 3) and the make-before-break reissue.
pub fn whack(args: &[String]) -> ExitCode {
    let dry_run = flag(args, "--dry-run");
    if flag(args, "--origin") {
        let Some(origin) = number_opt(args, "--origin", 0) else {
            return ExitCode::FAILURE;
        };
        let Some((plan, damage)) = whack_one(Asn(origin), dry_run) else {
            return ExitCode::FAILURE;
        };
        let Some(damage) = damage else {
            println!("\n(dry run; nothing executed)");
            emit_json(args, "whack-plan", &plan.reissued);
            return ExitCode::SUCCESS;
        };
        emit_json(args, "whack", &damage);
        let clean = damage.clean_except(&[Asn(origin)]);
        return shape(
            "the target is gone and no other route lost validity.",
            &[(clean, "the whack must be collateral-free")],
        );
    }

    println!("Figure 3 — targeted whacking by a grandparent (Sprint)");
    let mut records = Vec::new();
    let mut checks = Vec::new();
    for (attack, origin, reissues) in [
        ("carve-out (SE3)", asn::CONTINENTAL, 0),
        ("make-before-break (Fig 3)", asn::CUSTOMER_A, 1),
    ] {
        println!("\n== {attack} whack of {origin}'s ROA ==\n");
        let Some((plan, damage)) = whack_one(origin, dry_run) else {
            return ExitCode::FAILURE;
        };
        let clean = damage.as_ref().map(|d| d.clean_except(&[origin]));
        checks.push((plan.reissued == reissues, format!("the {attack} needs {reissues} reissues")));
        checks.push((clean != Some(false), format!("the {attack} must be collateral-free")));
        records.push(WhackRecord {
            attack,
            target: plan.target,
            carved: plan.carved.to_string(),
            reissued: plan.reissued,
            vrps_lost: damage.as_ref().map(|d| d.lost_vrps.len()),
            clean,
        });
    }

    let mut summary =
        SummaryTable::new(&["attack", "carved", "suspicious reissues", "collateral-free"]);
    for r in &records {
        let clean = r.clean.map_or("(dry run)".to_owned(), |c| c.to_string());
        summary.row(&[r.attack.to_owned(), r.carved.clone(), r.reissued.to_string(), clean]);
    }
    summary.print("Summary");

    if dry_run {
        println!("\n(dry run; nothing executed)");
        emit_json(args, "whack-plan", &records);
        return shape("the carve needs no reissue, make-before-break needs one.", &checks);
    }
    emit_json(args, "whack", &records);
    shape("a grandparent whacks either target with no collateral damage.", &checks)
}

/// `rpki-risk audit [--seed N] [--scale N]` — Table 4: the Section 3.2
/// measurement over a seeded synthetic Internet carrying the paper's
/// anchor organisations plus random cross-border suballocation.
pub fn audit(args: &[String]) -> ExitCode {
    let (Some(seed), Some(scale)) = (number_opt(args, "--seed", 2013u64), scale_opt(args)) else {
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
    println!(
        "Table 4 — cross-jurisdiction certification (synthetic Internet, seed {}, {} transits, {} stubs)",
        config.seed, config.transits, config.stubs
    );
    let world = SyntheticInternet::generate(config);
    let report = jurisdiction_report(&world);
    let is_anchor = |holder: &str| ANCHOR_ORGS.iter().any(|a| a.name == holder);

    // The paper's table: the planted anchors, with their foreign
    // coverage as measured on the generated world.
    let mut table =
        SummaryTable::new(&["Holder", "RC", "RIR", "Countries outside RIR jurisdiction"]);
    let anchors: Vec<_> = report.rows.iter().filter(|r| is_anchor(&r.holder)).collect();
    for row in &anchors {
        table.row(&[
            row.holder.clone(),
            row.rc.join(", "),
            row.rir.to_owned(),
            row.foreign_countries.join(","),
        ]);
    }
    table.print("Anchor rows (the paper's Table 4)");

    // The aggregate claim: "cross-country certification is not
    // uncommon".
    let mut agg = SummaryTable::new(&["metric", "value"]);
    agg.row(&["RCs examined".to_owned(), report.rcs_examined.to_string()]);
    agg.row(&[
        "RCs covering foreign countries".to_owned(),
        report.rcs_crossing_borders.to_string(),
    ]);
    agg.row(&[
        "…of which organic (non-anchor)".to_owned(),
        (report.rows.len() - anchors.len()).to_string(),
    ]);
    agg.row(&[
        "fraction crossing borders".to_owned(),
        format!("{:.1}%", 100.0 * report.rcs_crossing_borders as f64 / report.rcs_examined as f64),
    ]);
    agg.print("Aggregates");

    // Section 3.2's per-registry claim: "ARIN can whack ROAs for Europe
    // and the Middle East; RIPE can whack ROAs in Asia and the
    // Americas."
    let reach = rir_reach(&world);
    let mut reach_table =
        SummaryTable::new(&["RIR", "foreign orgs under it", "countries it could whack"]);
    for r in reach.iter().filter(|r| r.foreign_orgs > 0) {
        reach_table.row(&[
            r.rir.to_owned(),
            r.foreign_orgs.to_string(),
            r.whackable_foreign_countries.join(","),
        ]);
    }
    reach_table.print("Whacking reach across legal borders, per RIR");

    emit_json(args, "audit", &report.rows);
    let arin_reaches_ripe = reach.iter().any(|r| {
        r.rir == "ARIN" && r.whackable_foreign_countries.iter().any(|c| c == "FR" || c == "RU")
    });
    shape(
        "cross-country certification is not uncommon (shape of Section 3.2 holds).",
        &[
            (anchors.len() == ANCHOR_ORGS.len(), "every anchor must appear in the report"),
            (
                report.rcs_crossing_borders >= ANCHOR_ORGS.len(),
                "at least the anchors must cross borders",
            ),
            (arin_reaches_ripe, "ARIN must reach into RIPE's region through its anchors"),
        ],
    )
}

/// `rpki-risk grid [--right]` — Figure 5: route-validity bands for
/// 63.160.0.0/12 and its subprefixes, under the Figure 2 ROAs (left)
/// or after Sprint adds `(63.160.0.0/12-13, AS1239)` (right).
pub fn grid(args: &[String]) -> ExitCode {
    let mut w = World::model(MODEL_SEED);
    let left = w.validate_direct(Moment(2)).vrp_cache();
    w.add_figure5_right_roa(Moment(3));
    let right = w.validate_direct(Moment(4)).vrp_cache();
    let (title, cache) = if flag(args, "--right") {
        ("Figure 5 (right): after adding (63.160.0.0/12-13, AS1239)", &right)
    } else {
        ("Figure 5 (left): validity under the Figure 2 ROAs", &left)
    };

    let origins = [asn::SPRINT, asn::CONTINENTAL, asn::CUSTOMER_A, Asn(666) /* anyone else */];
    let rows = validity_grid(cache, "63.160.0.0/12".parse().unwrap(), 24, &origins);
    let bands = collapse_bands(&rows);
    let mut header = vec!["prefix range".to_owned(), "len".to_owned(), "count".to_owned()];
    header.extend(origins.iter().map(|o| o.to_string()));
    let mut table = SummaryTable::new(&header);
    for band in &bands {
        let mut cells = vec![
            if band.count == 1 {
                band.first.to_string()
            } else {
                format!("{} … {}", band.first, band.last)
            },
            band.first.len().to_string(),
            band.count.to_string(),
        ];
        cells.extend(band.states.iter().map(|(_, s)| s.to_string()));
        table.row(&cells);
    }
    table.print(title);

    emit_json(args, "grid", &bands);
    // The paper's headline deltas, whichever panel was printed.
    let unknown_probe = Route::new("63.161.0.0/16".parse().unwrap(), Asn(666));
    let covered_probe = Route::new("63.174.17.0/24".parse().unwrap(), asn::CONTINENTAL);
    shape(
        "63.161.0.0/16 flips unknown→invalid (Side Effect 5); \
         63.174.17.0/24 is invalid even on the left (cover ≠ match).",
        &[
            (
                left.classify(unknown_probe) == RouteValidity::Unknown,
                "63.161.0.0/16 (AS666) must be unknown on the left",
            ),
            (
                right.classify(unknown_probe) == RouteValidity::Invalid,
                "63.161.0.0/16 (AS666) must be invalid on the right",
            ),
            (
                left.classify(covered_probe) == RouteValidity::Invalid,
                "63.174.17.0/24 (AS17054) must be invalid on the left",
            ),
        ],
    )
}

/// `rpki-risk tradeoff` — Table 6: prefix reachability during a routing
/// attack vs during an RPKI manipulation, under each relying-party
/// policy (the scenario is `tradeoff::table6`).
pub fn tradeoff(args: &[String]) -> ExitCode {
    println!("Table 6 — impact of relying-party local policies\n");
    let table = rpki_risk::tradeoff::table6(&World::model(MODEL_SEED));
    println!("{:<16} {:>14} {:>14}", "policy", "under hijack", "under whack");
    for policy in [RpkiPolicy::Ignore, RpkiPolicy::DropInvalid, RpkiPolicy::DeprefInvalid] {
        println!(
            "{:<16} {:>13.0}% {:>13.0}%",
            format!("{policy:?}"),
            table.get("routing attack", policy).unwrap_or(0.0) * 100.0,
            table.get("RPKI manipulation", policy).unwrap_or(0.0) * 100.0,
        );
    }
    let c = table.convergence;
    println!(
        "\nwork: {} rounds, {} route updates, {} pairs evaluated, validity memo {}/{} hits",
        c.rounds,
        c.route_updates,
        c.pairs_evaluated,
        c.memo_hits,
        c.memo_hits + c.memo_misses,
    );

    emit_json(args, "tradeoff", &table.rows);
    // The paper's shape: drop-invalid ✓/✗, depref ✗(hijackable)/✓.
    let hijack = |policy| table.get("routing attack", policy);
    let whack = |policy| table.get("RPKI manipulation", policy);
    shape(
        "the policy best against BGP attacks is worst against RPKI manipulation \
         (Section 5's tradeoff).",
        &[
            (hijack(RpkiPolicy::DropInvalid) == Some(1.0), "drop-invalid must survive the hijack"),
            (whack(RpkiPolicy::DropInvalid) == Some(0.0), "drop-invalid must lose to the whack"),
            (
                hijack(RpkiPolicy::DeprefInvalid).is_some_and(|f| f < 1.0),
                "depref-invalid must leave the subprefix hijack open",
            ),
            (
                whack(RpkiPolicy::DeprefInvalid) == Some(1.0),
                "depref-invalid must survive the whack",
            ),
        ],
    )
}

/// One adoption level of the Side Effect 5 sweep.
#[derive(Serialize)]
struct SweepRow {
    adoption: f64,
    routes: usize,
    newly_invalid: usize,
    newly_valid: usize,
}

/// `rpki-risk se5 [--scale N]` — Side Effect 5: a transit issues a
/// covering ROA for its aggregate over a partially-adopted synthetic
/// Internet, and every customer route without a ROA of its own flips
/// unknown → invalid (citation \[43\] of the paper saw the production
/// RPKI do this). The adoption sweep shows the blast radius shrinking
/// as leaves deploy first.
pub fn se5(args: &[String]) -> ExitCode {
    let Some(scale) = scale_opt(args) else {
        return ExitCode::FAILURE;
    };
    println!(
        "Side Effect 5 — a transit issues a covering ROA for its aggregate\n\
         (unknown customer routes inside it become INVALID)"
    );

    let mut table = SummaryTable::new(&[
        "leaf ROA adoption",
        "customer routes",
        "flip → invalid",
        "flip → valid",
    ]);
    let mut sweep = Vec::new();
    for adoption in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let world = SyntheticInternet::generate(Config {
            seed: 42,
            transits: 10 * scale,
            stubs: 150 * scale,
            roa_adoption: adoption,
            cross_border: 0.1,
            anchors: false,
            self_hosting: 1.0,
        });
        // Current VRPs: whatever the adopters issued; routes: everyone's
        // announcements.
        let vrps: Vec<Vrp> = world
            .orgs
            .iter()
            .filter(|o| o.adopted_roa)
            .flat_map(|o| o.prefixes.iter().map(move |&p| Vrp::new(p, p.len(), o.asn)))
            .collect();
        let routes: Vec<Route> =
            world.announcements.iter().map(|a| Route::new(a.prefix, a.origin)).collect();

        // The early adopter: a transit that has NOT yet issued a ROA
        // (so the covering ROA is genuinely new) issues one for its /16
        // aggregate; at full adoption any transit will do (no flips
        // remain possible).
        let transit = world
            .orgs
            .iter()
            .find(|o| o.kind == OrgKind::Transit && !o.adopted_roa)
            .or_else(|| world.orgs.iter().find(|o| o.kind == OrgKind::Transit))
            .expect("has transits");
        let aggregate = transit.prefixes[0];
        let impact =
            se5_new_roa_impact(&vrps, Vrp::new(aggregate, aggregate.len(), transit.asn), &routes);
        let customer_routes =
            routes.iter().filter(|r| aggregate.covers(r.prefix) && r.origin != transit.asn).count();
        table.row(&[
            format!("{:.0}%", adoption * 100.0),
            customer_routes.to_string(),
            impact.newly_invalid.len().to_string(),
            impact.newly_valid.len().to_string(),
        ]);
        sweep.push(SweepRow {
            adoption,
            routes: customer_routes,
            newly_invalid: impact.newly_invalid.len(),
            newly_valid: impact.newly_valid.len(),
        });
    }
    table.print("Blast radius of one covering ROA vs leaf adoption");

    emit_json(args, "se5", &sweep);
    // With no leaf adoption every covered customer route flips invalid;
    // with full adoption none do.
    shape(
        "a covering ROA issued before its customers' ROAs invalidates their routes \
         (Side Effect 5); issuing leaf-first eliminates the damage.",
        &[
            (sweep[0].newly_invalid > 0, "with no leaf adoption some routes must flip invalid"),
            (sweep[4].newly_invalid == 0, "with full leaf adoption no route may flip invalid"),
        ],
    )
}

/// `rpki-risk se6 [--scale N]` — Side Effect 6: removes each VRP of a
/// fully-adopted synthetic Internet in turn and classifies the fallout:
/// valid → **invalid** (another ROA still covers the route — the case
/// unique to the RPKI's semantics) vs valid → unknown (all a missing
/// record costs in DNSSEC or the web PKI).
pub fn se6(args: &[String]) -> ExitCode {
    let Some(scale) = scale_opt(args) else {
        return ExitCode::FAILURE;
    };
    let config = Config {
        seed: 1300,
        transits: 10 * scale,
        stubs: 120 * scale,
        roa_adoption: 1.0,
        cross_border: 0.1,
        anchors: false,
        self_hosting: 1.0,
    };
    println!(
        "Side Effect 6 — fallout of each single missing ROA\n\
         (synthetic Internet, seed {}, full adoption; transits also cover their aggregates)",
        config.seed
    );
    let world = SyntheticInternet::generate(config);

    // VRP universe: every org's exact ROA, plus covering aggregates
    // from the transits (maxlen at their /16) — the configuration in
    // which missing leaf ROAs turn INVALID instead of unknown.
    let mut vrps: Vec<Vrp> = world
        .orgs
        .iter()
        .flat_map(|o| o.prefixes.iter().map(move |&p| Vrp::new(p, p.len(), o.asn)))
        .chain(
            world
                .orgs
                .iter()
                .filter(|o| o.kind == OrgKind::Transit)
                .map(|o| Vrp::new(o.prefixes[0], o.prefixes[0].len(), o.asn)),
        )
        .collect();
    vrps.sort_unstable();
    vrps.dedup();
    let routes: Vec<Route> =
        world.announcements.iter().map(|a| Route::new(a.prefix, a.origin)).collect();

    let impact = se6_missing_roa_impact(&vrps, &routes);
    let to_invalid: usize = impact.rows.iter().map(|r| r.to_invalid).sum();
    let to_unknown: usize = impact.rows.iter().map(|r| r.to_unknown).sum();

    let mut table = SummaryTable::new(&["metric", "value"]);
    table.row(&["VRPs examined".to_owned(), impact.vrps_examined.to_string()]);
    table.row(&[
        "VRPs whose loss flips ≥1 route to INVALID".to_owned(),
        impact.vrps_with_invalid_fallout.to_string(),
    ]);
    table.row(&["total valid→invalid flips".to_owned(), to_invalid.to_string()]);
    table.row(&["total valid→unknown flips".to_owned(), to_unknown.to_string()]);
    table.row(&[
        "share of losses that are DANGEROUS (invalid)".to_owned(),
        format!("{:.1}%", 100.0 * to_invalid as f64 / (to_invalid + to_unknown).max(1) as f64),
    ]);
    table.print("Side Effect 6 exposure");

    emit_json(args, "se6", &impact);
    // With covering aggregates deployed, most single-ROA losses are the
    // dangerous kind.
    shape(
        "under deployed covering ROAs, a missing ROA means INVALID, not unknown — \
         the RPKI is uniquely sensitive to missing information (Side Effect 6).",
        &[
            (
                impact.vrps_with_invalid_fallout > 0,
                "some loss must flip a route invalid".to_owned(),
            ),
            (
                to_invalid > to_unknown,
                format!("covered leaves dominate: {to_invalid} vs {to_unknown}"),
            ),
        ],
    )
}

/// One phase of the Side Effect 7 timeline.
#[derive(Serialize)]
struct Phase {
    phase: &'static str,
    vrps: usize,
    continental_fetchable: bool,
}

/// `rpki-risk se7 [--trace PATH]` — Side Effect 7, the Section 6 worked
/// example end to end on the real transport: a single corrupted fetch
/// of `(63.174.16.0/20, AS17054)` — whose repository lives at
/// 63.174.23.0 *inside that very prefix* — leaves a drop-invalid
/// relying party unable to re-fetch the repair, because the route to
/// the repository is invalid without the ROA stored there.
pub fn se7(args: &[String]) -> ExitCode {
    let Some(trace) = path_opt(args, "--trace") else {
        return ExitCode::FAILURE;
    };
    let recorder = if trace.is_some() { Recorder::new() } else { Recorder::disabled() };
    let mut report =
        Summary::new("Side Effect 7 — one corrupted fetch becomes a persistent failure");
    let continental = "rpki.continental.example";

    // Premises (Section 6): Figure 5 (right) validity; Continental
    // hosts its repository at 63.174.23.0/AS17054; drop-invalid RP.
    let mut w = World::model(MODEL_SEED);
    w.net.set_recorder(recorder.clone());
    w.add_figure5_right_roa(Moment(2));

    // Phase 1 — a healthy sync over the network. A resilient relying
    // party also warms its last-good snapshots here (used by phase 5).
    let healthy = w.validate_with(ValidationOptions::at(Moment(3)));
    let mut resilient = ResilientState::new(ResilienceConfig::default());
    w.validate_with(
        ValidationOptions::at(Moment(3)).fetch(Fetch::Retry).stale_cache(&mut resilient),
    );

    // Phase 2 — the transient fault: corrupt the whole session from
    // Continental's repository once (listing frame), so the RP's next
    // sync sees nothing from it and its ROAs fall out of the cache.
    let continental_node = w.repos.node_of(continental).expect("exists");
    w.net.faults.corrupt_nth(continental_node, w.rp_node, 1);
    let faulted = w.validate_with(ValidationOptions::at(Moment(4)));

    // Phase 3 — the fault is GONE, but the relying party's routes are
    // now computed from the degraded cache. Close the loop and find
    // the fixed point.
    let degraded = faulted.vrps.clone();
    let mut world = w.loopback(RpkiPolicy::DropInvalid);
    let stuck = world.run(&degraded, Moment(5), None);

    // Phase 4 — recovery requires stepping outside the loop: the paper
    // notes "this can be fixed (manually), but there are no recommended
    // procedures". One manual fix: temporarily depref instead of drop.
    let mut relaxed = LoopbackWorld { policy: RpkiPolicy::DeprefInvalid, ..world };
    let recovered = relaxed.run(&stuck.vrps, Moment(6), None);

    // Phase 5 — the same trap with the resilient pipeline armed from
    // the start: the stale snapshot bridges the gated transport, BGP
    // never sees the degraded cache, and the fixed point recovers
    // WITHOUT leaving drop-invalid.
    let mut defended = LoopbackWorld { policy: RpkiPolicy::DropInvalid, ..relaxed };
    let bridged = defended.run(&degraded, Moment(7), Some(&mut resilient));

    let phases = [
        Phase { phase: "healthy", vrps: healthy.vrps.len(), continental_fetchable: true },
        Phase { phase: "transient fault", vrps: faulted.vrps.len(), continental_fetchable: false },
        Phase {
            phase: "fixed point (drop-invalid)",
            vrps: stuck.vrps.len(),
            continental_fetchable: stuck.can_fetch(continental),
        },
        Phase {
            phase: "manual recovery (depref)",
            vrps: recovered.vrps.len(),
            continental_fetchable: recovered.can_fetch(continental),
        },
        Phase {
            phase: "resilient RP (automatic)",
            vrps: bridged.vrps.len(),
            continental_fetchable: bridged.can_fetch(continental),
        },
    ];
    let mut table = SummaryTable::new(&["phase", "VRPs in cache", "Continental repo fetchable"]);
    for p in &phases {
        table.row(&[p.phase.to_owned(), p.vrps.to_string(), p.continental_fetchable.to_string()]);
    }
    report.table("Side Effect 7 timeline", table);
    let mut work = stuck.propagation;
    work.absorb(recovered.propagation);
    work.emit(&recorder, 8);
    report.key_vals(
        "work across both loop runs",
        &[
            ("BGP rounds", work.rounds.to_string()),
            ("route updates", work.route_updates.to_string()),
            ("memo hits", format!("{}/{}", work.memo_hits, work.memo_hits + work.memo_misses)),
        ],
    );
    let checks = [
        (faulted.vrps.len() < healthy.vrps.len(), "the corrupted fetch must lose VRPs"),
        (!stuck.can_fetch(continental), "the trap must hold under drop-invalid"),
        (recovered.can_fetch(continental), "depref must recover Continental"),
        (recovered.vrps.len() == healthy.vrps.len(), "depref must recover every VRP"),
        (bridged.can_fetch(continental), "the resilient RP must break the trap"),
        (bridged.vrps.len() == healthy.vrps.len(), "the resilient RP must keep every VRP"),
    ];
    if recorder.is_enabled() {
        report.metrics(&recorder.metrics());
    }
    report.print();
    if let Some(path) = trace {
        if let Err(e) = std::fs::write(&path, recorder.trace_jsonl()) {
            eprintln!("cannot write the trace to {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("\nwrote {} trace events to {path}", recorder.event_count());
    }

    emit_json(args, "se7", &serde_json::json!({ "phases": phases, "work": work }));
    shape(
        "a transient fault persisted until manual intervention (Section 6) —\n\
         unless the RP's fetch pipeline bridges it automatically (phase 5).",
        &checks,
    )
}
