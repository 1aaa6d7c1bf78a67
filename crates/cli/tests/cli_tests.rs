//! End-to-end CLI tests: run the actual binary and check its output
//! and exit codes.

use std::process::{Command, Output};

use rpkisim_crypto::sha256;

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rpki-risk")).args(args).output().expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn help_lists_commands() {
    let out = run(&["help"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for cmd in ["demo", "whack", "audit", "tradeoff", "grid"] {
        assert!(text.contains(cmd), "usage must mention {cmd}");
    }
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = run(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn demo_validates_the_model() {
    let out = run(&["demo"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("4 CAs, 8 VRPs, 0 diagnostics"), "{text}");
    assert!(text.contains("Sprint"));
    assert!(text.contains("Continental Broadband"));
}

#[test]
fn whack_dry_run_plans_without_executing() {
    let out = run(&["whack", "--origin", "17054", "--dry-run"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("dry run"));
    assert!(text.contains("carve"));
    // The clean-carve target needs zero reissues.
    assert!(text.contains("reissues needed (detection surface): 0"), "{text}");
}

#[test]
fn whack_executes_cleanly() {
    let out = run(&["whack", "--origin", "7341"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = stdout(&out);
    assert!(text.contains("VRPs 8 → 7"), "{text}");
    assert!(text.contains("collateral-free: true"));
}

#[test]
fn whack_unknown_origin_fails_with_suggestions() {
    let out = run(&["whack", "--origin", "99999"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--origin 17054"), "{err}");
}

#[test]
fn audit_is_deterministic_per_seed() {
    let a = run(&["audit", "--seed", "5"]);
    let b = run(&["audit", "--seed", "5"]);
    let c = run(&["audit", "--seed", "6"]);
    assert!(a.status.success());
    assert_eq!(stdout(&a), stdout(&b));
    assert_ne!(stdout(&a), stdout(&c));
}

/// A flag that is present must parse: a malformed or missing value
/// names the flag on stderr and fails instead of running with the
/// default.
#[test]
fn malformed_or_missing_flag_values_are_refused() {
    for args in [
        &["audit", "--seed", "abc"][..],
        &["audit", "--scale", "x"],
        &["whack", "--origin"],
        &["whack", "--origin", "--dry-run"],
        &["audit", "--scale", "0"],
        &["se5", "--scale", "abc"],
        &["se6", "--scale", "0"],
        &["se7", "--trace"],
    ] {
        let out = run(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(stdout(&out).is_empty(), "{args:?} must not run the command");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(args[1]), "{args:?}: stderr must name the flag: {err}");
        assert!(err.contains("USAGE"), "{args:?}: stderr must show the usage: {err}");
    }
    let out = run(&["audit", "--seed", "7", "--scale", "1"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

/// Every paper subcommand runs at its defaults: each ends in the
/// paper's shape checks, so a broken shape fails here.
#[test]
fn every_paper_subcommand_runs_at_its_defaults() {
    for cmd in ["loop", "demo", "whack", "audit", "grid", "tradeoff", "se5", "se6", "se7"] {
        let out = run(&[cmd]);
        assert!(
            out.status.success(),
            "{cmd} failed ({}):\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(!out.stdout.is_empty(), "{cmd} printed nothing");
    }
}

#[test]
fn tradeoff_prints_the_asymmetry() {
    let out = run(&["tradeoff"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("DropInvalid"));
    assert!(text.contains("DeprefInvalid"));
    // drop: 100% / 0%; depref: 0% / 100%.
    let drop_line = text.lines().find(|l| l.contains("DropInvalid")).expect("row");
    assert!(drop_line.contains("100%") && drop_line.contains("0%"), "{drop_line}");
}

#[test]
fn grid_right_differs_from_left() {
    let left = run(&["grid"]);
    let right = run(&["grid", "--right"]);
    assert!(left.status.success() && right.status.success());
    assert_ne!(stdout(&left), stdout(&right));
    // The right panel validates the /12 for Sprint.
    let right_text = stdout(&right);
    let twelve = right_text.lines().find(|l| l.starts_with("63.160.0.0/12 ")).expect("row");
    assert!(twelve.contains("valid"), "{twelve}");
}

#[test]
fn json_flag_emits_record_on_stderr() {
    let out = run(&["demo", "--json"]);
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    let line = err.lines().find(|l| l.starts_with('{')).expect("json record");
    let value: serde_json::Value = serde_json::from_str(line).expect("valid json");
    assert_eq!(value["command"], "demo");
    assert_eq!(value["data"].as_array().map(Vec::len), Some(8));
}

/// The nine paper subcommands, each one figure, table or side effect.
const SUBCOMMANDS: [&str; 9] =
    ["loop", "demo", "whack", "audit", "grid", "tradeoff", "se5", "se6", "se7"];

/// Every subcommand's stdout and stderr at its defaults, with and
/// without `--json`, is pinned by SHA-256: a refactor below the CLI
/// that moves one byte of a table, a shape line or a JSON record fails
/// here. An intentional change prints the whole new table on mismatch;
/// paste it over [`OUTPUT_PINS`].
#[test]
fn every_subcommand_output_matches_its_pinned_digest() {
    let mut got = Vec::new();
    for cmd in SUBCOMMANDS {
        for (mode, args) in [("plain", &[cmd][..]), ("json", &[cmd, "--json"])] {
            let out = run(args);
            assert!(out.status.success(), "{args:?} failed ({})", out.status);
            for (stream, bytes) in [("stdout", &out.stdout), ("stderr", &out.stderr)] {
                got.push((format!("{cmd}/{mode}/{stream}"), sha256(bytes).to_hex()));
            }
        }
    }
    let pinned: Vec<(String, String)> =
        OUTPUT_PINS.iter().map(|&(label, digest)| (label.to_owned(), digest.to_owned())).collect();
    if got != pinned {
        let table: String = got
            .iter()
            .map(|(label, digest)| format!("    (\"{label}\", \"{digest}\"),\n"))
            .collect();
        let moved: Vec<&str> = got
            .iter()
            .filter(|row| !pinned.contains(row))
            .map(|(label, _)| label.as_str())
            .collect();
        panic!(
            "subcommand outputs moved: {moved:?}\n\
             if intentional, replace OUTPUT_PINS with:\n\
             const OUTPUT_PINS: &[(&str, &str)] = &[\n{table}];"
        );
    }
}

#[rustfmt::skip]
const OUTPUT_PINS: &[(&str, &str)] = &[
    ("loop/plain/stdout", "f6e2963164237113fba1f40554f1c8e95166f434330f1ee28855fe16378c3e05"),
    ("loop/plain/stderr", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("loop/json/stdout", "f6e2963164237113fba1f40554f1c8e95166f434330f1ee28855fe16378c3e05"),
    ("loop/json/stderr", "61abe0144e1108f0509133ee39471183126570fabf224e3be72f1dc9c3f96fc5"),
    ("demo/plain/stdout", "bb3c375b2e3858c526cccf31aa6c26edb2ae7a0215a855f503321f7455831e24"),
    ("demo/plain/stderr", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("demo/json/stdout", "bb3c375b2e3858c526cccf31aa6c26edb2ae7a0215a855f503321f7455831e24"),
    ("demo/json/stderr", "c0bba01619d60b5584ed0736c70d3630ab789876d049d9d478b1f81d42a7177a"),
    ("whack/plain/stdout", "bfc45a24a11c8d6c29dfcb08c546c9ae5f68eec1201375ec745ce6f7ed729fe0"),
    ("whack/plain/stderr", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("whack/json/stdout", "bfc45a24a11c8d6c29dfcb08c546c9ae5f68eec1201375ec745ce6f7ed729fe0"),
    ("whack/json/stderr", "c5b5a21e3c6678428d39c4a9b654db91dfc5365f676d17ba3eaf5852d5a33fdf"),
    ("audit/plain/stdout", "59543dd3caea3007ecb0b45de20746ff1e7e88ae52b3886a2720d0fdd9e4028a"),
    ("audit/plain/stderr", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("audit/json/stdout", "59543dd3caea3007ecb0b45de20746ff1e7e88ae52b3886a2720d0fdd9e4028a"),
    ("audit/json/stderr", "f696c20cda37111a20ecd7f5e4cf7f1da92ca54797bc7dab4223a474e8d3e4da"),
    ("grid/plain/stdout", "c0edffac1854e9115ac6b24870f60281fe6df975f2b2e35707e04b32ea657e36"),
    ("grid/plain/stderr", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("grid/json/stdout", "c0edffac1854e9115ac6b24870f60281fe6df975f2b2e35707e04b32ea657e36"),
    ("grid/json/stderr", "563bf96d9be285108cd1ef1e2d1a065a154d61915968d6759571f757341d7732"),
    ("tradeoff/plain/stdout", "f692fcbc1358f0fac4a8dfc72742c793f31c28a206fbd5c958eca7facda9db6e"),
    ("tradeoff/plain/stderr", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("tradeoff/json/stdout", "f692fcbc1358f0fac4a8dfc72742c793f31c28a206fbd5c958eca7facda9db6e"),
    ("tradeoff/json/stderr", "bb147813079ee89d14c11b2a9875542eb385b447e4c20be9e6c193bbc8872362"),
    ("se5/plain/stdout", "c8fdb35f8d212c9488a526fd75b8a32fc5f14671845e129159589cfcea0ea693"),
    ("se5/plain/stderr", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("se5/json/stdout", "c8fdb35f8d212c9488a526fd75b8a32fc5f14671845e129159589cfcea0ea693"),
    ("se5/json/stderr", "129ac78534994c93b8be7ad093aef6337ecf9d43233814b419899d7498328aaf"),
    ("se6/plain/stdout", "88dd5f34217a352a857bcaf7029b5f9e8071eaf86816aa731eaa7fe42e07d395"),
    ("se6/plain/stderr", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("se6/json/stdout", "88dd5f34217a352a857bcaf7029b5f9e8071eaf86816aa731eaa7fe42e07d395"),
    ("se6/json/stderr", "940bb9532c1a0583a25a12aa8edb91358f001b4cc1783586b8b92637c06e34a2"),
    ("se7/plain/stdout", "5b4e3df43576acbee4951b216910df2430ac2da31f5f50dd281216b32ab29a1a"),
    ("se7/plain/stderr", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("se7/json/stdout", "5b4e3df43576acbee4951b216910df2430ac2da31f5f50dd281216b32ab29a1a"),
    ("se7/json/stderr", "7ec9a666809bade18f6427763b13de650b6aed844244a913c2b63939fda89cce"),
];
