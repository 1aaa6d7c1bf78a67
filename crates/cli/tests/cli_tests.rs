//! End-to-end CLI tests: run the actual binary and check its output
//! and exit codes.

use std::process::{Command, Output};

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
