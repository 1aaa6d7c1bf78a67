//! The ablations end in `assert!`s on their shape (the campaign tier
//! separations, the Stalloris gap …); this runs each one so tier-1
//! notices when a shape breaks. The paper's own figures and tables are
//! the `rpki-risk` CLI's subcommands, run by its tests.

use std::process::Command;

/// `(name, path)` of each named bin of this package.
macro_rules! bins {
    ($($name:literal),* $(,)?) => {
        [$(($name, env!(concat!("CARGO_BIN_EXE_", $name)))),*]
    };
}

/// The ablations that need no benchmark-sized world and write no file
/// untraced (`ablation_unsafe_vrp` exports `BENCH_unsafe_vrp.json`).
const ABLATIONS: [(&str, &str); 6] = bins![
    "ablation_depth_sweep",
    "ablation_downgrade",
    "ablation_monitor_detection",
    "ablation_resilience",
    "ablation_suspenders",
    "ablation_whack_strategies",
];

#[test]
fn every_regenerator_exits_zero_with_output() {
    for (name, path) in ABLATIONS {
        // `BENCH_TRACE` would make the traced ones write a file.
        let out = Command::new(path).env_remove("BENCH_TRACE").output().expect("binary runs");
        assert!(
            out.status.success(),
            "{name} failed ({}):\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(!out.stdout.is_empty(), "{name} printed nothing");
    }
}

/// A flag that is present must parse: a malformed value, or a scale of
/// zero, names the flag on stderr and fails before running instead of
/// running with the default.
#[test]
fn malformed_flag_values_are_refused() {
    for (path, args) in [
        (env!("CARGO_BIN_EXE_ablation_resilience"), ["--seed", "7x"]),
        (env!("CARGO_BIN_EXE_ablation_monitor_detection"), ["--scale", "0"]),
    ] {
        let out = Command::new(path).args(args).env_remove("BENCH_TRACE").output().expect("runs");
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} must not run the experiment");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(args[0]), "{args:?}: stderr must name the flag: {err}");
        assert!(err.contains("USAGE"), "{args:?}: stderr must show the usage: {err}");
    }
}
