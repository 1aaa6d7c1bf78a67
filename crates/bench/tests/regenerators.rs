//! The ablations end in `assert!`s on their shape (the campaign tier
//! separations, the Stalloris gap …); this runs each one so tier-1
//! notices when a shape breaks. The paper's own figures and tables are
//! the `rpki-risk` CLI's subcommands, run by its tests.

use std::process::{Command, Output};
use std::sync::OnceLock;

use rpkisim_crypto::sha256;

/// `(name, path)` of each named bin of this package.
macro_rules! bins {
    ($($name:literal),* $(,)?) => {
        [$(($name, env!(concat!("CARGO_BIN_EXE_", $name)))),*]
    };
}

/// The ablations that need no benchmark-sized world.
const ABLATIONS: [(&str, &str); 7] = bins![
    "ablation_depth_sweep",
    "ablation_downgrade",
    "ablation_monitor_detection",
    "ablation_resilience",
    "ablation_suspenders",
    "ablation_unsafe_vrp",
    "ablation_whack_strategies",
];

/// Runs one ablation at its defaults, untraced (`BENCH_TRACE` would
/// make the traced ones write a file), in a directory of this test
/// process's own under the system temp directory: `ablation_unsafe_vrp`
/// writes `BENCH_unsafe_vrp.json` into its working directory, which
/// must not be the repository's.
fn run_ablation(name: &str, path: &str) -> Output {
    let dir =
        std::env::temp_dir().join(format!("rpki-risk-regenerators-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    let out = Command::new(path)
        .current_dir(&dir)
        .env_remove("BENCH_TRACE")
        .output()
        .expect("binary runs");
    std::fs::remove_dir_all(&dir).expect("remove the scratch directory");
    out
}

/// Every ablation's output, each run once per test process and shared
/// by the tests below.
fn ablation_outputs() -> &'static [(&'static str, Output)] {
    static OUTPUTS: OnceLock<Vec<(&str, Output)>> = OnceLock::new();
    OUTPUTS.get_or_init(|| {
        ABLATIONS.iter().map(|&(name, path)| (name, run_ablation(name, path))).collect()
    })
}

#[test]
fn every_regenerator_exits_zero_with_output() {
    for (name, out) in ablation_outputs() {
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

/// Each ablation's stdout at its defaults is pinned by SHA-256: a
/// refactor of the worlds, campaigns or relying-party stacks beneath
/// them that moves one byte of a table fails here. An intentional
/// change prints the whole new table on mismatch; paste it over
/// [`OUTPUT_PINS`].
#[test]
fn every_ablation_stdout_matches_its_pinned_digest() {
    let got: Vec<(String, String)> = ablation_outputs()
        .iter()
        .map(|&(name, ref out)| {
            assert!(out.status.success(), "{name} failed ({})", out.status);
            (name.to_owned(), sha256(&out.stdout).to_hex())
        })
        .collect();
    let pinned: Vec<(String, String)> =
        OUTPUT_PINS.iter().map(|&(name, digest)| (name.to_owned(), digest.to_owned())).collect();
    if got != pinned {
        let table: String =
            got.iter().map(|(name, digest)| format!("    (\"{name}\", \"{digest}\"),\n")).collect();
        let moved: Vec<&str> =
            got.iter().filter(|row| !pinned.contains(row)).map(|(name, _)| name.as_str()).collect();
        panic!(
            "ablation outputs moved: {moved:?}\n\
             if intentional, replace OUTPUT_PINS with:\n\
             const OUTPUT_PINS: &[(&str, &str)] = &[\n{table}];"
        );
    }
}

#[rustfmt::skip]
const OUTPUT_PINS: &[(&str, &str)] = &[
    ("ablation_depth_sweep", "6e663a1a2c61e6c54188880c01695a83f15cdd302c837bf8dc7821540717ad22"),
    ("ablation_downgrade", "896873bb2cd7aa9bbb67f0bb613eac05eee4a6c8c62dcc6f5da7ddc91f61527c"),
    ("ablation_monitor_detection", "4f70dbc9737631db5446fa8303c82a8e41fa3e1f2a03ab3b16871e1c7d6ca17c"),
    ("ablation_resilience", "d6f25cc449417a31dee9cc06e9f83dca3675f19ab83b0faeb0fcb459d7f35de9"),
    ("ablation_suspenders", "7b75b35d44981f8090efe079bc3b61c73d142aa3ed832169ba25f648144d5efa"),
    ("ablation_unsafe_vrp", "a3e12acb8f234f2b750127c2262b52608e5656fe69656156e90b93f9d26ef47f"),
    ("ablation_whack_strategies", "71a5731bf0a8ba8bed07edc78e8a128c933404d3921f0ca501e941e2a5a97a73"),
];
