//! The paper regenerators end in `assert!`s on the paper's shape (the
//! Table 6 asymmetry, the Side Effect 7 trap, the Figure 5 grid …);
//! this runs each one so tier-1 notices when a shape breaks.

use std::process::Command;

/// `(name, path)` of each named bin of this package.
macro_rules! bins {
    ($($name:literal),* $(,)?) => {
        [$(($name, env!(concat!("CARGO_BIN_EXE_", $name)))),*]
    };
}

/// Every figure / table / side-effect regenerator, and the ablations
/// that need no benchmark-sized world and write no file untraced
/// (`ablation_unsafe_vrp` exports `BENCH_unsafe_vrp.json`).
const REGENERATORS: [(&str, &str); 15] = bins![
    "fig1_dependency_loop",
    "fig2_model_rpki",
    "fig3_grandparent_whack",
    "fig5_validity_grid",
    "se5_new_roa_invalidation",
    "se6_missing_roa",
    "se7_circular_dependency",
    "tab4_jurisdiction",
    "tab6_policy_tradeoff",
    "ablation_depth_sweep",
    "ablation_downgrade",
    "ablation_monitor_detection",
    "ablation_resilience",
    "ablation_suspenders",
    "ablation_whack_strategies",
];

#[test]
fn every_regenerator_exits_zero_with_output() {
    for (name, path) in REGENERATORS {
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
