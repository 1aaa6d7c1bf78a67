//! `rpki-risk` — the command-line face of the workspace, and the one
//! place the paper is reproduced: one subcommand per figure, table and
//! side effect, each printing its artifact and exiting non-zero when
//! the paper's shape breaks.
//!
//! ```text
//! rpki-risk loop                     # Figure 1: the dependency loop at fixed point
//! rpki-risk demo                     # Figure 2: the model world, validated
//! rpki-risk whack [--origin 17054]   # Figure 3: plan & execute whacks in the model
//! rpki-risk audit --seed 7           # Table 4: jurisdiction audit
//! rpki-risk grid [--right]           # Figure 5: validity bands
//! rpki-risk tradeoff                 # Table 6: policy comparison
//! rpki-risk se5 | se6 | se7          # Side Effects 5, 6 and 7
//! ```
//!
//! Argument parsing is hand-rolled on std (the workspace carries no CLI
//! dependency); every subcommand supports `--json` for machine output.

use std::process::ExitCode;

mod commands;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let rest = &args[1.min(args.len())..];
    match cmd {
        "loop" => commands::dependency_loop(rest),
        "demo" => commands::demo(rest),
        "whack" => commands::whack(rest),
        "audit" => commands::audit(rest),
        "grid" => commands::grid(rest),
        "tradeoff" => commands::tradeoff(rest),
        "se5" => commands::se5(rest),
        "se6" => commands::se6(rest),
        "se7" => commands::se7(rest),
        "help" | "--help" | "-h" => {
            print!("{}", commands::USAGE);
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command {other:?}\n");
            eprint!("{}", commands::USAGE);
            ExitCode::FAILURE
        }
    }
}
