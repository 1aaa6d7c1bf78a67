//! `pipeline`: the benchmark's command line (see `cli::USAGE`).

fn main() -> std::process::ExitCode {
    rpki_pipeline_bench::cli::main(std::env::args().skip(1).collect())
}
