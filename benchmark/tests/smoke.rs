//! The four workloads end to end on 200-point worlds, and the
//! agreement of `BENCHMARK.json` with the tables in the code.

use rpki_pipeline_bench::cli::smoke;
use rpki_pipeline_bench::report::describe;

#[test]
fn all_four_workloads_pass_their_oracle_on_small_worlds() {
    let outcome = smoke();
    assert!(outcome.tally.attempted > 1_000, "only {} checks ran", outcome.tally.attempted);
    assert_eq!(outcome.tally.failed, 0, "failed checks");
    assert!(outcome.seed_blind.is_empty(), "seed changed nothing on {:?}", outcome.seed_blind);
}

#[test]
fn benchmark_json_is_what_the_code_describes() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(on_disk, describe(), "regenerate with `pipeline --describe > BENCHMARK.json`");
}
