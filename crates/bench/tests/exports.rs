//! The committed `BENCH_*.json` exports against their schemas:
//! `schema_check` runs at the repository root on every test run, so an
//! export that changed shape or went missing fails here, not only when
//! the benches run.

use std::path::Path;
use std::process::{Command, Output};

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

fn schema_check(dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_schema_check")).current_dir(dir).output().expect("runs")
}

#[test]
fn committed_exports_match_their_schemas() {
    let out = schema_check(Path::new(ROOT));
    assert!(
        out.status.success(),
        "schema_check failed at the repository root:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A registered export that is missing fails the check: a bench that
/// stopped exporting cannot pass by leaving no file.
#[test]
fn a_missing_registered_export_fails() {
    let dir = std::env::temp_dir().join(format!("schema-check-{}", std::process::id()));
    std::fs::create_dir_all(dir.join("schemas")).expect("temp dir");
    for entry in std::fs::read_dir(Path::new(ROOT).join("schemas")).expect("schemas/") {
        let path = entry.expect("entry").path();
        std::fs::copy(&path, dir.join("schemas").join(path.file_name().expect("name")))
            .expect("copy schema");
    }
    for entry in std::fs::read_dir(ROOT).expect("repository root") {
        let name = entry.expect("entry").file_name().into_string().expect("UTF-8 name");
        if name.starts_with("BENCH_") && name.ends_with(".json") && name != "BENCH_rtr.json" {
            std::fs::copy(Path::new(ROOT).join(&name), dir.join(&name)).expect("copy export");
        }
    }
    let out = schema_check(&dir);
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
    assert!(!out.status.success(), "a missing BENCH_rtr.json must fail the check");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("BENCH_rtr.json"), "stderr must name the missing export: {err}");
}
