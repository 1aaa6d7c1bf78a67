//! Validates benchmark JSON exports against the committed schemas.
//!
//! With no arguments, checks every known `BENCH_*.json` export found in
//! the current directory against its schema under `schemas/`, and fails
//! on any `BENCH_*.json` present that has no registered schema — a
//! bench cannot export an unpinned shape. With two arguments
//! (`schema_check DATA.json SCHEMA.json`), checks that one pair. Every
//! export is also held to [`STAMP_SCHEMA`]: no record without the
//! commit, core count, profile and SHA-256 kernel it was measured
//! under. Exits nonzero on the first violation, printing the failing
//! path inside the document.

use std::process::ExitCode;

use rpki_risk_bench::schema;

/// Known export → schema pairs, relative to the repository root.
const KNOWN: &[(&str, &str)] = &[
    ("BENCH_propagation.json", "schemas/bench_propagation.schema.json"),
    ("BENCH_validation.json", "schemas/bench_validation.schema.json"),
    ("BENCH_rrdp.json", "schemas/bench_rrdp.schema.json"),
    ("BENCH_rtr.json", "schemas/bench_rtr.schema.json"),
    ("BENCH_scale.json", "schemas/bench_scale.schema.json"),
    ("BENCH_unsafe_vrp.json", "schemas/bench_unsafe_vrp.schema.json"),
    ("BENCH_scheduler.json", "schemas/bench_scheduler.schema.json"),
    ("BENCH_pubd.json", "schemas/bench_pubd.schema.json"),
];

/// The four fields `rpki_risk_bench::export` prepends to every record,
/// required of every export here rather than once per schema file.
const STAMP_SCHEMA: &str = r#"{"type":"array","items":{"type":"object",
    "required":["commit","available_parallelism","profile","sha256"],
    "properties":{"commit":{"type":"string"},"available_parallelism":{"type":"integer"},
                  "profile":{"type":"string"},"sha256":{"type":"string"}}}}"#;

/// `BENCH_*.json` files in the current directory that no KNOWN entry
/// claims — a bench that exports without registering a schema.
fn unregistered_exports() -> Vec<String> {
    let Ok(entries) = std::fs::read_dir(".") else { return Vec::new() };
    let mut stray: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .filter(|name| !KNOWN.iter().any(|(data, _)| data == name))
        .collect();
    stray.sort();
    stray
}

fn check_pair(data_path: &str, schema_path: &str) -> Result<(), String> {
    let data = std::fs::read_to_string(data_path)
        .map_err(|e| format!("{data_path}: cannot read: {e:?}"))?;
    let schema_text = std::fs::read_to_string(schema_path)
        .map_err(|e| format!("{schema_path}: cannot read: {e:?}"))?;
    let data = serde_json::from_str(&data).map_err(|e| format!("{data_path}: bad JSON: {e:?}"))?;
    let schema_json = serde_json::from_str(&schema_text)
        .map_err(|e| format!("{schema_path}: bad JSON: {e:?}"))?;
    let stamp = serde_json::from_str(STAMP_SCHEMA).expect("STAMP_SCHEMA is JSON");
    schema::check(&data, &stamp)
        .and_then(|()| schema::check(&data, &schema_json))
        .map_err(|e| format!("{data_path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let pairs: Vec<(String, String)> = match args.as_slice() {
        [] => KNOWN
            .iter()
            .filter(|(data, _)| std::path::Path::new(data).exists())
            .map(|(d, s)| (d.to_string(), s.to_string()))
            .collect(),
        [data, schema_path] => vec![(data.clone(), schema_path.clone())],
        _ => {
            eprintln!("usage: schema_check [DATA.json SCHEMA.json]");
            return ExitCode::FAILURE;
        }
    };
    if pairs.is_empty() {
        eprintln!("schema_check: no BENCH_*.json exports found in the current directory");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    if args.is_empty() {
        for stray in unregistered_exports() {
            eprintln!("FAIL: {stray}: no schema registered (add it to KNOWN and schemas/)");
            failed = true;
        }
    }
    for (data, schema_path) in &pairs {
        match check_pair(data, schema_path) {
            Ok(()) => println!("ok: {data} matches {schema_path}"),
            Err(e) => {
                eprintln!("FAIL: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
