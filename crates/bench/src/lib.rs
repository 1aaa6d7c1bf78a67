//! Support library for the harness binaries: the ablations, the
//! component benches (`bench_rp` for the relying party's source
//! stacks, `bench_rtr`, `bench_pubd`, `bench_propagation`) and
//! `schema_check`. The paper's own figures and tables are the
//! `rpki-risk` CLI's subcommands. Each binary prints a human-readable
//! table to stdout and, with `--json`, a machine-readable record to
//! stderr.
//!
//! Benches time with [`time`] (one run) or [`time_min`] (min of N),
//! write stamped records through [`export`], and pin the columns that
//! depend on the input alone with [`assert_counts_unmoved`].
//!
//! Flags parse through one parser ([`seed_arg`], [`scale_arg`],
//! [`trace_path`]) with the CLI's contract: a flag that is present must
//! carry a value that parses, or the binary names it, prints the usage
//! and exits non-zero.
//!
//! Rendering goes through the `rpki-obs` summary pipeline: [`Table`]
//! is a thin wrapper over [`SummaryTable`], and the richer binaries
//! build a full [`Summary`] document. With `--trace PATH` (or the
//! `BENCH_TRACE` environment variable) a binary that supports tracing
//! also writes its recorder's JSONL event trace to `PATH`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::str::FromStr;
use std::time::Instant;

pub use rpki_obs::{Recorder, Summary, SummaryTable};

/// A minimal fixed-width table printer — a wrapper over
/// [`SummaryTable`] keeping the historical `print(title)` shape.
#[derive(Debug, Default)]
pub struct Table {
    inner: SummaryTable,
}

impl Table {
    /// A table with the given column headers.
    pub fn new<S: Display>(header: &[S]) -> Self {
        Table { inner: SummaryTable::new(header) }
    }

    /// Appends a row (must match the header width).
    pub fn row<S: Display>(&mut self, cells: &[S]) -> &mut Self {
        self.inner.row(cells);
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        self.inner.render()
    }

    /// Prints the table to stdout with a title.
    pub fn print(&self, title: &str) {
        println!("\n== {title} ==\n");
        print!("{}", self.render());
    }
}

/// The flags the harness binaries read; each reads only those its
/// header documents.
const USAGE: &str = "\
USAGE:
    <binary> [--json] [--seed <N>] [--scale <N>] [--trace <PATH>]

    --json           mirror the printed records as JSON on stderr
    --seed <N>       campaign seed (default 2013)
    --scale <N>      world size multiplier, at least 1 (default 1)
    --trace <PATH>   write the JSONL event trace to PATH (or set BENCH_TRACE)
";

/// Puts `problem` and the usage on stderr and exits non-zero.
fn refuse(problem: &str) -> ! {
    eprintln!("{problem}\n");
    eprint!("{USAGE}");
    std::process::exit(1)
}

/// The word after flag `name`, when the flag is present; a flag with
/// no word after it (or only another flag) is [`refuse`]d.
fn flag_word(name: &str, what: &str) -> Option<String> {
    let mut args = std::env::args().skip_while(|a| a != name);
    args.next()?;
    match args.next() {
        Some(word) if !word.starts_with("--") => Some(word),
        _ => refuse(&format!("{name} takes {what}, but none was given")),
    }
}

/// The number after flag `name`, or `default` when the flag is absent.
/// A value that does not parse is never replaced by the default: the
/// binary names the flag, prints the usage and exits non-zero.
fn flag_value<T: FromStr>(name: &str, default: T) -> T {
    match flag_word(name, "a number") {
        None => default,
        Some(v) => {
            v.parse().unwrap_or_else(|_| refuse(&format!("{name} takes a number, not {v:?}")))
        }
    }
}

/// `--seed N` (campaign seed; default 2013).
pub fn seed_arg() -> u64 {
    flag_value("--seed", 2013)
}

/// `--scale N` (experiment size multiplier, at least 1; default 1).
pub fn scale_arg() -> usize {
    match flag_value("--scale", 1) {
        0 => refuse("--scale multiplies the world size, so it must be at least 1"),
        scale => scale,
    }
}

/// The JSONL trace destination: `--trace PATH` or `BENCH_TRACE`.
pub fn trace_path() -> Option<String> {
    flag_word("--trace", "a path").or_else(|| std::env::var("BENCH_TRACE").ok())
}

/// A recorder that is live exactly when a trace destination was given,
/// so untraced runs pay only the disabled-path branch.
pub fn trace_recorder() -> Recorder {
    if trace_path().is_some() {
        Recorder::new()
    } else {
        Recorder::disabled()
    }
}

/// The result of one run of `f` and its wall time in nanoseconds.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, u128) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos())
}

/// Minimum wall time in nanoseconds of `iters` runs of `f` (after one
/// warmup run).
pub fn time_min<F: FnMut()>(iters: usize, mut f: F) -> u128 {
    f();
    (0..iters).map(|_| time(&mut f).1).min().expect("at least one iteration")
}

/// Asserts that every record of `fresh` whose `key` columns match a
/// record of `committed` (the text of the `BENCH_*.json` about to be
/// overwritten, read before the run exports) kept its `counts`
/// columns: the ones that are a function of the input alone. Returns
/// how many records were compared.
pub fn assert_counts_unmoved<T: serde::Serialize>(
    committed: Option<&str>,
    fresh: &[T],
    key: &[&str],
    counts: &[&str],
) -> usize {
    let Some(committed) = committed else { return 0 };
    let committed = serde_json::from_str(committed).expect("committed export parses");
    let fresh = serde_json::to_string(fresh).expect("serialise records");
    let fresh = serde_json::from_str(&fresh).expect("fresh records parse");
    let cell = |r: &serde_json::Value| key.iter().map(|k| r[*k].clone()).collect::<Vec<_>>();
    let mut compared = 0;
    for new in fresh.as_array().expect("array") {
        let old = committed.as_array().expect("an export is an array");
        let Some(old) = old.iter().find(|old| cell(old) == cell(new)) else { continue };
        for column in counts {
            assert_eq!(
                new[*column],
                old[*column],
                "{column} moved against the committed record at {key:?} = {:?}",
                cell(new)
            );
        }
        compared += 1;
    }
    compared
}

/// Where and how a benchmark record was measured — stamped on every
/// record so a committed `BENCH_*.json` can be read as a trajectory
/// (ROADMAP aim 1). [`export`] prepends the four fields, in this order,
/// to each record it writes.
#[derive(Debug, Clone, serde::Serialize)]
pub struct RunStamp {
    /// `git rev-parse --short HEAD`, with `-dirty` appended when the
    /// working tree differs from it; `unknown` outside a checkout.
    pub commit: String,
    /// `std::thread::available_parallelism` on the measuring host.
    pub available_parallelism: usize,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// The SHA-256 kernel the host ran (`sha-ni` or `portable`): wall
    /// times of anything that hashes compare only between records that
    /// agree on it.
    pub sha256: &'static str,
}

impl RunStamp {
    /// Reads the stamp for this process. Call before writing any
    /// export, or the export itself makes the tree dirty.
    pub fn capture() -> Self {
        let git = |args: &[&str]| {
            let out = std::process::Command::new("git").args(args).output().ok()?;
            out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        };
        let commit = match git(&["rev-parse", "--short", "HEAD"]) {
            Some(head) if git(&["status", "--porcelain"]).is_some_and(|s| s.is_empty()) => head,
            Some(head) => format!("{head}-dirty"),
            None => "unknown".to_owned(),
        };
        RunStamp {
            commit,
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            profile: if cfg!(debug_assertions) { "debug" } else { "release" },
            sha256: rpkisim_crypto::sha256::backend(),
        }
    }
}

/// Writes the recorder's JSONL trace to the requested destination (a
/// no-op without `--trace`/`BENCH_TRACE`); returns the path written.
pub fn write_trace(recorder: &Recorder) -> Option<String> {
    let path = trace_path()?;
    std::fs::write(&path, recorder.trace_jsonl()).expect("write trace file");
    Some(path)
}

/// Writes everything a bench run exports: `BENCH_<name>.json` in the
/// current directory — every record's JSON object with `stamp`'s four
/// fields prepended, so no record lands unstamped — then the trace of
/// a live `recorder` (`--trace`/`BENCH_TRACE`), then the `--json`
/// mirror of the same stamped records, labelled `bench_<name>`.
pub fn export<T: serde::Serialize>(
    name: &str,
    stamp: &RunStamp,
    records: &[T],
    recorder: &Recorder,
) {
    use serde::Serialize as _;
    use serde_json::Json;

    let stamped: Vec<Json> = records
        .iter()
        .map(|record| match (stamp.to_json(), record.to_json()) {
            (Json::Object(mut fields), Json::Object(own)) => {
                fields.extend(own);
                Json::Object(fields)
            }
            _ => panic!("a bench record and its stamp serialise as JSON objects"),
        })
        .collect();
    let file = format!("BENCH_{name}.json");
    let json = serde_json::to_string(&stamped).expect("serialise records");
    std::fs::write(&file, format!("{json}\n")).expect("write the BENCH export");
    println!("\nwrote {file} ({} records)", stamped.len());
    if recorder.is_enabled() {
        if let Some(path) = write_trace(recorder) {
            println!("wrote trace to {path}");
        }
    }
    emit_json(&format!("bench_{name}"), &stamped);
}

/// A minimal JSON-Schema subset checker for the committed `schemas/`
/// files: supports `type` (null/boolean/integer/number/string/array/
/// object), `required`, `properties`, and `items`. Enough to pin the
/// shape of the `BENCH_*.json` exports in CI without a new dependency.
pub mod schema {
    use serde_json::Json;

    /// Checks `value` against `schema`; the error names the failing
    /// JSON-pointer-ish path and what was expected.
    pub fn check(value: &Json, schema: &Json) -> Result<(), String> {
        walk(value, schema, "$")
    }

    fn type_name(value: &Json) -> &'static str {
        match value {
            Json::Null => "null",
            Json::Bool(_) => "boolean",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Array(_) => "array",
            Json::Object(_) => "object",
        }
    }

    fn is_integer(num: &str) -> bool {
        !num.contains(['.', 'e', 'E'])
    }

    fn walk(value: &Json, schema: &Json, path: &str) -> Result<(), String> {
        if let Some(expected) = schema.get("type").and_then(Json::as_str) {
            let ok = match (expected, value) {
                ("integer", Json::Num(n)) => is_integer(n),
                ("number", Json::Num(_)) => true,
                (want, got) => want == type_name(got),
            };
            if !ok {
                return Err(format!("{path}: expected {expected}, got {}", type_name(value)));
            }
        }
        if let Some(required) = schema.get("required").and_then(Json::as_array) {
            for key in required {
                let key = key.as_str().ok_or_else(|| format!("{path}: bad required entry"))?;
                if value.get(key).is_none() {
                    return Err(format!("{path}: missing required field {key:?}"));
                }
            }
        }
        if let Some(Json::Object(props)) = schema.get("properties") {
            for (key, sub) in props {
                if let Some(field) = value.get(key) {
                    walk(field, sub, &format!("{path}.{key}"))?;
                }
            }
        }
        if let Some(items) = schema.get("items") {
            if let Some(elems) = value.as_array() {
                for (i, elem) in elems.iter().enumerate() {
                    walk(elem, items, &format!("{path}[{i}]"))?;
                }
            }
        }
        Ok(())
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn parse(s: &str) -> Json {
            serde_json::from_str(s).expect("test JSON parses")
        }

        #[test]
        fn accepts_matching_document() {
            let schema = parse(
                r#"{"type":"array","items":{"type":"object",
                    "required":["n","name"],
                    "properties":{"n":{"type":"integer"},"name":{"type":"string"}}}}"#,
            );
            let doc = parse(r#"[{"n":1,"name":"a"},{"n":2,"name":"b","extra":true}]"#);
            assert_eq!(check(&doc, &schema), Ok(()));
        }

        #[test]
        fn rejects_missing_required_field() {
            let schema = parse(r#"{"type":"object","required":["n"]}"#);
            let err = check(&parse("{}"), &schema).unwrap_err();
            assert!(err.contains("missing required field"), "{err}");
        }

        #[test]
        fn rejects_wrong_type_with_path() {
            let schema = parse(
                r#"{"type":"array","items":{"type":"object",
                    "properties":{"n":{"type":"integer"}}}}"#,
            );
            let err = check(&parse(r#"[{"n":1},{"n":1.5}]"#), &schema).unwrap_err();
            assert_eq!(err, "$[1].n: expected integer, got number");
        }

        #[test]
        fn number_accepts_floats_and_integers() {
            let schema = parse(r#"{"type":"number"}"#);
            assert_eq!(check(&parse("1.5"), &schema), Ok(()));
            assert_eq!(check(&parse("3"), &schema), Ok(()));
        }
    }
}

/// Whether `--json` was passed to the binary.
pub fn json_requested() -> bool {
    std::env::args().any(|a| a == "--json")
}

/// Emits a JSON record to stderr when `--json` was requested.
pub fn emit_json<T: serde::Serialize>(label: &str, value: &T) {
    if json_requested() {
        eprintln!("{}", serde_json::json!({ "experiment": label, "data": value }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "n"]);
        t.row(&["alpha", "1"]);
        t.row(&["b", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].starts_with("alpha  1"));
        assert!(lines[3].starts_with("b      22"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only one"]);
    }
}
