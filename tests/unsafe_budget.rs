//! The workspace's `unsafe` budget is one expression: the call from
//! `rpkisim_crypto::sha256`'s dispatcher into its `#[target_feature]`
//! kernel, directly under the CPU feature test that makes it sound.
//! Every other crate forbids unsafe code outright, and `crypto-sim`
//! denies it everywhere but at that one `#[allow]`. This test keeps the
//! exception from growing.

use std::fs;
use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// How often the keyword `unsafe` opens a block, `fn`, `impl`, `trait`
/// or `extern` in `source`, line comments excluded. Identifiers and
/// prose that merely contain the word ("unsafe VRP", `unsafe_vrps`,
/// `#![forbid(unsafe_code)]`) do not count.
fn unsafe_openers(source: &str) -> usize {
    let code = source
        .lines()
        .map(|line| line.split("//").next().unwrap_or_default())
        .collect::<Vec<_>>()
        .join("\n");
    code.match_indices("unsafe")
        .filter(|&(at, word)| {
            let inside_identifier =
                code[..at].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_');
            let after = &code[at + word.len()..];
            let opens = ["{", "fn", "impl", "trait", "extern"]
                .iter()
                .any(|opener| after.trim_start().starts_with(opener));
            let separated = after.starts_with(char::is_whitespace) || after.starts_with('{');
            !inside_identifier && separated && opens
        })
        .count()
}

#[test]
fn the_counter_sees_unsafe_code_and_only_that() {
    assert_eq!(unsafe_openers("unsafe { kernel(state, blocks) };"), 1);
    assert_eq!(unsafe_openers("let x = unsafe\n    {\n        f()\n    };"), 1);
    assert_eq!(unsafe_openers("pub unsafe fn f() {}\nunsafe impl Send for X {}"), 2);
    assert_eq!(unsafe_openers("unsafe trait T {}\nunsafe extern \"C\" {}"), 2);
    assert_eq!(unsafe_openers("#![forbid(unsafe_code)]\n#![deny(unsafe_code)]"), 0);
    assert_eq!(unsafe_openers("let unsafe_vrps = is_unsafe(vrp); // unsafe { no }"), 0);
    assert_eq!(unsafe_openers("/// An unsafe VRP: unsafe impl of nothing"), 0);
}

#[test]
fn one_unsafe_expression_in_the_workspace() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");

    let mut libs = 0;
    for entry in fs::read_dir(&crates).expect("crates/") {
        let dir = entry.expect("directory entry").path();
        let Ok(lib) = fs::read_to_string(dir.join("src/lib.rs")) else { continue };
        libs += 1;
        let has = |attr: &str| lib.lines().any(|line| line == attr);
        if dir.ends_with("crypto-sim") {
            assert!(has("#![deny(unsafe_code)]"), "crypto-sim must deny unsafe code");
        } else {
            assert!(has("#![forbid(unsafe_code)]"), "{} must forbid unsafe code", dir.display());
        }
    }
    assert!(libs > 1, "found only {libs} library crates under crates/");

    let mut files = Vec::new();
    rust_files(&crates, &mut files);
    files.sort();
    let counts: Vec<(String, usize)> = files
        .iter()
        .filter_map(|path| {
            let count = unsafe_openers(&fs::read_to_string(path).expect("readable source"));
            let name = path.strip_prefix(&crates).expect("under crates/").display().to_string();
            (count > 0).then_some((name, count))
        })
        .collect();
    assert_eq!(
        counts,
        [("crypto-sim/src/sha256.rs".to_owned(), 1)],
        "the only unsafe expression is the SHA-NI dispatch call"
    );
}
