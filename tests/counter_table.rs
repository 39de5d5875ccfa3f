//! The data plane's counters have one home.
//!
//! Every process-wide counter is a row of the table in
//! `crates/dataflow/src/stats.rs` (`cbft_dataflow::stats`, re-exported as
//! `cbft_mapreduce::data_plane`). A `static` atomic or a `thread_local!`
//! declared anywhere else in the workspace's non-test sources would be a
//! second mechanism beside it, so this test fails on one. There is no
//! exemption: the table's thread totals are the workspace's only
//! thread-local.
//!
//! A file's `#[cfg(test)] mod` and everything after it are test code and
//! are not scanned; nor are comment lines.

use std::fs;
use std::path::{Path, PathBuf};

/// The file that holds the counter table.
const TABLE: &str = "crates/dataflow/src/stats.rs";

fn repo() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The kind of process- or thread-wide state `line` declares, if any.
fn declares(line: &str) -> Option<&'static str> {
    let line = line.trim_start();
    if line.starts_with("//") {
        return None;
    }
    if line.contains("thread_local!") {
        return Some("thread_local!");
    }
    let decl = ["pub ", "pub(crate) "]
        .iter()
        .fold(line, |l, vis| l.strip_prefix(vis).unwrap_or(l));
    let ty = decl.strip_prefix("static ")?.split('=').next()?;
    ty.split_once(':')
        .is_some_and(|(_, ty)| ty.contains("Atomic"))
        .then_some("static atomic")
}

/// Every such declaration in the non-test sources, as `(path, kind)`.
fn declarations() -> Vec<(String, &'static str)> {
    let root = repo();
    let mut dirs = vec![root.join("src")];
    for entry in fs::read_dir(root.join("crates")).unwrap().flatten() {
        dirs.push(entry.path().join("src"));
    }
    let mut files = Vec::new();
    for dir in &dirs {
        rust_files(dir, &mut files);
    }
    files.sort();
    let mut found = Vec::new();
    for file in files {
        let rel = file
            .strip_prefix(&root)
            .unwrap()
            .to_string_lossy()
            .into_owned();
        let text = fs::read_to_string(&file).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            let next = lines.get(i + 1).map_or("", |l| l.trim_start());
            if line.trim() == "#[cfg(test)]" && next.starts_with("mod ") {
                break;
            }
            if let Some(kind) = declares(line) {
                found.push((rel.clone(), kind));
            }
        }
    }
    found
}

#[test]
fn counters_are_declared_only_in_the_table() {
    let found = declarations();
    assert!(
        found.iter().any(|(path, _)| path == TABLE),
        "the scan must see the table itself: {found:?}"
    );
    let elsewhere: Vec<_> = found.iter().filter(|(path, _)| path != TABLE).collect();
    assert!(
        elsewhere.is_empty(),
        "a static atomic or thread-local outside {TABLE}: declare a counter \
         as a row of its table instead: {elsewhere:?}"
    );
}

#[test]
fn the_scan_sees_each_form() {
    assert_eq!(
        declares("    static RECORDS: AtomicU64 = AtomicU64::new(0);"),
        Some("static atomic")
    );
    assert_eq!(
        declares("pub(crate) static N: std::sync::atomic::AtomicUsize = X;"),
        Some("static atomic")
    );
    assert_eq!(declares("thread_local! {"), Some("thread_local!"));
    assert_eq!(declares("static NAMES: &[&str] = &[];"), None);
    assert_eq!(declares("// static X: AtomicU64"), None);
}
