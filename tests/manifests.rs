//! The dependency graph matches use.
//!
//! Every dependency a workspace manifest declares must be named by the
//! code that could use it, every vendored stub and every
//! `[workspace.dependencies]` entry must be used by some member, and the
//! trusted tier (`cbft-verify`) must not reach the untrusted engine
//! (`cbft-mapreduce`) or anything built on it.
//!
//! A crate *names* a dependency `dep` when a non-comment line of its
//! sources holds `dep::`, `dep!`, `use dep` or `extern crate dep` (`-`
//! read as `_`). A bare word is not enough: `bytes` and `rand` are also
//! ordinary variable names. The renaming form `dep as name` is covered,
//! since it only occurs after `use` or `extern crate`.
//!
//! - A normal dependency must be named under `src/` (or in `build.rs`).
//! - A dev-dependency must be named under `src/`, `tests/`, `benches/`
//!   or `examples/`. A subdirectory with a `Cargo.toml` of its own is
//!   another package and is not searched.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// The crate that holds the verifier, and the crate it must not reach.
const TRUSTED: &str = "cbft-verify";
const ENGINE: &str = "cbft-mapreduce";

/// One manifest: its directory and, per dependency section, the names
/// declared there.
struct Manifest {
    dir: PathBuf,
    name: String,
    sections: BTreeMap<String, Vec<(String, String)>>,
}

impl Manifest {
    fn read(dir: &Path) -> Manifest {
        let path = dir.join("Cargo.toml");
        let text = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let mut name = String::new();
        let mut sections: BTreeMap<String, Vec<(String, String)>> = BTreeMap::new();
        let mut section = String::new();
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(header) = line.strip_prefix('[') {
                section = header.trim_end_matches(']').to_owned();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            let key = key.trim();
            if section == "package" && key == "name" {
                name = value.trim().trim_matches('"').to_owned();
            }
            if section.ends_with("dependencies") {
                let dep = key.strip_suffix(".workspace").unwrap_or(key);
                sections
                    .entry(section.clone())
                    .or_default()
                    .push((dep.to_owned(), value.trim().to_owned()));
            }
        }
        Manifest {
            dir: dir.to_owned(),
            name,
            sections,
        }
    }

    fn deps(&self, section: &str) -> impl Iterator<Item = &str> {
        self.sections
            .get(section)
            .into_iter()
            .flatten()
            .map(|(dep, _)| dep.as_str())
    }

    /// Every `.rs` line under the given subdirectories (and `build.rs`),
    /// comment lines dropped.
    fn code_lines(&self, subdirs: &[&str]) -> Vec<String> {
        let mut files = Vec::new();
        for sub in subdirs {
            rust_files(&self.dir.join(sub), &mut files);
        }
        let build = self.dir.join("build.rs");
        if build.is_file() {
            files.push(build);
        }
        files
            .iter()
            .flat_map(|f| {
                let text = fs::read_to_string(f)
                    .unwrap_or_else(|e| panic!("cannot read {}: {e}", f.display()));
                text.lines()
                    .map(str::trim)
                    .filter(|l| !l.starts_with("//"))
                    .map(str::to_owned)
                    .collect::<Vec<_>>()
            })
            .collect()
    }
}

/// Collects `.rs` files below `dir`, skipping nested packages and build
/// output.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = entries.map(|e| e.unwrap().path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let nested_package = path.join("Cargo.toml").is_file();
            if !nested_package && path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Whether `line` names the crate `ident` in one of the forms the module
/// doc lists.
fn names(line: &str, ident: &str) -> bool {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    line.match_indices(ident).any(|(at, _)| {
        let before = line[..at].chars().next_back();
        let after = &line[at + ident.len()..];
        if before.is_some_and(is_ident) {
            return false;
        }
        if after.starts_with("::") || after.starts_with('!') {
            return true;
        }
        let word_ends = !after.starts_with(is_ident);
        let head = line[..at].trim_end();
        word_ends && (head.ends_with("use") || head.ends_with("extern crate"))
    })
}

fn repo() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The root manifest and every `crates/*` member.
fn members() -> Vec<Manifest> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(repo().join("crates"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    dirs.insert(0, repo());
    dirs.iter().map(|d| Manifest::read(d)).collect()
}

/// The declared dependencies no source names, one line each.
fn unnamed(m: &Manifest, section: &str, subdirs: &[&str]) -> Vec<String> {
    let lines = m.code_lines(subdirs);
    m.deps(section)
        .filter(|dep| {
            let ident = dep.replace('-', "_");
            !lines.iter().any(|l| names(l, &ident))
        })
        .map(|dep| format!("{} [{section}] {dep}", m.name))
        .collect()
}

#[test]
fn every_declared_dependency_is_named_by_the_code_that_could_use_it() {
    let mut unused = Vec::new();
    for m in members() {
        unused.extend(unnamed(&m, "dependencies", &["src"]));
        let dev_dirs = ["src", "tests", "benches", "examples"];
        unused.extend(unnamed(&m, "dev-dependencies", &dev_dirs));
    }
    assert!(
        unused.is_empty(),
        "dependencies no source names:\n  {}",
        unused.join("\n  ")
    );
}

#[test]
fn every_vendored_stub_and_workspace_dependency_is_used() {
    let root = Manifest::read(&repo());
    let declared: BTreeSet<String> = members()
        .iter()
        .flat_map(|m| {
            let sections = m.sections.iter();
            let member = sections.filter(|(s, _)| *s != "workspace.dependencies");
            member.flat_map(|(_, deps)| deps.iter().map(|(d, _)| d.clone()))
        })
        .collect();
    let entries = &root.sections["workspace.dependencies"];
    let unused: Vec<&str> = entries
        .iter()
        .map(|(dep, _)| dep.as_str())
        .filter(|dep| !declared.contains(*dep))
        .collect();
    assert!(
        unused.is_empty(),
        "[workspace.dependencies] entries no member declares: {unused:?}"
    );

    // Vendored stubs reachable from a used entry, through the stubs' own
    // path dependencies.
    let vendor_of = |value: &str| -> Option<String> {
        let path = value.split("path = \"").nth(1)?.split('"').next()?;
        Some(path.rsplit('/').next()?.to_owned())
    };
    let mut reached: BTreeSet<String> = BTreeSet::new();
    let mut todo: Vec<String> = entries.iter().filter_map(|(_, v)| vendor_of(v)).collect();
    while let Some(stub) = todo.pop() {
        let dir = repo().join("vendor").join(&stub);
        if !dir.join("Cargo.toml").is_file() || !reached.insert(stub) {
            continue;
        }
        let m = Manifest::read(&dir);
        todo.extend(
            m.sections
                .values()
                .flatten()
                .filter_map(|(_, v)| vendor_of(v)),
        );
    }
    let mut stray = Vec::new();
    for entry in fs::read_dir(repo().join("vendor")).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if path.is_dir() && !reached.contains(&name) {
            stray.push(name);
        }
    }
    stray.sort();
    assert!(stray.is_empty(), "vendored stubs no member uses: {stray:?}");
}

#[test]
fn the_trusted_tier_does_not_depend_on_the_engine() {
    let members = members();
    let graph: BTreeMap<&str, Vec<&str>> = members
        .iter()
        .map(|m| (m.name.as_str(), m.deps("dependencies").collect()))
        .collect();
    let trusted = members
        .iter()
        .find(|m| m.name == TRUSTED)
        .unwrap_or_else(|| panic!("no {TRUSTED} member"));
    let named: Vec<&str> = trusted
        .sections
        .keys()
        .flat_map(|s| trusted.deps(s))
        .collect();
    assert!(
        !named.contains(&ENGINE),
        "{TRUSTED} names {ENGINE}: {named:?}"
    );
    let mut reached: BTreeSet<&str> = BTreeSet::new();
    let mut todo = vec![TRUSTED];
    while let Some(krate) = todo.pop() {
        if reached.insert(krate) {
            todo.extend(graph.get(krate).into_iter().flatten().copied());
        }
    }
    assert!(
        !reached.contains(ENGINE),
        "{TRUSTED} reaches {ENGINE}: {reached:?}"
    );
}

#[test]
fn a_crate_is_named_only_in_the_forms_that_mean_a_path() {
    for line in [
        "use bytes::Bytes;",
        "pub use cbft_bft as bft;",
        "extern crate bytes;",
        "let b = bytes::Bytes::new();",
        "proptest! {",
        "use serde;",
    ] {
        let ident = ["bytes", "cbft_bft", "proptest", "serde"]
            .into_iter()
            .find(|i| line.contains(i))
            .unwrap();
        assert!(names(line, ident), "{line}");
    }
    for (line, ident) in [
        ("let bytes = out.len();", "bytes"),
        ("total += bytes as u64;", "bytes"),
        ("shuffle_bytes::of(x)", "bytes"),
        ("use serde_json::Value;", "serde"),
        ("let rand = 4;", "rand"),
    ] {
        assert!(!names(line, ident), "{line}");
    }
}
