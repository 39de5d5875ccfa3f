//! DESIGN.md's references resolve.
//!
//! The design document names the tests that pin its invariants and the
//! `bench_results/` records that hold its measurements, and the code,
//! the README, CI and the verify skill point into it by section. Each of
//! those references is checked against the tree:
//!
//! - every `` `path.rs::name` `` in DESIGN.md names a file that exists
//!   and contains `fn name`;
//! - every `bench_results/…` path DESIGN.md cites exists;
//! - every `DESIGN.md §…` reference in a `.rs` file, `README.md`,
//!   `.github/workflows/ci.yml` and `.claude/skills/verify/SKILL.md`
//!   names a section that exists, and a quoted title after it names a
//!   heading or a bold lead-in of that section.

use std::fs;
use std::path::{Path, PathBuf};

fn repo() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn design() -> String {
    fs::read_to_string(repo().join("DESIGN.md")).expect("DESIGN.md is readable")
}

fn is_word(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

fn is_path(c: char) -> bool {
    is_word(c) || matches!(c, '/' | '.' | '-')
}

/// The backticked spans of `text`, fenced code blocks skipped.
fn code_spans(text: &str) -> Vec<&str> {
    let mut spans = Vec::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if !fenced {
            spans.extend(line.split('`').skip(1).step_by(2));
        }
    }
    spans
}

/// `(path, fn name)` for every span of the form `path.rs::name`.
fn test_citations(text: &str) -> Vec<(&str, &str)> {
    code_spans(text)
        .into_iter()
        .filter_map(|span| {
            let (path, name) = span.split_once(".rs::")?;
            let plain = path.chars().all(is_path) && name.chars().all(is_word);
            (plain && !name.is_empty()).then(|| (&span[..path.len() + 3], name))
        })
        .collect()
}

/// Whether `source` defines a function called `name`.
fn defines(source: &str, name: &str) -> bool {
    let needle = format!("fn {name}");
    source.match_indices(&needle).any(|(at, _)| {
        let after = source[at + needle.len()..].chars().next();
        let before = source[..at].chars().next_back();
        !after.is_some_and(is_word) && !before.is_some_and(is_word)
    })
}

/// One section of DESIGN.md: its number (`5c`, `2`, or empty for an
/// unnumbered heading), its title, and the titles a reference may quote
/// inside it (its `###` headings and its bold lead-ins).
struct Section {
    id: String,
    titles: Vec<String>,
}

fn sections(text: &str) -> Vec<Section> {
    let mut out: Vec<Section> = Vec::new();
    for line in text.lines() {
        if let Some(head) = line.strip_prefix("## ") {
            let (id, title) = match head.split_once(". ") {
                Some((id, title)) if id.chars().all(is_word) => (id, title),
                _ => ("", head),
            };
            out.push(Section {
                id: id.to_owned(),
                titles: vec![title.to_owned()],
            });
        } else if let Some(section) = out.last_mut() {
            if let Some(sub) = line.strip_prefix("### ") {
                section.titles.push(sub.to_owned());
            }
            for bold in line.split("**").skip(1).step_by(2) {
                section.titles.push(bold.trim_end_matches('.').to_owned());
            }
        }
    }
    out
}

/// A `DESIGN.md §…` reference: the section number, if any, and the
/// quoted title, if any.
#[derive(Debug)]
struct SectionRef {
    id: String,
    title: Option<String>,
}

/// Strips the comment leader a continuation line of a `.rs` or YAML
/// comment starts with.
fn uncomment(line: &str) -> &str {
    let line = line.trim_start();
    ["//!", "///", "//", "#"]
        .iter()
        .find_map(|lead| line.strip_prefix(lead))
        .unwrap_or(line)
        .trim_start()
}

fn section_refs(text: &str) -> Vec<SectionRef> {
    const MARK: &str = "DESIGN.md §";
    let lines: Vec<&str> = text.lines().collect();
    let mut refs = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        for (at, _) in line.match_indices(MARK) {
            // A quoted title may wrap onto the next comment line.
            let mut rest = line[at + MARK.len()..].to_owned();
            if let Some(next) = lines.get(i + 1) {
                rest.push(' ');
                rest.push_str(uncomment(next));
            }
            let id: String = rest.chars().take_while(|&c| is_word(c)).collect();
            let after = rest[id.len()..].trim_start();
            let title = after
                .strip_prefix('"')
                .and_then(|t| t.split_once('"'))
                .map(|(t, _)| t.to_owned());
            refs.push(SectionRef { id, title });
        }
    }
    refs
}

fn resolves(r: &SectionRef, sections: &[Section]) -> bool {
    if r.id.is_empty() && r.title.is_none() {
        return false;
    }
    sections
        .iter()
        .filter(|s| r.id.is_empty() || s.id == r.id)
        .any(|s| r.title.as_ref().is_none_or(|t| s.titles.contains(t)))
}

/// Collects `.rs` files below `dir`, skipping build output and VCS data.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = entries.map(|e| e.unwrap().path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                rust_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_cited_test_exists_where_the_design_says() {
    let text = design();
    let citations = test_citations(&text);
    assert!(!citations.is_empty(), "DESIGN.md names no test");
    let missing: Vec<String> = citations
        .iter()
        .filter(|(path, name)| {
            fs::read_to_string(repo().join(path)).map_or(true, |src| !defines(&src, name))
        })
        .map(|(path, name)| format!("{path}::{name}"))
        .collect();
    assert!(
        missing.is_empty(),
        "DESIGN.md cites functions that do not exist:\n  {}",
        missing.join("\n  ")
    );
}

#[test]
fn every_cited_bench_record_exists() {
    const DIR: &str = "bench_results/";
    let text = design();
    let mut cited = Vec::new();
    for (at, _) in text.match_indices(DIR) {
        let path: String = text[at..].chars().take_while(|&c| is_path(c)).collect();
        cited.push(path.trim_end_matches('.').to_owned());
    }
    assert!(!cited.is_empty(), "DESIGN.md cites no bench record");
    let missing: Vec<&String> = cited.iter().filter(|p| !repo().join(p).exists()).collect();
    assert!(
        missing.is_empty(),
        "DESIGN.md cites bench records that do not exist: {missing:?}"
    );
}

#[test]
fn every_section_reference_names_a_heading_that_exists() {
    let sections = sections(&design());
    let mut files = vec![
        repo().join("README.md"),
        repo().join(".github/workflows/ci.yml"),
        repo().join(".claude/skills/verify/SKILL.md"),
    ];
    rust_files(&repo(), &mut files);
    // This file's own references are the parser's fixtures.
    files.retain(|f| !f.ends_with("tests/design_doc.rs"));
    let mut dangling = Vec::new();
    let mut seen = 0;
    for file in &files {
        let Ok(text) = fs::read_to_string(file) else {
            continue;
        };
        for r in section_refs(&text) {
            seen += 1;
            if !resolves(&r, &sections) {
                let rel = file.strip_prefix(repo()).unwrap_or(file);
                dangling.push(format!("{}: {r:?}", rel.display()));
            }
        }
    }
    assert!(seen > 0, "no DESIGN.md § reference found");
    assert!(
        dangling.is_empty(),
        "DESIGN.md § references that name no heading:\n  {}",
        dangling.join("\n  ")
    );
}

#[test]
fn the_reference_parsers_read_what_they_are_given() {
    let doc = "## 5c. Data plane\n### Batch boundaries\n**Shuffle.** text\n```\n`x.rs::no`\n```\n\
               see `tests/a.rs::b_c` and `x.rs` and `bench_results/x.json`.\n## 6. Tests\n";
    assert_eq!(test_citations(doc), vec![("tests/a.rs", "b_c")]);
    let s = sections(doc);
    assert_eq!(s[0].id, "5c");
    assert_eq!(s[0].titles, ["Data plane", "Batch boundaries", "Shuffle"]);

    let code = "// DESIGN.md §5c \"Batch\n// boundaries\", DESIGN.md §5c \"Shuff\", DESIGN.md §6\n\
                # DESIGN.md §6 \"Shuffle\" and DESIGN.md §9\n";
    let refs = section_refs(code);
    assert_eq!(refs.len(), 5);
    assert!(
        resolves(&refs[0], &s),
        "a title may wrap onto the next line"
    );
    assert!(!resolves(&refs[1], &s), "a title must match whole");
    assert!(resolves(&refs[2], &s));
    assert!(
        !resolves(&refs[3], &s),
        "a title must be in the named section"
    );
    assert!(!resolves(&refs[4], &s), "§9 does not exist");
    assert!(defines("fn b_c() {}", "b_c") && !defines("fn b_cd() {}", "b_c"));
}
