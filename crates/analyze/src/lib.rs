//! `glacsweb-analyze`: the workspace's own lint engine.
//!
//! The paper's core field lesson (§IV–§V) is that the deployed system
//! must never hang or die unrecoverably — the 2-hour hardware watchdog
//! and RTC-reset recovery exist because code review alone did not keep
//! the Gumsense nodes alive. This workspace has a second load-bearing
//! invariant on top: the sweep engine promises byte-identical output at
//! any thread count. Neither invariant is visible to `rustc`, so this
//! crate enforces both statically, plus the unit-math and crate-hygiene
//! rules that protect them at the edges. See [`rules`] for the rule
//! table and [`suppress`] for the inline ledger that is the only way to
//! silence a finding.
//!
//! Analysis is one serial pass over the files in sorted path order.
//! Each file is lexed ([`lexer`]), run through the token rules
//! ([`rules`]) and scanned for ledger entries ([`suppress`]) — a pure
//! function of one file's text — and its findings are matched against
//! its own ledger. The findings are then normalized into a stable
//! order, so the report is deterministic. A cold run over the whole
//! workspace takes a fraction of a second, which is why there is
//! neither a cache nor a thread pool.
//!
//! Invariants a type or rustc can hold are left to them rather than
//! linted here: memo fields are `Derived<T>` (kept out of snapshots and
//! equality by the type), every hand-written snapshot codec opens with
//! an exhaustive `let Self { .. } = self;` destructure (a new field is
//! a compile error), and the fleet wake draws through a
//! `SimRng::budget` handle (its raw-draw budget holds by construction).
//!
//! The analyzer is deliberately dependency-free: it lexes Rust with its
//! own comment/string-aware tokenizer rather than `syn`, and reads and
//! writes all of its JSON by hand ([`json`], [`report`], [`sarif`]), so
//! it builds first and fastest in the air-gapped CI image.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod sarif;
pub mod suppress;

use std::fs;
use std::path::{Path, PathBuf};

pub use report::Report;
pub use rules::{Finding, RuleId};
pub use suppress::Suppression;

/// Analyzes one file's source text under its workspace-relative path
/// (the path determines which rules are in scope): token-rule and
/// malformed-ledger findings matched against the file's own ledger,
/// stale entries included, plus the ledger with `used` set. Pure in
/// `(rel, source)`.
fn analyze_file(rel: &str, source: &str) -> (Vec<Finding>, Vec<Suppression>) {
    let toks = lexer::lex(source);
    let (mask, test_ranges) = rules::test_mask(&toks);
    let mut findings = rules::check_tokens(rel, &toks, &mask);
    let (mut sups, malformed) = suppress::scan(rel, source, &test_ranges);
    findings.extend(malformed);
    let unused = suppress::apply(&mut findings, &mut sups);
    findings.extend(unused);
    (findings, sups)
}

/// Analyzes a set of in-memory `(rel, source)` files as one workspace.
/// This is the unit the engine tests drive: read the live sources,
/// apply a textual mutation, and re-run the full engine without touching
/// disk.
pub fn analyze_sources(root_label: &str, files: &[(String, String)]) -> Report {
    let mut findings = Vec::new();
    let mut suppressions = Vec::new();
    for (rel, source) in files {
        let (f, sups) = analyze_file(rel, source);
        findings.extend(f);
        suppressions.extend(sups);
    }
    let mut report = Report {
        root: root_label.to_string(),
        files_scanned: files.len(),
        findings,
        suppressions,
    };
    report.normalize();
    report
}

/// Single-file wrapper over [`analyze_sources`], normalized the same
/// way. This is the unit the fixture tests drive.
pub fn analyze_source(rel: &str, source: &str) -> (Vec<Finding>, Vec<Suppression>) {
    let report = analyze_sources("", &[(rel.to_string(), source.to_string())]);
    (report.findings, report.suppressions)
}

/// Walks `crates/`, `src/`, `tests/`, and `examples/` under `root` and
/// analyzes every `.rs` file. `vendor/` and `target/` are never visited:
/// vendored third-party subsets are not held to project rules.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Report> {
    let sources = workspace_sources(root)?;
    Ok(analyze_sources(&root.display().to_string(), &sources))
}

/// Reads every in-scope `.rs` file under `root` as `(rel, source)`
/// pairs, sorted by path. This is the exact input set of a workspace
/// run; the mutation tests read it, patch one file in memory, and re-run
/// the engine via [`analyze_sources`].
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut paths = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        collect_rs(&root.join(top), &mut paths)?;
    }
    // Deterministic reporting order regardless of directory-entry order —
    // the analyzer holds itself to its own determinism rule.
    paths.sort();
    let mut sources = Vec::with_capacity(paths.len());
    for path in &paths {
        let rel = rel_path(root, path);
        let source = fs::read_to_string(path)?;
        sources.push((rel, source));
    }
    Ok(sources)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if name == "target" || name == "vendor" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Finds the workspace root by walking up from `start` until a directory
/// holding a `Cargo.toml` that declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
