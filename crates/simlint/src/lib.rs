//! simlint: a determinism & conservation static-analysis pass.
//!
//! Byte-determinism is this repository's core guarantee — the parallel
//! runner byte-compares `--jobs N` against `--jobs 1`, and every figure in
//! the paper reproduction depends on two runs with one seed agreeing. The
//! classes of bug that break that guarantee are narrow and mechanical:
//! hash-ordered iteration, wall-clock or entropy reads, NaN-partial float
//! ordering, silent integer truncation in byte accounting, counters that
//! drift from the enums feeding them, and registry keys that drift from
//! the schema declaring them. `simlint` rejects all of these at the source
//! level, before a test ever has to catch the nondeterminism (which, by
//! nature, it usually would not).
//!
//! The pass is a hand-rolled lexer (see [`lexer`]) plus a per-file item
//! graph (see [`items`]) over the workspace — no `syn`, no proc-macros, no
//! external crate; JSON goes through the workspace's own `telemetry::json`
//! — so it builds in seconds and runs as a tier-1 CI gate:
//!
//! ```text
//! cargo run -p simlint                      # lint the enclosing workspace
//! cargo run -p simlint -- <root>            # lint an explicit tree
//! cargo run -p simlint -- --format json     # machine-readable findings
//! cargo run -p simlint -- --format github   # CI annotations
//! ```
//!
//! Exit status is nonzero when any finding is produced; each finding prints
//! as `file:line: rule: message`. See [`rules`] for the ruleset — per-file
//! determinism rules (D1–D4), cross-file exhaustive-accounting rules
//! (E1–E3, driven by [`items::AUDITED`]), schema-drift rules (S1/S2 against
//! `ci/metrics_schema.json`), PDES-readiness rules (P1–P3), the
//! stale-pragma rule (L1) and the layout guards (G1–G4) — plus the
//! `// simlint: allow(<rule>, <reason>)` pragma, which S2 and G ignore.

pub mod graph;
pub mod items;
pub mod lexer;
pub mod rules;

pub use rules::{lint_files, lint_files_with_schema, Finding};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use telemetry::schema::Schema;

/// Directories never descended into. `results/` holds run exports — large,
/// generated, and occasionally containing `.rs`-suffixed scratch artifacts.
const SKIP_DIRS: [&str; 5] = ["target", ".git", ".github", "related", "results"];

/// Collects every `.rs` file under `root` (skipping build output, VCS
/// metadata, and generated results), as sorted repo-relative paths.
fn collect_rs(root: &Path) -> io::Result<Vec<PathBuf>> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                    continue;
                }
                walk(&path, out)?;
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    walk(root, &mut files)?;
    files.sort();
    Ok(files)
}

fn read_with_context(path: &Path) -> io::Result<String> {
    fs::read_to_string(path)
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))
}

/// Lints the workspace rooted at `root` and returns all findings.
///
/// # Errors
///
/// Returns an error when `root` has no `Cargo.toml` (wrong directory), a
/// source file cannot be read, or `ci/metrics_schema.json` is malformed.
pub fn lint_root(root: &Path) -> io::Result<Vec<Finding>> {
    if !root.join("Cargo.toml").exists() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "{} does not look like a workspace root (no Cargo.toml)",
                root.display()
            ),
        ));
    }

    let mut analyses = Vec::new();
    for path in collect_rs(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        // The linter lints its own sources (self-lint), but not its fixture
        // tests, which deliberately embed violating source text.
        if rel.starts_with("crates/simlint/tests/") {
            continue;
        }
        let analysis = rules::analyze_file(&rel, &read_with_context(&path)?);
        analyses.push((rel, analysis));
    }

    // The schema feeds the cross-file S/E3 passes; a missing schema skips
    // them (partial trees), a malformed one is an error.
    let schema_file = root.join(graph::SCHEMA_PATH);
    let schema = if schema_file.exists() {
        let text = read_with_context(&schema_file)?;
        Some(Schema::parse(&text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", schema_file.display()),
            )
        })?)
    } else {
        None
    };
    Ok(rules::finish(&analyses, schema.as_ref()))
}
