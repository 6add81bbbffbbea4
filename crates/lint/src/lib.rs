//! `neo-lint` — protocol-invariant static analysis for the NeoBFT
//! workspace.
//!
//! NeoBFT's correctness rests on every replica processing the
//! aom-ordered stream deterministically and surviving arbitrary
//! Byzantine input without crashing. This crate checks those
//! invariants mechanically over the sans-IO protocol crates; see
//! [`dataflow`] for the rule set and DESIGN.md §10 for the rationale.
//! The gate is "zero findings": every finding is fixed or carries an
//! inline waiver with its reason.
//!
//! Deliberately zero-dependency: the build environment for this repo
//! cannot assume a crates.io mirror, so parsing is a hand-rolled token
//! stream ([`lexer`]) feeding an item model ([`parser`]) rather than
//! `syn`.

pub mod callgraph;
pub mod dataflow;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;

pub use report::Finding;

use std::io;
use std::path::{Path, PathBuf};

/// Directories linted by default, relative to the workspace root: the
/// sans-IO protocol crates. The same six crates carry the clippy
/// determinism lints (`clippy.toml` + `[lints.clippy]` in each);
/// `sim`/`switch`/`bench`/`store` and the root runtime legitimately touch
/// wall clocks and unordered collections.
pub const DEFAULT_SCOPE: &[&str] = &[
    "crates/app/src",
    "crates/aom/src",
    "crates/baselines/src",
    "crates/crypto/src",
    "crates/neobft/src",
    "crates/wire/src",
];

/// Recursively collect `.rs` files under `path` (or `path` itself if it
/// is a file), sorted for deterministic report output.
pub fn collect_rs_files(path: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    collect_into(path, &mut out)?;
    out.sort();
    Ok(out)
}

fn collect_into(path: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let meta = std::fs::metadata(path)?;
    if meta.is_file() {
        if path.extension().is_some_and(|e| e == "rs") {
            out.push(path.to_path_buf());
        }
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(path)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            let name = entry.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "target" || name == ".git" {
                continue;
            }
            collect_into(&entry, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}

/// Lint every `.rs` file under each of `paths` (files or directories,
/// absolute or relative to `root`). Findings carry root-relative paths
/// with forward slashes; results are sorted by (file, line, rule).
pub fn lint_paths(root: &Path, paths: &[PathBuf]) -> io::Result<Vec<Finding>> {
    // Load everything first: the rules run over one call graph spanning
    // every linted file.
    let mut sources: Vec<(String, String)> = Vec::new();
    for p in paths {
        let abs = if p.is_absolute() {
            p.clone()
        } else {
            root.join(p)
        };
        for file in collect_rs_files(&abs)? {
            let src = std::fs::read_to_string(&file)?;
            let rel = rel_path(root, &file);
            if !sources.iter().any(|(r, _)| *r == rel) {
                sources.push((rel, src));
            }
        }
    }
    let mut findings = rules::analyze_workspace(&sources);
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(findings)
}

/// Lint the default sans-IO scope under `root`, skipping scope entries
/// that do not exist (so the linter still runs on partial checkouts).
pub fn lint_default_scope(root: &Path) -> io::Result<Vec<Finding>> {
    let paths: Vec<PathBuf> = DEFAULT_SCOPE
        .iter()
        .map(PathBuf::from)
        .filter(|p| root.join(p).exists())
        .collect();
    lint_paths(root, &paths)
}

/// Root-relative display path with forward slashes.
fn rel_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    let s = rel.to_string_lossy();
    if std::path::MAIN_SEPARATOR == '/' {
        s.into_owned()
    } else {
        s.replace(std::path::MAIN_SEPARATOR, "/")
    }
}
