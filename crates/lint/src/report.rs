//! The finding type and its text rendering.

use std::fmt::Write as _;

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Rule id (see [`crate::rules::RULES`]).
    pub rule: &'static str,
    /// Repo-relative path with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation with a suggested fix.
    pub message: String,
}

/// Render findings as `file:line: [rule] message` lines.
pub fn to_text(findings: &[Finding]) -> String {
    let mut s = String::new();
    for f in findings {
        let _ = writeln!(s, "{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
    }
    s
}
