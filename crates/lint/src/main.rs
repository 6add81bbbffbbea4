//! `neo-lint` CLI.
//!
//! ```text
//! neo-lint [--root DIR] [paths...]
//! ```
//!
//! With no paths, lints the default sans-IO scope under `--root`
//! (default: current directory). Explicit paths (files or directories)
//! override the scope — used by CI to prove the gate trips on a seeded
//! violation fixture.
//!
//! Exit codes: 0 = no findings; 1 = findings; 2 = usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

/// Write to stdout, ignoring a closed pipe (`neo-lint | head` must not
/// panic — R2 applies to us too).
fn emit(s: &str) {
    use std::io::Write;
    let _ = std::io::stdout().write_all(s.as_bytes());
}

fn usage() -> String {
    let mut s = String::from(
        "neo-lint: protocol-invariant static analysis for the NeoBFT workspace\n\n\
         usage: neo-lint [--root DIR] [paths...]\n\nrules:\n",
    );
    for (id, name) in neo_lint::rules::RULES {
        s.push_str("  ");
        s.push_str(id);
        s.push(' ');
        s.push_str(name);
        s.push('\n');
    }
    s
}

/// `(root, paths)`; `Err("")` asks for the usage text.
fn parse_args() -> Result<(PathBuf, Vec<PathBuf>), String> {
    let mut root = PathBuf::from(".");
    let mut paths = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = PathBuf::from(args.next().ok_or("--root needs a value")?),
            "--help" | "-h" => return Err(String::new()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            path => paths.push(PathBuf::from(path)),
        }
    }
    Ok((root, paths))
}

fn main() -> ExitCode {
    let (root, paths) = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            if e.is_empty() {
                emit(&usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };

    let findings = if paths.is_empty() {
        neo_lint::lint_default_scope(&root)
    } else {
        neo_lint::lint_paths(&root, &paths)
    };
    let findings = match findings {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    emit(&neo_lint::report::to_text(&findings));
    eprintln!("neo-lint: {} finding(s)", findings.len());
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
