//! Workspace self-run: lint the real protocol crates and hold the
//! result to zero findings, plus ratchets: `Vec<u8>` stays out of
//! `Context` send signatures now that payloads are shared
//! `neo_wire::Payload` buffers, and the replica stays split — no file of
//! `neo-core` regrows past 900 lines, executor timer ids stay inside
//! the replica's timer table, and a `/health` document has one builder.

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_has_zero_findings() {
    // The gate: nothing in the default scope is baselined. Handler
    // panic-freedom (R2/R8), bounded growth (R5), the verify-then-apply
    // boundary (R6), meter accounting (R7) and static metric names (R9)
    // are invariants — a finding is fixed or carries a reviewed inline
    // waiver/marker with its reason.
    let findings = neo_lint::lint_default_scope(&workspace_root()).expect("lint workspace");
    assert!(
        findings.is_empty(),
        "neo-lint findings in the protocol crates: {findings:#?}"
    );
}

/// Extract the signature text (whitespace stripped, up to the body `{`
/// or declaration `;`) of every `fn send` / `fn send_after` /
/// `fn broadcast` in `src`.
fn send_signatures(src: &str) -> Vec<(&'static str, String)> {
    let mut out = Vec::new();
    for target in ["send", "send_after", "broadcast"] {
        let needle = format!("fn {target}");
        let mut from = 0;
        while let Some(pos) = src[from..].find(&needle) {
            let abs = from + pos;
            from = abs + needle.len();
            // Only the fn itself: `fn send` inside `fn send_after` is
            // filtered because the next char is not `(`.
            let rest = &src[from..];
            if rest.starts_with('(') {
                let end = rest.find(['{', ';']).unwrap_or(rest.len());
                let sig: String = rest[..end].split_whitespace().collect::<Vec<_>>().join("");
                out.push((target, sig));
            }
        }
    }
    out
}

#[test]
fn context_send_signatures_take_payload_not_vec_u8() {
    // Ratchet: every send-shaped signature in the workspace — the
    // `Context` trait, its implementations, and test probes — must carry
    // `Payload`, never `Vec<u8>`. A `Vec<u8>` send reintroduces a
    // per-destination byte copy on broadcast fan-out.
    let root = workspace_root();
    let files = neo_lint::collect_rs_files(&root).expect("collect workspace sources");
    let mut violations = Vec::new();
    for file in &files {
        if file.components().any(|c| c.as_os_str() == "fixtures") {
            continue; // lint fixtures are deliberately bad code
        }
        let src = std::fs::read_to_string(file).expect("read source file");
        for (name, sig) in send_signatures(&src) {
            if sig.contains("Vec<u8>") {
                violations.push(format!("{}: fn {name}: {sig}", file.display()));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "`Vec<u8>` crept back into Context send signatures: {violations:#?}"
    );
}

#[test]
fn the_replica_stays_split_and_timer_ids_stay_in_the_timer_table() {
    // Ratchet for the `replica/` split: a file that regrows is one
    // concern's state becoming reachable from another's handlers again,
    // and a `TimerId` outside `timers.rs` is a back-pointer some handler
    // must remember to clear (`Node::on_timer`, which receives the id
    // from the executor, lives in `replica.rs`, outside the directory).
    let src = workspace_root().join("crates/neobft/src");
    let files = neo_lint::collect_rs_files(&src).expect("collect neo-core sources");
    assert!(files.iter().any(|f| f.ends_with("replica/timers.rs")));
    for file in &files {
        let text = std::fs::read_to_string(file).expect("read source file");
        let lines = text.lines().count();
        assert!(lines <= 900, "{}: {lines} lines (> 900)", file.display());
        let in_replica_dir = file.parent().is_some_and(|d| d.ends_with("replica"));
        if in_replica_dir && !file.ends_with("timers.rs") {
            assert!(
                !text.contains("TimerId"),
                "{}: `TimerId` outside the timer table",
                file.display()
            );
        }
    }
}

#[test]
fn a_health_document_is_built_in_exactly_one_place() {
    // Ratchet for the one node report: `NodeReport::build` is the only
    // code that fills in a `HealthReport`, so there is one definition of
    // `healthy`. A second builder (an executor's own, a console's
    // made-up one) is how the views of a node came to disagree before.
    let root = workspace_root();
    let files = neo_lint::collect_rs_files(&root).expect("collect workspace sources");
    let mut builders = Vec::new();
    for file in &files {
        let rel = file.strip_prefix(&root).expect("collected under the root");
        let product = rel.starts_with("crates") || rel.starts_with("src");
        if !product || rel.components().any(|c| c.as_os_str() == "tests") {
            continue;
        }
        let text = std::fs::read_to_string(file).expect("read source file");
        let code = text.split("#[cfg(test)]").next().unwrap_or_default();
        let built =
            code.matches("HealthReport {").count() - code.matches("struct HealthReport {").count();
        if built > 0 {
            builders.push(format!("{}: {built}", rel.display()));
        }
    }
    assert_eq!(
        builders,
        ["crates/sim/src/obs.rs: 1"],
        "`HealthReport {{` outside tests"
    );
}
