//! Fixture-based tests: intentionally-bad fixtures per rule under
//! `tests/fixtures/`, asserting exact finding counts, plus a fixture
//! proving waivers suppress.

use std::path::{Path, PathBuf};

fn fixture(name: &str) -> Vec<neo_lint::Finding> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    neo_lint::lint_paths(&dir, &[PathBuf::from(name)]).expect("fixture lints")
}

fn count(findings: &[neo_lint::Finding], rule: &str) -> usize {
    findings.iter().filter(|f| f.rule == rule).count()
}

#[test]
fn r2_fixture_has_exact_findings() {
    let f = fixture("r2_panics.rs");
    assert_eq!(count(&f, "R2"), 5, "findings: {f:#?}");
    assert_eq!(f.len(), 5, "no other rules should fire: {f:#?}");
    // The non-handler `helper` unwrap must not be flagged.
    assert!(f.iter().all(|x| x.message.contains("on_message")));
}

#[test]
fn r5_fixture_has_exact_findings() {
    let f = fixture("r5_unbounded.rs");
    assert_eq!(count(&f, "R5"), 2, "findings: {f:#?}");
    assert_eq!(f.len(), 2, "no other rules should fire: {f:#?}");
    // The ReplicaId-keyed map must not be flagged.
    assert!(f.iter().all(|x| !x.message.contains("per_replica")));
}

#[test]
fn r6_fixture_has_exact_findings() {
    let f = fixture("r6_verify_order.rs");
    assert_eq!(count(&f, "R6"), 3, "findings: {f:#?}");
    // The unbounded client_table inserts legitimately trip R5 too; no
    // other rules may fire.
    assert_eq!(count(&f, "R5"), 2, "findings: {f:#?}");
    assert_eq!(f.len(), 5, "no other rules should fire: {f:#?}");
    // The acceptance case: a handler that mutates client_table before
    // verify_request_auth is flagged...
    assert!(f.iter().any(|x| x.rule == "R6"
        && x.message.contains("client_table")
        && x.message.contains("on_request")));
    // ...while the verify-first twin, the verified-marker handler, and
    // the waived write all pass.
    for clean in [
        "on_request_checked",
        "on_sync_checked",
        "on_delivery",
        "on_local_restore",
    ] {
        assert!(
            f.iter()
                .all(|x| x.rule != "R6" || !x.message.contains(clean)),
            "{clean} must be clean: {f:#?}"
        );
    }
    // The interprocedural edge names both the handler and the helper.
    assert!(f.iter().any(|x| x.rule == "R6"
        && x.message.contains("on_sync")
        && x.message.contains("apply_sync")));
}

#[test]
fn storage_recovery_fixture_has_exact_findings() {
    let f = fixture("storage_recovery.rs");
    assert_eq!(count(&f, "R6"), 2, "findings: {f:#?}");
    assert_eq!(count(&f, "R5"), 2, "findings: {f:#?}");
    assert_eq!(f.len(), 4, "no other rules should fire: {f:#?}");
    // Both bad storage routines are flagged under both rules and named
    // as storage routines, not handlers.
    for flagged in ["install_checkpoint", "replay_suffix"] {
        for rule in ["R5", "R6"] {
            assert!(
                f.iter()
                    .any(|x| x.rule == rule && x.message.contains(flagged)),
                "expected {rule} in {flagged}: {f:#?}"
            );
        }
    }
    assert!(f.iter().all(|x| x.message.contains("storage routine")));
    // The verify-first twin and the marker-verified WAL replay are clean.
    for clean in ["install_checkpoint_checked", "replay_wal"] {
        assert!(
            f.iter().all(|x| !x.message.contains(clean)),
            "{clean} must be clean: {f:#?}"
        );
    }
}

#[test]
fn r7_fixture_has_exact_findings() {
    let f = fixture("r7_meter.rs");
    assert_eq!(count(&f, "R7"), 2, "findings: {f:#?}");
    assert_eq!(f.len(), 2, "no other rules should fire: {f:#?}");
    // Metered, façade-routed, and waived verifies are all clean.
    for clean in [
        "verify_cert_metered",
        "verify_entry_metered",
        "verify_via_facade",
        "verify_unmetered_shim",
    ] {
        assert!(
            f.iter().all(|x| !x.message.contains(clean)),
            "{clean} must be clean: {f:#?}"
        );
    }
}

#[test]
fn r7_pool_fixture_has_exact_findings() {
    let f = fixture("r7_pool.rs");
    assert_eq!(count(&f, "R7"), 2, "findings: {f:#?}");
    assert_eq!(f.len(), 2, "no other rules should fire: {f:#?}");
    // The VerifyPool/verify_batch vocabulary is façade-routed: job
    // verifies, batch verifies, and dispatch plumbing are all clean.
    for clean in [
        "run_packet_job",
        "run_confirm_jobs",
        "submit_work",
        "absorb_metered",
    ] {
        assert!(
            f.iter().all(|x| !x.message.contains(clean)),
            "{clean} must be clean: {f:#?}"
        );
    }
    // Raw primitives beside the pool are still in scope.
    for flagged in ["absorb_completed", "precheck_entry"] {
        assert!(
            f.iter()
                .any(|x| x.rule == "R7" && x.message.contains(flagged)),
            "expected R7 in {flagged}: {f:#?}"
        );
    }
}

#[test]
fn r8_fixture_has_exact_findings() {
    let f = fixture("r8_helper_panics.rs");
    assert_eq!(count(&f, "R8"), 3, "findings: {f:#?}");
    // The direct `.unwrap()` in a handler body stays R2's territory.
    assert_eq!(count(&f, "R2"), 1, "findings: {f:#?}");
    assert_eq!(f.len(), 4, "no other rules should fire: {f:#?}");
    // Each R8 is anchored at the helper's panic site and names the handler.
    for (helper, handler) in [
        ("decode_strict", "on_message"),
        ("apply", "on_message"),
        ("commit", "on_commit"),
    ] {
        assert!(
            f.iter().any(|x| x.rule == "R8"
                && x.message.contains(helper)
                && x.message.contains(handler)),
            "expected R8 for {helper} via {handler}: {f:#?}"
        );
    }
    // Uncalled helpers, site-waived panics, and the free decoder named
    // `unwrap` must not be flagged.
    for clean in ["offline_tool", "checked_slot", "on_raw"] {
        assert!(
            f.iter().all(|x| !x.message.contains(clean)),
            "{clean} must be clean: {f:#?}"
        );
    }
}

#[test]
fn split_owner_fixture_has_exact_findings() {
    // Two files, one `impl`: the handlers in one, the state and the
    // helpers in the other. Linted alone, each file is clean.
    let f = fixture("split_owner");
    assert_eq!(count(&f, "R6"), 1, "findings: {f:#?}");
    assert_eq!(count(&f, "R8"), 1, "findings: {f:#?}");
    assert_eq!(f.len(), 2, "no other rules should fire: {f:#?}");
    // R6 sits at the call site and names the handler, the helper and
    // the field of the other file's universe.
    assert!(f.iter().any(|x| x.rule == "R6"
        && x.file == "split_owner/handlers.rs"
        && x.message.contains("`on_reply`")
        && x.message.contains("apply_reply")
        && x.message.contains("client_table")));
    // R8 sits at the helper's panic site — `Replica`'s, not the
    // same-named one of `Sequencer`.
    assert!(f.iter().any(|x| x.rule == "R8"
        && x.file == "split_owner/state.rs"
        && x.line == 19
        && x.message.contains("decode_strict")
        && x.message.contains("on_raw")));
    for half in ["split_owner/handlers.rs", "split_owner/state.rs"] {
        assert!(fixture(half).is_empty(), "{half} alone must be clean");
    }
}

#[test]
fn r9_fixture_has_exact_findings() {
    let f = fixture("r9_metrics.rs");
    assert_eq!(count(&f, "R9"), 4, "findings: {f:#?}");
    assert_eq!(f.len(), 4, "no other rules should fire: {f:#?}");
    // Every finding sits in `record`; the static names, the
    // single-argument value calls, and the waived site are all clean.
    assert!(f.iter().all(|x| (18..=22).contains(&x.line)), "{f:#?}");
}

#[test]
fn waivers_suppress_all_findings() {
    let f = fixture("waived.rs");
    assert!(f.is_empty(), "waived fixture must be clean: {f:#?}");
}

#[test]
fn findings_are_sorted_and_stable() {
    let f = fixture("r2_panics.rs");
    let mut sorted = f.clone();
    sorted
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    assert_eq!(f, sorted);
    // Deterministic across runs.
    assert_eq!(f, fixture("r2_panics.rs"));
}
