//! Rule table and evaluation entry points.
//!
//! One pass per file — lex, then parse into the item model
//! ([`crate::parser`]) — then one call graph ([`crate::callgraph`]) and
//! the six rules ([`crate::dataflow`]) over every file at once, so the
//! graph spans the workspace. [`analyze`] is the single-file wrapper.
//!
//! Inline `// neo-lint: allow(rule, reason)` waivers suppress findings
//! on the waiver's own line and the line below it.
//!
//! R1 (HashMap/HashSet iteration), R3 (wall clock, ambient randomness)
//! and R4 (floats) are clippy's: `iter_over_hash_type`,
//! `disallowed_methods` and `disallowed_types`, configured by the
//! `clippy.toml` of each crate in [`crate::DEFAULT_SCOPE`].

use crate::lexer::{lex, Waiver};
use crate::report::Finding;

/// Rule ids and their short names, for `--help` and docs.
pub const RULES: &[(&str, &str)] = &[
    ("R2", "no-panic-in-handlers"),
    ("R5", "no-unbounded-collection-growth"),
    ("R6", "verify-before-mutate"),
    ("R7", "verify-charges-meter"),
    ("R8", "interprocedural-panic-reach"),
    ("R9", "static-metric-names"),
];

/// Lint one file's source. `rel` is the path recorded in findings
/// (repo-relative, forward slashes). The call graph is limited to the
/// file itself; use [`analyze_workspace`] for cross-file resolution.
pub fn analyze(rel: &str, src: &str) -> Vec<Finding> {
    analyze_workspace(&[(rel.to_string(), src.to_string())])
}

/// Lint a set of `(path, source)` files as one workspace.
pub fn analyze_workspace(files: &[(String, String)]) -> Vec<Finding> {
    let mut waivers = Vec::with_capacity(files.len());
    let mut models = Vec::with_capacity(files.len());
    for (rel, src) in files {
        let lexed = lex(src);
        models.push(crate::parser::parse_file(rel, &lexed));
        waivers.push(lexed.waivers);
    }
    let graph = crate::callgraph::CallGraph::build(&models);
    let mut raw = vec![crate::dataflow::FileFindings::new(); files.len()];
    crate::dataflow::run(&models, &graph, &mut raw);

    let mut findings = Vec::new();
    for ((set, waivers), (rel, _)) in raw.into_iter().zip(&waivers).zip(files) {
        for (line, rule, message) in set {
            if !is_waived(waivers, line, rule) {
                findings.push(Finding {
                    rule,
                    file: rel.clone(),
                    line,
                    message,
                });
            }
        }
    }
    findings
}

fn is_waived(waivers: &[Waiver], line: u32, rule: &str) -> bool {
    let id = rule.to_ascii_lowercase();
    waivers
        .iter()
        .any(|w| (w.rule == "*" || w.rule == id) && (w.line == line || w.line + 1 == line))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Finding> {
        analyze("test.rs", src)
    }

    #[test]
    fn r2_only_in_handlers() {
        let src = "fn on_msg(x: Option<u32>) { x.unwrap(); }\n\
                   fn helper(x: Option<u32>) { x.unwrap(); }";
        let f = lint(src);
        assert_eq!(f.iter().filter(|f| f.rule == "R2").count(), 1);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn r2_indexing_but_not_attrs_or_macros() {
        let src = "#[derive(Debug)]\nfn on_msg(b: &[u8]) { let x = b[0]; let v = vec![1]; }";
        let f = lint(src);
        assert_eq!(f.iter().filter(|f| f.rule == "R2").count(), 1);
    }

    #[test]
    fn r2_unwrap_on_a_non_ident_receiver_is_still_a_method_call() {
        let src = "fn on_msg(a: Option<u32>) { (a).unwrap(); a?.expect(\"x\"); }";
        assert_eq!(lint(src).iter().filter(|f| f.rule == "R2").count(), 2);
    }

    #[test]
    fn r5_unbounded_growth_in_handler() {
        let src = "struct S { table: HashMap<ClientId, u64>, peers: HashMap<ReplicaId, u64> }\n\
                   impl S { fn on_req(&mut self, c: ClientId) { self.table.insert(c, 0); \
                   self.peers.insert(r, 0); } }";
        let f = lint(src);
        let r5: Vec<_> = f.iter().filter(|f| f.rule == "R5").collect();
        assert_eq!(r5.len(), 1);
        assert!(r5[0].message.contains("table"));
    }

    #[test]
    fn r5_storage_routines_are_in_scope() {
        // Replay/state-transfer input sizes recovery buffers — same
        // growth-bound bar as a handler. Other private helpers stay out
        // of scope.
        let src = "struct S { idx: BTreeMap<SlotNum, u64> }\n\
                   impl S { fn replay_suffix(&mut self, s: SlotNum) { self.idx.insert(s, 0); }\n\
                   fn rebuild(&mut self, s: SlotNum) { self.idx.insert(s, 0); } }";
        let f = lint(src);
        let r5: Vec<_> = f.iter().filter(|f| f.rule == "R5").collect();
        assert_eq!(r5.len(), 1);
        assert!(r5[0].message.contains("replay_suffix"));
        assert!(r5[0].message.contains("storage routine"));
    }

    #[test]
    fn r5_anchors_at_the_field_line_of_a_multi_line_chain() {
        let src = "struct S { table: HashMap<ClientId, u64> }\n\
                   impl S { fn on_req(&mut self, c: ClientId) {\n\
                   self.verify_auth(c)?;\n\
                   // neo-lint: allow(R5, one entry per client)\n\
                   self.table\n\
                   .insert(c, 0);\n\
                   self.table\n\
                   .insert(c, 1);\n\
                   } }";
        let f = lint(src);
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!((f[0].rule, f[0].line), ("R5", 7));
    }

    #[test]
    fn r9_flags_computed_metric_names() {
        let src = "fn f(m: &Metrics, peer: &str, v: u64) {\n\
                   m.incr(&format!(\"send_failed.{peer}\"));\n\
                   m.observe(name_for(peer), v);\n\
                   m.incr(\"static.name\");\n\
                   m.observe(\"lat_ns\", v);\n\
                   }";
        let f = lint(src);
        let r9: Vec<_> = f.iter().filter(|f| f.rule == "R9").collect();
        assert_eq!(r9.len(), 2, "{f:#?}");
        assert_eq!(r9[0].line, 2);
        assert_eq!(r9[1].line, 3);
    }

    #[test]
    fn r9_spares_single_arg_observe_and_add() {
        // `Histogram::observe(v)` / `checked.add(x)` shapes are not
        // registry calls; only `incr` gates in one-argument form.
        let src = "fn f(h: &Histogram, v: u64) { h.observe(v); let _ = v.add(v); \
                   g.set_gauge(depth()); }";
        assert!(lint(src).iter().all(|f| f.rule != "R9"));
    }

    #[test]
    fn r9_respects_waivers_and_test_code() {
        let src = "// neo-lint: allow(R9, fixture)\nfn f(m: &M, n: String) { m.incr(&n); }\n\
                   #[cfg(test)]\nmod t { fn g(m: &M, n: String) { m.incr(&n); } }";
        assert!(lint(src).iter().all(|f| f.rule != "R9"));
    }

    #[test]
    fn cfg_test_regions_are_skipped() {
        let src = "#[cfg(test)]\nmod tests { fn on_x(v: Option<u32>) { v.unwrap(); } }\n\
                   fn on_y(v: Option<u32>) { v.unwrap(); }";
        let f = lint(src);
        assert_eq!(f.iter().filter(|f| f.rule == "R2").count(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn waivers_suppress_same_and_next_line() {
        let src = "// neo-lint: allow(R2, fixture)\nfn on_x(v: Option<u32>) { v.unwrap(); }";
        // waiver on line 1 covers line 2
        assert!(lint(src).is_empty());
        let src2 = "fn on_x(v: Option<u32>) { v.unwrap(); } // neo-lint: allow(*, demo)";
        assert!(lint(src2).is_empty());
    }
}
