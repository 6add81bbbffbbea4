//! Workspace call graph over the item model.
//!
//! Nodes are functions (`FnRef` = file index + function index); edges
//! come from `Call` events. Resolution is name-based and deliberately
//! conservative:
//!
//! 1. a same-file function with the callee's name — preferring one in
//!    the same `impl` when the receiver starts with `self`, and, for an
//!    `impl` split over the files of one crate, the one function of that
//!    `impl` in a sibling file — else
//! 2. a unique workspace-wide match.
//!
//! Ambiguous names resolve to the same-file candidate when exactly one
//! exists, otherwise the edge is dropped (no guessing). The rules only
//! traverse edges to a function's own helpers ([`CallGraph::helpers`]).

use crate::parser::{Event, FileModel};
use std::collections::BTreeMap;

/// A function's position in the workspace model.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct FnRef {
    /// Index into the `files` slice.
    pub file: usize,
    /// Index into that file's `functions`.
    pub func: usize,
}

/// One resolved call edge.
#[derive(Clone, Copy, Debug)]
pub struct Edge {
    /// Calling function.
    pub caller: FnRef,
    /// Called function.
    pub callee: FnRef,
    /// Position of the call in the caller's linear event stream.
    pub event_idx: usize,
    /// Call site line.
    pub line: u32,
}

/// The workspace call graph.
pub struct CallGraph {
    /// All resolved edges, in deterministic (caller, event) order.
    pub edges: Vec<Edge>,
}

impl CallGraph {
    /// Build the graph over every function in `files`.
    pub fn build(files: &[FileModel]) -> CallGraph {
        let mut by_name: BTreeMap<String, Vec<FnRef>> = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (gi, f) in file.functions.iter().enumerate() {
                by_name
                    .entry(f.name.clone())
                    .or_default()
                    .push(FnRef { file: fi, func: gi });
            }
        }
        let mut edges = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            for (gi, f) in file.functions.iter().enumerate() {
                let caller = FnRef { file: fi, func: gi };
                for (ei, ev) in f.linear_events().iter().enumerate() {
                    let Event::Call {
                        name,
                        recv,
                        is_macro: false,
                        line,
                        ..
                    } = ev
                    else {
                        continue;
                    };
                    let Some(callee) = resolve(&by_name, files, caller, name, recv) else {
                        continue;
                    };
                    if callee == caller {
                        continue; // self-recursion adds nothing here
                    }
                    edges.push(Edge {
                        caller,
                        callee,
                        event_idx: ei,
                        line: *line,
                    });
                }
            }
        }
        CallGraph { edges }
    }

    /// Edges out of `caller`.
    pub fn callees(&self, caller: FnRef) -> impl Iterator<Item = &Edge> {
        self.edges.iter().filter(move |e| e.caller == caller)
    }

    /// Edges out of `caller` into its own helpers: functions of the same
    /// file, or of the same `impl` owner in another file of the same
    /// crate (a type whose `impl` blocks are split by concern).
    pub fn helpers<'a>(
        &'a self,
        files: &'a [FileModel],
        caller: FnRef,
    ) -> impl Iterator<Item = &'a Edge> {
        let from = &files[caller.file];
        let owner = from.functions[caller.func].owner.as_deref();
        self.callees(caller).filter(move |e| {
            let to = &files[e.callee.file];
            e.callee.file == caller.file
                || (owner.is_some()
                    && to.functions[e.callee.func].owner.as_deref() == owner
                    && crate_dir(&to.path) == crate_dir(&from.path))
        })
    }
}

/// The crate a file belongs to: its path up to `/src/`, or its directory
/// when no `src` component is in it (lint fixtures).
fn crate_dir(path: &str) -> &str {
    match path.find("/src/") {
        Some(i) => &path[..i],
        None => path.rsplit_once('/').map_or("", |(dir, _)| dir),
    }
}

/// Resolve one call to a function, or None when ambiguous/external.
fn resolve(
    by_name: &BTreeMap<String, Vec<FnRef>>,
    files: &[FileModel],
    caller: FnRef,
    name: &str,
    recv: &[String],
) -> Option<FnRef> {
    let candidates = by_name.get(name)?;
    let same_file: Vec<FnRef> = candidates
        .iter()
        .copied()
        .filter(|r| r.file == caller.file)
        .collect();
    if recv.first().map(String::as_str) == Some("self") {
        // `self.name(..)`: prefer the caller's own impl.
        let owner = files[caller.file].functions[caller.func].owner.as_deref();
        if let Some(owner) = owner {
            let owned =
                |r: &&FnRef| files[r.file].functions[r.func].owner.as_deref() == Some(owner);
            if let Some(hit) = same_file.iter().find(owned) {
                return Some(*hit);
            }
            // An `impl` split over several files of the crate.
            let dir = crate_dir(&files[caller.file].path);
            let mut siblings = candidates
                .iter()
                .filter(owned)
                .filter(|r| crate_dir(&files[r.file].path) == dir);
            if let (Some(hit), None) = (siblings.next(), siblings.next()) {
                return Some(*hit);
            }
        }
    }
    match same_file.len() {
        1 => Some(same_file[0]),
        0 if candidates.len() == 1 => Some(candidates[0]),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn models(srcs: &[(&str, &str)]) -> Vec<FileModel> {
        srcs.iter()
            .map(|(path, src)| parse_file(path, &lex(src)))
            .collect()
    }

    fn name_of<'a>(files: &'a [FileModel], r: FnRef) -> (&'a str, &'a str) {
        (
            files[r.file].path.as_str(),
            files[r.file].functions[r.func].name.as_str(),
        )
    }

    #[test]
    fn multi_impl_file_resolves_to_own_impl_first() {
        // Two impls in one file share a helper name; `self.helper()`
        // must bind to the caller's own impl, not the other one.
        let src = "impl Alpha {\n\
                   fn on_msg(&mut self) { self.helper(); }\n\
                   fn helper(&self) {}\n\
                   }\n\
                   impl Beta {\n\
                   fn on_tick(&mut self) { self.helper(); }\n\
                   fn helper(&self) {}\n\
                   }";
        let files = models(&[("multi.rs", src)]);
        let g = CallGraph::build(&files);
        assert_eq!(g.edges.len(), 2);
        for e in &g.edges {
            let caller_owner = files[e.caller.file].functions[e.caller.func]
                .owner
                .as_deref();
            let callee_owner = files[e.callee.file].functions[e.callee.func]
                .owner
                .as_deref();
            assert_eq!(caller_owner, callee_owner, "edge crossed impl blocks");
        }
    }

    #[test]
    fn cross_file_unique_names_resolve() {
        let files = models(&[
            ("a.rs", "fn on_msg() { shared_helper(); }"),
            ("b.rs", "fn shared_helper() {}"),
        ]);
        let g = CallGraph::build(&files);
        assert_eq!(g.edges.len(), 1);
        assert_eq!(
            name_of(&files, g.edges[0].callee),
            ("b.rs", "shared_helper")
        );
    }

    #[test]
    fn a_split_impl_resolves_self_calls_to_its_own_sibling_file() {
        // `helper` exists three times; `self.helper()` in `impl R` binds
        // to the `impl R` one in the sibling file of the same crate —
        // not to another type's, not to another crate's.
        let files = models(&[
            (
                "crates/a/src/r.rs",
                "impl R { fn on_msg(&mut self) { self.helper(); } }",
            ),
            (
                "crates/a/src/r/state.rs",
                "impl R { fn helper(&self) {} }\nimpl Other { fn helper(&self) {} }",
            ),
            ("crates/b/src/r.rs", "impl R { fn helper(&self) {} }"),
        ]);
        let g = CallGraph::build(&files);
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.edges[0].callee, FnRef { file: 1, func: 0 });
        assert_eq!(g.helpers(&files, FnRef { file: 0, func: 0 }).count(), 1);
    }

    #[test]
    fn helpers_stop_at_another_owner_or_crate() {
        // Unique names resolve across files, but only a same-owner,
        // same-crate callee is the caller's own helper.
        let files = models(&[
            (
                "crates/a/src/r.rs",
                "impl R { fn on_msg(&mut self) { self.x(); self.y(); } }",
            ),
            ("crates/a/src/s.rs", "impl S { fn x(&self) {} }"),
            ("crates/b/src/r.rs", "impl R { fn y(&self) {} }"),
        ]);
        let g = CallGraph::build(&files);
        assert_eq!(g.edges.len(), 2);
        assert_eq!(g.helpers(&files, FnRef { file: 0, func: 0 }).count(), 0);
    }

    #[test]
    fn ambiguous_cross_file_names_drop_the_edge() {
        let files = models(&[
            ("a.rs", "fn on_msg() { dup(); }"),
            ("b.rs", "fn dup() {}"),
            ("c.rs", "fn dup() {}"),
        ]);
        let g = CallGraph::build(&files);
        assert!(g.edges.is_empty());
    }

    #[test]
    fn callees_enumerate() {
        let src = "impl R {\n\
                   fn on_a(&mut self) { self.shared(); }\n\
                   fn on_b(&mut self) { self.shared(); }\n\
                   fn shared(&mut self) {}\n\
                   }";
        let files = models(&[("r.rs", src)]);
        let g = CallGraph::build(&files);
        let shared = FnRef { file: 0, func: 2 };
        assert_eq!(g.edges.iter().filter(|e| e.callee == shared).count(), 2);
        assert_eq!(g.callees(FnRef { file: 0, func: 0 }).count(), 1);
    }
}
