//! The six rules, all over the item model + call graph.
//!
//! R2 no-panic-in-handlers — `.unwrap()`/`.expect()`, panic-family
//!    macros and indexing/slicing in the body of a message handler
//!    (`fn on_*`/`handle_*`/`receive*`); Byzantine input must degrade to
//!    a dropped message, never a crash.
//! R5 no-unbounded-collection-growth — `insert`/`entry` on a struct's
//!    map field keyed by attacker-controlled data, inside a handler or a
//!    storage routine (`replay_*`/`install_*`: replayed logs and
//!    state-transfer payloads size recovery buffers).
//! R6 verify-before-mutate — in a handler, a storage routine (replay
//!    and state-transfer code ingests bytes from disk or a peer and is
//!    held to the same bar), or a private helper either calls, a write
//!    to replicated state must be dominated, in statement order, by a
//!    call into the verify vocabulary (`verify_*`, `check_*auth*`, or
//!    the aom receiver's ingestion methods). Guard idioms
//!    (`if !verify { return }`, `verify()?`, let-else) are recognized
//!    because the verify call precedes the mutation in statement
//!    order. The replicated universe is the R5 field universe
//!    (attacker-keyed map fields) plus `// neo-lint: replicated`
//!    markers; `// neo-lint: verified(..)` on a `fn` declares its
//!    inputs pre-authenticated (e.g. WAL replay of the replica's own
//!    checksummed records).
//! R7 verify-charges-meter — a raw verification primitive
//!    (`verify_vector_entry`, or `.verify(..)` not routed through the
//!    self-charging `NodeCrypto` façade) must be preceded by a meter
//!    charge (`charge`/`charge_serial`/`charge_parallel`/
//!    `charge_verify`) so sim benchmarks stay honest. The verify-stage
//!    vocabulary is façade-routed by construction: `VerifyPool` work
//!    (receivers named `job`/`jobs`/`task`/`work`) verifies through the
//!    `NodeCrypto` handed to it, and batch APIs (`verify_batch`,
//!    `verify_chain_links`) charge inside the façade.
//! R8 interprocedural panic reach — R2's walk one call deeper:
//!    `.unwrap()`/`.expect()`/panic macros inside a helper called from a
//!    handler.
//! R9 static-metric-names — `metrics.incr(..)`/`add`/`observe`/
//!    `set_gauge` called with a computed (non-literal) metric name.
//!    Dynamic names mint unbounded time series — every scrape family
//!    must be a static literal; variance belongs in bounded labels.
//!
//! Test functions are skipped by every rule. Known approximations (see
//! DESIGN.md §10): domination is linear statement order, not
//! path-sensitive; helper traversal is one level, into callees of the
//! same file or of the same `impl` owner in another file of the crate
//! ([`CallGraph::helpers`]); aliased mutations through a local binding
//! (`let g = self.gaps.entry(..)`) are not tracked.

use crate::callgraph::{CallGraph, FnRef};
use crate::parser::{Event, FileModel, FnModel};
use std::collections::{BTreeMap, BTreeSet};

/// Key types whose domain is fixed by the replica set / local runtime,
/// so maps keyed by them cannot be grown by an attacker.
const BOUNDED_KEYS: &[&str] = &["ReplicaId", "TimerId", "GroupId"];

/// Key types an attacker can mint fresh values of at will.
const UNBOUNDED_KEYS: &[&str] = &[
    "ClientId",
    "RequestId",
    "SlotNum",
    "SeqNum",
    "EpochNum",
    "ViewId",
    "Digest",
    "u64",
    "u32",
    "usize",
    "String",
    "Vec",
];

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented", "assert"];

/// Map methods that can add a key.
const GROW_METHODS: &[&str] = &["insert", "entry"];

const CHARGE_CALLS: &[&str] = &[
    "charge",
    "charge_serial",
    "charge_parallel",
    "charge_verify",
];

/// Files below the metering layer: they *implement* the primitives the
/// meter prices, so R7 does not apply inside them. `provider.rs` (the
/// façade) stays in scope — its raw calls must charge, and do.
fn below_meter(path: &str) -> bool {
    path.starts_with("crates/crypto/src/") && !path.ends_with("provider.rs")
}

/// Storage-vocabulary entry points: replay and state-transfer routines
/// (`replay_*`, `install_*`) apply bytes that arrived from disk or a
/// peer, so R5 and R6 analyze them standalone exactly like message
/// handlers — they must verify (or carry a `verified(..)` marker
/// explaining why their input is pre-authenticated) before mutating
/// replicated state, and must bound what they grow.
fn is_storage_entry(name: &str) -> bool {
    name.starts_with("replay_") || name.starts_with("install_")
}

/// A call into the verify vocabulary?
fn is_verify_call(name: &str, recv: &[String]) -> bool {
    if name.starts_with("verify") {
        return true;
    }
    if name.starts_with("check") && name.contains("auth") {
        return true;
    }
    // Verify-stage dispatch: handing a packet/confirm to the verify
    // pipeline (`dispatch_packet_verify`, `submit_verify`, ..) is the
    // ingestion point — nothing is applied until the stage's verdict
    // comes back through the reorder buffer.
    if name.ends_with("_verify") {
        return true;
    }
    // The aom receiver's ingestion path authenticates everything it
    // yields (§4: the AOM primitive) — `self.aom.on_packet(..)` et al.
    // are the moral `AomReceiver::receive`.
    matches!(name, "on_packet" | "on_confirm" | "on_envelope" | "poll")
        && recv.iter().any(|s| s == "aom")
}

/// Findings of one file, as `(line, rule, message)`; the set drops a
/// rule firing twice on one line.
pub type FileFindings = BTreeSet<(u32, &'static str, String)>;

/// Run every rule over the workspace; findings accumulate per file into
/// `out[file_index]`.
pub fn run(files: &[FileModel], graph: &CallGraph, out: &mut [FileFindings]) {
    let keyed: Vec<BTreeMap<&str, &str>> = files.iter().map(attacker_keyed_fields).collect();
    let universes: Vec<BTreeSet<&str>> = files
        .iter()
        .zip(&keyed)
        .map(|(file, keyed)| replicated_universe(file, keyed))
        .collect();
    rule_r2_r8(files, graph, out);
    rule_r5(files, &keyed, out);
    rule_r6(files, graph, &universes, out);
    rule_r7(files, out);
    rule_r9(files, out);
}

/// The R5 universe of one file: map/set fields whose key type an
/// attacker can mint values of, as field name → key type.
fn attacker_keyed_fields(file: &FileModel) -> BTreeMap<&str, &str> {
    let mut keyed = BTreeMap::new();
    for f in file.structs.iter().flat_map(|s| &s.fields) {
        let Some(key) = f.map_key.as_deref() else {
            continue;
        };
        let parts: Vec<&str> = key.split(' ').collect();
        if BOUNDED_KEYS.iter().any(|b| parts.contains(b)) {
            continue;
        }
        if UNBOUNDED_KEYS.iter().any(|u| parts.contains(u)) {
            keyed.entry(f.name.as_str()).or_insert(key);
        }
    }
    keyed
}

/// The replicated-state field universe of one file: the R5 universe
/// plus `// neo-lint: replicated` markers.
fn replicated_universe<'a>(
    file: &'a FileModel,
    keyed: &BTreeMap<&'a str, &'a str>,
) -> BTreeSet<&'a str> {
    let marked = file
        .structs
        .iter()
        .flat_map(|s| &s.fields)
        .filter(|f| f.replicated)
        .map(|f| f.name.as_str());
    keyed.keys().copied().chain(marked).collect()
}

/// What region kind a function is for R5/R6, if it is one.
fn region_noun(f: &FnModel) -> Option<&'static str> {
    if f.is_test {
        None
    } else if f.is_entry() {
        Some("handler")
    } else if is_storage_entry(&f.name) {
        Some("storage routine")
    } else {
        None
    }
}

/// R5 no-unbounded-collection-growth.
fn rule_r5(files: &[FileModel], keyed: &[BTreeMap<&str, &str>], out: &mut [FileFindings]) {
    for (fi, file) in files.iter().enumerate() {
        for f in &file.functions {
            let Some(noun) = region_noun(f) else {
                continue;
            };
            for ev in f.linear_events() {
                let Event::Call {
                    name,
                    recv,
                    recv_line,
                    is_macro: false,
                    ..
                } = ev
                else {
                    continue;
                };
                if !GROW_METHODS.contains(&name.as_str()) {
                    continue;
                }
                let Some((field, key)) = recv
                    .last()
                    .and_then(|r| keyed[fi].get_key_value(r.as_str()))
                else {
                    continue;
                };
                out[fi].insert((
                    *recv_line,
                    "R5",
                    format!(
                        "`{field}.{name}()` in {noun} `{}` grows a map keyed by \
                         attacker-influenced `{key}` without a bound; cap, window, or evict",
                        f.name
                    ),
                ));
            }
        }
    }
}

/// Writes to universe fields in `f` that no earlier verify call
/// dominates, as `(field, line)`; `prior_verify` pretends a verify
/// happened before the function body (caller-side guard).
fn unguarded_writes<'a>(
    f: &'a FnModel,
    universe: &BTreeSet<&str>,
    prior_verify: bool,
) -> Vec<(&'a str, u32)> {
    if f.verified_input || prior_verify {
        return Vec::new();
    }
    let mut verified = false;
    let mut out = Vec::new();
    for ev in f.linear_events() {
        match ev {
            Event::Call { name, recv, .. } => {
                if is_verify_call(name, recv) {
                    verified = true;
                }
            }
            Event::Write { field, line, .. } if !verified => {
                if universe.contains(field.as_str()) {
                    out.push((field.as_str(), *line));
                }
            }
            _ => {}
        }
    }
    out
}

/// Index of the first verify-vocabulary call in `f`'s linear events,
/// if any.
fn first_verify_idx(f: &FnModel) -> Option<usize> {
    f.linear_events()
        .iter()
        .position(|ev| matches!(ev, Event::Call { name, recv, .. } if is_verify_call(name, recv)))
}

/// R6 verify-before-mutate.
fn rule_r6(
    files: &[FileModel],
    graph: &CallGraph,
    universes: &[BTreeSet<&str>],
    out: &mut [FileFindings],
) {
    for (fi, file) in files.iter().enumerate() {
        let universe = &universes[fi];
        for (gi, f) in file.functions.iter().enumerate() {
            let Some(noun) = region_noun(f) else {
                continue;
            };
            if f.verified_input {
                continue;
            }
            // Direct writes in the handler body.
            for (field, line) in unguarded_writes(f, universe, false) {
                out[fi].insert((
                    line,
                    "R6",
                    format!(
                        "replicated `{field}` is mutated in {noun} `{}` before any \
                         verify_*/check-auth call — NeoBFT's verify-then-apply boundary \
                         requires authentication first",
                        f.name
                    ),
                ));
            }
            // One level of helpers: a write inside the helper is fine if
            // the helper verifies internally OR this handler verified
            // before the call. A helper in another file writes the state
            // declared there, so it is held to that file's universe.
            let entry_ref = FnRef { file: fi, func: gi };
            let verify_at = first_verify_idx(f);
            for edge in graph.helpers(files, entry_ref) {
                let callee = &files[edge.callee.file].functions[edge.callee.func];
                if callee.is_test || callee.is_entry() || is_storage_entry(&callee.name) {
                    continue; // entries are analyzed standalone
                }
                let guarded = verify_at.map(|v| v < edge.event_idx).unwrap_or(false);
                let universe = &universes[edge.callee.file];
                for (field, wline) in unguarded_writes(callee, universe, guarded) {
                    out[fi].insert((
                        edge.line,
                        "R6",
                        format!(
                            "{noun} `{}` calls `{}` (which mutates replicated `{field}` at \
                             line {wline}) without a prior verify_*/check-auth call in either",
                            f.name, callee.name
                        ),
                    ));
                }
            }
        }
    }
}

/// R7 verify-charges-meter.
fn rule_r7(files: &[FileModel], out: &mut [FileFindings]) {
    for (fi, file) in files.iter().enumerate() {
        if below_meter(&file.path) {
            continue;
        }
        for f in &file.functions {
            if f.is_test {
                continue;
            }
            let mut charged = false;
            for ev in f.linear_events() {
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
                if CHARGE_CALLS.contains(&name.as_str()) {
                    charged = true;
                    continue;
                }
                // Façade-routed receivers: the crypto façade itself, or a
                // verify-stage job/task (`VerifyJob::verify(crypto, ..)`
                // et al.) whose charges happen inside the façade it was
                // handed. Raw primitives (`seq_vk.verify`, `key.verify`)
                // stay in scope.
                let facade_routed = recv.iter().any(|s| {
                    s == "crypto" || s == "job" || s == "jobs" || s == "task" || s == "work"
                });
                let raw_verify = name == "verify_vector_entry"
                    || (name == "verify" && !recv.is_empty() && !facade_routed);
                if raw_verify && !charged {
                    out[fi].insert((
                        *line,
                        "R7",
                        format!(
                            "raw `{name}` in `{}` bypasses the self-charging NodeCrypto \
                             façade without charging the CostModel meter first — benchmarks \
                             under-count crypto; call charge_serial/charge_parallel (or route \
                             through NodeCrypto) before verifying",
                            f.name
                        ),
                    ));
                }
            }
        }
    }
}

/// How a call event can panic, rendered for a finding: a panic-family
/// macro, or `.unwrap()`/`.expect()` as a method (a free fn named
/// `unwrap` is a decoder, not `Option::unwrap`).
fn panic_call(ev: &Event) -> Option<String> {
    match ev {
        Event::Call {
            name,
            is_macro: true,
            ..
        } if PANIC_MACROS.contains(&name.as_str()) => Some(format!("`{name}!`")),
        Event::Call {
            name, method: true, ..
        } if name == "unwrap" || name == "expect" => Some(format!("`.{name}()`")),
        _ => None,
    }
}

/// R2 no-panic-in-handlers and R8 interprocedural panic reach: one walk
/// from every handler, over its own body (R2, which also bans indexing)
/// and one call deep into its helpers (R8).
fn rule_r2_r8(files: &[FileModel], graph: &CallGraph, out: &mut [FileFindings]) {
    // panic site (file, line) → (callee name, entry names reaching it)
    let mut sites: BTreeMap<(usize, u32), (String, BTreeSet<String>)> = BTreeMap::new();
    for (fi, file) in files.iter().enumerate() {
        for (gi, f) in file.functions.iter().enumerate() {
            if f.is_test || !f.is_entry() {
                continue;
            }
            for ev in f.linear_events() {
                let message = if let Some(what) = panic_call(ev) {
                    format!(
                        "{what} in message handler `{}` — Byzantine input must degrade to a \
                         dropped message, not a panic; return a typed error instead",
                        f.name
                    )
                } else if matches!(ev, Event::Index { .. }) {
                    format!(
                        "indexing/slicing in message handler `{}` can panic on out-of-range \
                         input; use `.get()` and drop the message on None",
                        f.name
                    )
                } else {
                    continue;
                };
                out[fi].insert((ev.line(), "R2", message));
            }
            let entry_ref = FnRef { file: fi, func: gi };
            for edge in graph.helpers(files, entry_ref) {
                let callee = &files[edge.callee.file].functions[edge.callee.func];
                if callee.is_test || callee.is_entry() {
                    continue;
                }
                for ev in callee.linear_events() {
                    if panic_call(ev).is_some() {
                        sites
                            .entry((edge.callee.file, ev.line()))
                            .or_insert_with(|| (callee.name.clone(), BTreeSet::new()))
                            .1
                            .insert(f.name.clone());
                    }
                }
            }
        }
    }
    for ((fi, line), (callee, entries)) in sites {
        let first = entries.iter().next().cloned().unwrap_or_default();
        let reach = if entries.len() > 1 {
            format!("`{first}` (+{} more handlers)", entries.len() - 1)
        } else {
            format!("`{first}`")
        };
        out[fi].insert((
            line,
            "R8",
            format!(
                "panic site in `{callee}`, reachable one call deep from handler {reach} — \
                 Byzantine input must degrade to a dropped message, not a panic; return a \
                 typed error instead"
            ),
        ));
    }
}

/// R9 static-metric-names: a computed name (`&format!("x.{peer}")`, a
/// variable, a function call) mints a fresh time series per distinct
/// value — unbounded scrape cardinality — and defeats static
/// grep-ability of the metric namespace.
fn rule_r9(files: &[FileModel], out: &mut [FileFindings]) {
    for (fi, file) in files.iter().enumerate() {
        for f in file.functions.iter().filter(|f| !f.is_test) {
            for ev in f.linear_events() {
                let Event::Call {
                    name,
                    method: true,
                    argc,
                    lit_first: false,
                    line,
                    ..
                } = ev
                else {
                    continue;
                };
                // Registry methods name the series in their first argument.
                // `incr` is distinctive enough to check in its one-argument
                // form; `add`/`observe`/`set_gauge` are common method names,
                // so only their `(name, value)` arity counts — single-argument
                // `Histogram::observe(v)` style calls stay exempt.
                let registry_shape = match name.as_str() {
                    "incr" => *argc == 1,
                    "add" | "observe" | "set_gauge" => *argc >= 2,
                    _ => false,
                };
                if registry_shape {
                    out[fi].insert((
                        *line,
                        "R9",
                        format!(
                            "`.{name}(..)` with a computed metric name — dynamic names mint \
                             unbounded time series; use a static string literal (put variance \
                             in a bounded label)"
                        ),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn findings(srcs: &[(&str, &str)]) -> Vec<(String, u32, &'static str, String)> {
        let files: Vec<FileModel> = srcs.iter().map(|(p, s)| parse_file(p, &lex(s))).collect();
        let graph = CallGraph::build(&files);
        let mut out: Vec<FileFindings> = files.iter().map(|_| BTreeSet::new()).collect();
        run(&files, &graph, &mut out);
        let mut flat = Vec::new();
        for (fi, set) in out.into_iter().enumerate() {
            // R2/R5/R9 are exercised through `rules::analyze`.
            for (line, rule, msg) in set {
                if !matches!(rule, "R6" | "R7" | "R8") {
                    continue;
                }
                flat.push((files[fi].path.clone(), line, rule, msg));
            }
        }
        flat
    }

    #[test]
    fn r6_flags_mutation_before_verify() {
        let src = "struct R { client_table: HashMap<ClientId, u64> }\n\
                   impl R {\n\
                   fn on_request(&mut self, m: Msg) {\n\
                   self.client_table.insert(m.c, 0);\n\
                   if !self.verify_request_auth(&m) { return; }\n\
                   } }";
        let f = findings(&[("bad.rs", src)]);
        assert_eq!(f.iter().filter(|x| x.2 == "R6").count(), 1);
        assert_eq!(f[0].1, 4);
    }

    #[test]
    fn r6_accepts_verify_guard_before_mutation() {
        let src = "struct R { client_table: HashMap<ClientId, u64> }\n\
                   impl R {\n\
                   fn on_request(&mut self, m: Msg) {\n\
                   if !self.verify_request_auth(&m) { return; }\n\
                   self.client_table.insert(m.c, 0);\n\
                   } }";
        assert!(findings(&[("good.rs", src)]).is_empty());
    }

    #[test]
    fn r6_callee_mutation_guarded_by_caller() {
        let base = "struct R { table: HashMap<ClientId, u64> }\n\
                    impl R {\n\
                    fn on_x(&mut self, m: Msg) {{ {GUARD} self.apply(m); }}\n\
                    fn apply(&mut self, m: Msg) {{ self.table.insert(m.c, 0); }}\n\
                    }";
        let good = base.replace("{GUARD}", "if !self.verify_body(&m) { return; }");
        let bad = base.replace("{GUARD}", "");
        assert!(findings(&[("good.rs", &good)]).is_empty());
        let f = findings(&[("bad.rs", &bad)]);
        assert_eq!(f.iter().filter(|x| x.2 == "R6").count(), 1);
        assert!(f[0].3.contains("apply"));
    }

    #[test]
    fn r6_replicated_marker_extends_universe() {
        let src = "struct R {\n\
                   // neo-lint: replicated(exec digests)\n\
                   digests: Vec<u64>,\n\
                   }\n\
                   impl R { fn on_x(&mut self) { self.digests.push(1); } }";
        let f = findings(&[("m.rs", src)]);
        assert_eq!(f.iter().filter(|x| x.2 == "R6").count(), 1);
    }

    #[test]
    fn r6_verified_fn_marker_suppresses() {
        let src = "struct R { table: HashMap<ClientId, u64> }\n\
                   impl R {\n\
                   // neo-lint: verified(cert authenticated by aom receive path)\n\
                   fn on_delivery(&mut self, c: Cert) { self.table.insert(c.k, 0); }\n\
                   }";
        assert!(findings(&[("v.rs", src)]).is_empty());
    }

    #[test]
    fn r6_aom_ingestion_counts_as_verify() {
        let src = "struct R { table: HashMap<ClientId, u64> }\n\
                   impl R {\n\
                   fn on_message(&mut self, pkt: Pkt) {\n\
                   self.aom.on_packet(pkt, &self.crypto);\n\
                   self.table.insert(k, 0);\n\
                   } }";
        assert!(findings(&[("aom.rs", src)]).is_empty());
    }

    #[test]
    fn r6_storage_routines_must_verify_first() {
        // `install_*` applies peer-served bytes: same bar as a handler.
        let bad = "struct R { client_table: BTreeMap<ClientId, u64> }\n\
                   impl R {\n\
                   fn install_checkpoint(&mut self, cp: Cp) {\n\
                   self.client_table.insert(cp.c, 0);\n\
                   } }";
        let f = findings(&[("st.rs", bad)]);
        assert_eq!(f.iter().filter(|x| x.2 == "R6").count(), 1);
        assert!(f[0].3.contains("storage routine"));
        let good = "struct R { client_table: BTreeMap<ClientId, u64> }\n\
                    impl R {\n\
                    fn install_checkpoint(&mut self, cp: Cp) {\n\
                    if !self.verify_checkpoint(&cp) { return; }\n\
                    self.client_table.insert(cp.c, 0);\n\
                    } }";
        assert!(findings(&[("ok.rs", good)]).is_empty());
    }

    #[test]
    fn r6_verified_marker_covers_own_wal_replay() {
        // Replaying the replica's own checksummed WAL carries a marker
        // instead of a verify call — the input never crossed trust.
        let src = "struct R { slots: BTreeMap<SlotNum, u64> }\n\
                   impl R {\n\
                   // neo-lint: verified(own WAL, checksummed by neo-store framing)\n\
                   fn replay_wal_records(&mut self, s: SlotNum) { self.slots.insert(s, 0); }\n\
                   }";
        assert!(findings(&[("wal.rs", src)]).is_empty());
    }

    #[test]
    fn r7_raw_verify_needs_charge() {
        let bad = "impl R { fn verify_cert(&self, c: &Cert) -> bool {\n\
                   self.seq_vk.verify(&input, &c.sig).is_ok()\n\
                   } }";
        let f = findings(&[("raw.rs", bad)]);
        assert_eq!(f.iter().filter(|x| x.2 == "R7").count(), 1);
        let good = "impl R { fn verify_cert(&self, c: &Cert, crypto: &NodeCrypto) -> bool {\n\
                    crypto.meter().charge_parallel(self.costs.ecdsa_verify);\n\
                    self.seq_vk.verify(&input, &c.sig).is_ok()\n\
                    } }";
        assert!(findings(&[("ok.rs", good)]).is_empty());
    }

    #[test]
    fn r7_nodecrypto_facade_is_exempt() {
        let src = "impl R { fn check(&self, m: &[u8], s: &Sig) -> bool {\n\
                   self.crypto.verify(p, m, s).is_ok()\n\
                   } }";
        assert!(findings(&[("facade.rs", src)]).is_empty());
    }

    #[test]
    fn r7_verify_jobs_are_facade_routed() {
        // `VerifyJob::verify(crypto, ..)` / pooled task work charges
        // inside the façade it is handed — not a raw primitive.
        let src = "impl Stage { fn run(&mut self, job: &mut VerifyJob) {\n\
                   job.verify(&self.crypto, self.parallel);\n\
                   } }";
        assert!(findings(&[("stage.rs", src)]).is_empty());
        // ...but a raw verifying-key verify next to the pool still needs
        // a charge.
        let raw = "impl Stage { fn drain(&mut self, m: &[u8], s: &Sig) -> bool {\n\
                   self.seq_vk.verify(m, s).is_ok()\n\
                   } }";
        assert_eq!(
            findings(&[("stage.rs", raw)])
                .iter()
                .filter(|x| x.2 == "R7")
                .count(),
            1
        );
    }

    #[test]
    fn r7_below_meter_files_are_exempt() {
        let src = "impl Key { fn check(&self, m: &[u8], t: &Tag) -> bool {\n\
                   self.key.verify(m, t).is_ok()\n\
                   } }";
        assert!(findings(&[("crates/crypto/src/mac.rs", src)]).is_empty());
        assert_eq!(findings(&[("crates/aom/src/receiver.rs", src)]).len(), 1);
    }

    #[test]
    fn r8_panic_one_call_deep() {
        let src = "impl R {\n\
                   fn on_msg(&mut self, b: &[u8]) { self.apply(b); }\n\
                   fn apply(&mut self, b: &[u8]) { let m = decode(b).unwrap(); }\n\
                   }";
        let f = findings(&[("p.rs", src)]);
        assert_eq!(f.iter().filter(|x| x.2 == "R8").count(), 1);
        assert_eq!(f[0].1, 3);
        assert!(f[0].3.contains("apply") && f[0].3.contains("on_msg"));
    }

    #[test]
    fn r8_free_fn_named_unwrap_is_not_a_panic() {
        let src = "fn on_msg(b: &[u8]) { helper(b); }\n\
                   fn helper(b: &[u8]) { let m = unwrap(b); }\n\
                   fn unwrap(b: &[u8]) -> u32 { 0 }";
        assert!(findings(&[("f.rs", src)]).is_empty());
    }

    #[test]
    fn r8_panic_macro_in_helper() {
        let src = "fn on_msg(b: &[u8]) { helper(b); }\n\
                   fn helper(b: &[u8]) { panic!(\"no\"); }";
        let f = findings(&[("m.rs", src)]);
        assert_eq!(f.iter().filter(|x| x.2 == "R8").count(), 1);
    }
}
