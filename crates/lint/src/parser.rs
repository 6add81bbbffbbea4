//! The one front end: parse the lexer's token stream into a lightweight
//! item model that every rule reads.
//!
//! The model captures exactly what the rules need and nothing more:
//! functions with their `impl` owner and a block tree of statements,
//! where each statement carries its ordered call / field-write / index /
//! early-exit events; structs with their fields, map container + key
//! type (the R5 universe), and `replicated` markers. `#[cfg(test)]` /
//! `#[test]` items are flagged (functions) or dropped (structs), and
//! `#[..]` attributes never yield events. It is deliberately *not* a
//! Rust parser — it never rejects input, it just extracts a
//! conservative skeleton from token shapes, the same philosophy as the
//! lexer.

use crate::lexer::{Lexed, Marker, Tok, TokKind};

/// Everything the rules need to know about one file.
pub struct FileModel {
    /// Repo-relative path (forward slashes) for findings.
    pub path: String,
    /// Structs declared in the file (non-test).
    pub structs: Vec<StructModel>,
    /// Functions declared in the file (including test ones, flagged).
    pub functions: Vec<FnModel>,
}

/// A struct and its named fields.
pub struct StructModel {
    /// Type name.
    pub name: String,
    /// Declaration line.
    pub line: u32,
    /// Named fields, in declaration order.
    pub fields: Vec<FieldModel>,
}

/// One named struct field.
pub struct FieldModel {
    /// Field name.
    pub name: String,
    /// Declaration line.
    pub line: u32,
    /// `Some(key type)` when the field is a HashMap/HashSet/BTreeMap/
    /// BTreeSet; the key type is the space-joined ident list R5 uses.
    pub map_key: Option<String>,
    /// `// neo-lint: replicated` marker on this field.
    pub replicated: bool,
}

/// A function with its statement-ordered event stream.
pub struct FnModel {
    /// Function name.
    pub name: String,
    /// `impl` owner type, if the function sits inside an impl block.
    pub owner: Option<String>,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// True when inside a `#[cfg(test)]` / `#[test]` region.
    pub is_test: bool,
    /// `// neo-lint: verified(..)` marker: inputs are pre-authenticated.
    pub verified_input: bool,
    /// Root block of the body.
    pub body: Block,
}

impl FnModel {
    /// True for message-handler entry points (`on_*` / `handle_*` /
    /// `receive*`).
    pub fn is_entry(&self) -> bool {
        self.name.starts_with("on_")
            || self.name.starts_with("handle_")
            || self.name.starts_with("receive")
    }

    /// The body's events in source (statement) order.
    pub fn linear_events(&self) -> Vec<&Event> {
        let mut out = Vec::new();
        self.body.collect_events(&mut out);
        out
    }
}

/// A `{ .. }` block: a sequence of statements.
#[derive(Default)]
pub struct Block {
    /// Statements in source order.
    pub stmts: Vec<Stmt>,
}

impl Block {
    fn collect_events<'a>(&'a self, out: &mut Vec<&'a Event>) {
        for s in &self.stmts {
            for part in &s.parts {
                match part {
                    StmtPart::Event(e) => out.push(e),
                    StmtPart::Block(b) => b.collect_events(out),
                }
            }
        }
    }
}

/// One statement: an interleaving of events and nested blocks (an `if`
/// condition's events come before its then-block, matching evaluation
/// order).
pub struct Stmt {
    /// Line the statement starts on.
    pub line: u32,
    /// Ordered contents.
    pub parts: Vec<StmtPart>,
}

/// A piece of a statement.
pub enum StmtPart {
    /// A call / write / early-exit event.
    Event(Event),
    /// A nested `{ .. }` block (branch arm, loop body, closure body…).
    Block(Block),
}

/// One dataflow-relevant event inside a function body.
#[derive(Debug, PartialEq, Eq)]
pub enum Event {
    /// A call: `name(..)`, `recv.name(..)`, or `name!(..)`.
    Call {
        /// Callee name (last path segment / method name).
        name: String,
        /// Dotted receiver chain idents, e.g. `self.aom.on_packet(..)`
        /// → `["self", "aom"]`. Empty for free/path calls.
        recv: Vec<String>,
        /// Line of the last `recv` segment (the call line when `recv` is
        /// empty): in a multi-line method chain, the line a waiver for the
        /// receiving field sits above.
        recv_line: u32,
        /// True for `name!(..)` macro invocations.
        is_macro: bool,
        /// True when written `expr.name(..)`. `recv` only holds the ident
        /// part of `expr`, so it can be empty for a method call
        /// (`(a + b).name()`, `x?.name()`).
        method: bool,
        /// Number of top-level arguments (0 for macros).
        argc: usize,
        /// True when the first argument starts with a string literal.
        lit_first: bool,
        /// Call line.
        line: u32,
    },
    /// A write-shaped mutation of a field: `recv.field.verb(..)` where
    /// `verb` grows/overwrites (`insert`, `push`, `extend`, `append*`,
    /// `resize`, `fill`, or `entry(..).or_*`).
    Write {
        /// The field being mutated (second-to-last chain segment).
        field: String,
        /// The mutating method name.
        verb: String,
        /// Write line.
        line: u32,
    },
    /// Indexing or slicing, `expr[..]`: a `[` that follows an ident, `)`
    /// or `]` (so not an attribute, array literal/type, or `m![..]`).
    Index {
        /// Line of the `[`.
        line: u32,
    },
    /// `return` or `?` — an early-exit point (guard recognition).
    EarlyExit {
        /// Line of the exit.
        line: u32,
    },
}

impl Event {
    /// The line an event is anchored at.
    pub fn line(&self) -> u32 {
        match self {
            Event::Call { line, .. }
            | Event::Write { line, .. }
            | Event::Index { line }
            | Event::EarlyExit { line } => *line,
        }
    }
}

/// Method names that grow or overwrite collection contents. `entry` is
/// handled separately (only with a following `.or_*` / `.and_modify`).
const MUT_VERBS: &[&str] = &[
    "insert",
    "push",
    "push_back",
    "push_front",
    "extend",
    "extend_from_slice",
    "append",
    "resize",
    "fill",
];

/// Reserved words that look like `ident (` but are not calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "let", "in", "as", "ref", "mut",
    "move", "fn", "impl", "where", "pub", "use", "mod", "struct", "enum", "trait", "type", "const",
    "static", "unsafe", "async", "await", "dyn", "box",
];

/// Build the item model for one lexed file.
pub fn parse_file(path: &str, lexed: &Lexed) -> FileModel {
    let toks = &lexed.toks;
    let is_test = test_mask(toks);
    let mut structs = Vec::new();
    let mut functions = Vec::new();
    let mut i = 0usize;
    let mut owner_stack: Vec<(String, usize)> = Vec::new(); // (type, end tok)

    while i < toks.len() {
        while let Some(&(_, end)) = owner_stack.last() {
            if i >= end {
                owner_stack.pop();
            } else {
                break;
            }
        }
        let t = &toks[i];
        if t.is_ident("struct")
            && !is_test[i]
            && toks.get(i + 1).map(|n| n.kind == TokKind::Ident) == Some(true)
        {
            let (model, next) = parse_struct(toks, i, &lexed.markers);
            if let Some(m) = model {
                structs.push(m);
            }
            i = next;
            continue;
        }
        if t.is_ident("impl") {
            if let Some((ty, body_start, body_end)) = parse_impl_header(toks, i) {
                owner_stack.push((ty, body_end));
                i = body_start + 1; // descend into the impl body
                continue;
            }
        }
        if t.is_ident("fn") && toks.get(i + 1).map(|n| n.kind == TokKind::Ident) == Some(true) {
            let (model, next) = parse_fn(
                toks,
                i,
                owner_stack.last().map(|(ty, _)| ty.clone()),
                is_test[i],
                &lexed.markers,
            );
            if let Some(m) = model {
                functions.push(m);
            }
            i = next;
            continue;
        }
        i += 1;
    }

    FileModel {
        path: path.to_string(),
        structs,
        functions,
    }
}

/// Per token: does it sit inside a `#[cfg(test)]` / `#[test]` item? The
/// mask covers the attribute, any attributes stacked under it, and the
/// item that follows (to the `}` matching its first brace, or to `;`
/// if it has no body).
fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut test = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        let Some(end) = attr_end(toks, i) else {
            i += 1;
            continue;
        };
        let start = i;
        i = end;
        if !toks[start..end].iter().any(|t| t.is_ident("test")) {
            continue;
        }
        while let Some(e) = attr_end(toks, i) {
            i = e;
        }
        let mut brace = 0i64;
        while i < toks.len() {
            let t = &toks[i];
            i += 1;
            if t.is_punct('{') {
                brace += 1;
            } else if t.is_punct('}') {
                brace -= 1;
                if brace == 0 {
                    break;
                }
            } else if t.is_punct(';') && brace == 0 {
                break;
            }
        }
        test[start..i].fill(true);
    }
    test
}

/// If an outer attribute `#[..]` starts at `i`, the index just past its
/// `]`.
fn attr_end(toks: &[Tok], i: usize) -> Option<usize> {
    (toks.get(i)?.is_punct('#') && toks.get(i + 1)?.is_punct('['))
        .then(|| skip_balanced(toks, i + 1, '[', ']'))
}

/// True if a marker of `kind` sits on `line` or the line above.
fn has_marker(markers: &[Marker], kind: &str, line: u32) -> bool {
    markers
        .iter()
        .any(|m| m.kind == kind && (m.line == line || m.line + 1 == line))
}

/// Parse `impl [<..>] Type [for Trait]` — returns (owner type, index of
/// the body `{`, index past the matching `}`). The owner is the type
/// being implemented: the ident after `for` if present, else the first
/// type ident after `impl`.
fn parse_impl_header(toks: &[Tok], i: usize) -> Option<(String, usize, usize)> {
    let mut j = i + 1;
    let mut angle = 0i64;
    let mut first_ty: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            if j > 0 && toks[j - 1].is_punct('-') {
                // `->` arrow, not a generic close
            } else if angle > 0 {
                angle -= 1;
            }
        } else if angle == 0 {
            if t.is_punct('{') {
                let end = skip_balanced(toks, j, '{', '}');
                let ty = after_for.or(first_ty)?;
                return Some((ty, j, end));
            }
            if t.is_punct(';') {
                return None;
            }
            if t.is_ident("for") {
                saw_for = true;
            } else if t.is_ident("where") {
                // generics done; keep scanning for `{`
            } else if t.kind == TokKind::Ident && !t.is_ident("dyn") && !t.is_ident("const") {
                if saw_for && after_for.is_none() {
                    after_for = Some(t.text.clone());
                } else if first_ty.is_none() {
                    first_ty = Some(t.text.clone());
                }
            }
        }
        j += 1;
    }
    None
}

/// Parse one struct declaration starting at the `struct` keyword.
fn parse_struct(toks: &[Tok], i: usize, markers: &[Marker]) -> (Option<StructModel>, usize) {
    let name = toks[i + 1].text.clone();
    let line = toks[i].line;
    // Find the body `{` (skipping generics); `;`/`(` = unit/tuple struct.
    let mut j = i + 2;
    let mut angle = 0i64;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            if j > 0 && toks[j - 1].is_punct('-') {
            } else if angle > 0 {
                angle -= 1;
            }
        } else if angle == 0 {
            if t.is_punct('{') {
                break;
            }
            if t.is_punct(';') || t.is_punct('(') {
                return (
                    Some(StructModel {
                        name,
                        line,
                        fields: Vec::new(),
                    }),
                    j + 1,
                );
            }
        }
        j += 1;
    }
    if j >= toks.len() {
        return (None, j);
    }
    let end = skip_balanced(toks, j, '{', '}');
    let mut fields = Vec::new();
    let mut k = j + 1;
    while k < end.saturating_sub(1) {
        // Skip attributes and visibility.
        while let Some(e) = attr_end(toks, k) {
            k = e;
        }
        if k < end && toks[k].is_ident("pub") {
            k += 1;
            if k < end && toks[k].is_punct('(') {
                k = skip_balanced(toks, k, '(', ')');
            }
        }
        if k >= end || toks[k].kind != TokKind::Ident {
            break;
        }
        let fname = toks[k].text.clone();
        let fline = toks[k].line;
        k += 1;
        if k >= end || !toks[k].is_punct(':') {
            break;
        }
        k += 1;
        // Collect type tokens to the field-separating `,` at depth 0.
        let ty_start = k;
        let (mut a, mut p, mut b, mut c) = (0i64, 0i64, 0i64, 0i64);
        while k < end {
            let t = &toks[k];
            if t.is_punct('<') {
                a += 1;
            } else if t.is_punct('>') {
                if k > 0 && toks[k - 1].is_punct('-') {
                } else if a > 0 {
                    a -= 1;
                }
            } else if t.is_punct('(') {
                p += 1;
            } else if t.is_punct(')') {
                p -= 1;
            } else if t.is_punct('[') {
                b += 1;
            } else if t.is_punct(']') {
                b -= 1;
            } else if t.is_punct('{') {
                c += 1;
            } else if t.is_punct('}') {
                if c == 0 {
                    break;
                }
                c -= 1;
            } else if t.is_punct(',') && a == 0 && p == 0 && b == 0 && c == 0 {
                break;
            }
            k += 1;
        }
        let ty = &toks[ty_start..k.min(toks.len())];
        fields.push(FieldModel {
            map_key: map_key_of(ty),
            replicated: has_marker(markers, "replicated", fline),
            name: fname,
            line: fline,
        });
        if k < end && toks[k].is_punct(',') {
            k += 1;
        }
    }
    (Some(StructModel { name, line, fields }), end)
}

/// `Some(key type)` when the type tokens describe a map/set container.
fn map_key_of(ty: &[Tok]) -> Option<String> {
    for (k, t) in ty.iter().enumerate() {
        let is_map = match t.text.as_str() {
            "HashMap" | "BTreeMap" => true,
            "HashSet" | "BTreeSet" => false,
            _ => continue,
        };
        if t.kind != TokKind::Ident {
            continue;
        }
        // Pull the key type out of the angle brackets, R5-style.
        let rest = &ty[k + 1..];
        let mut angle = 0i64;
        let mut parts = Vec::new();
        for (j, t) in rest.iter().enumerate() {
            if t.is_punct('<') {
                angle += 1;
                if angle == 1 {
                    continue;
                }
            } else if t.is_punct('>') {
                if j > 0 && rest[j - 1].is_punct('-') {
                } else {
                    angle -= 1;
                    if angle == 0 {
                        break;
                    }
                }
            } else if t.is_punct(',') && angle == 1 && is_map {
                break;
            }
            if angle >= 1 && t.kind == TokKind::Ident {
                parts.push(t.text.clone());
            }
            if angle == 0 && j > 0 {
                break;
            }
        }
        return Some(parts.join(" "));
    }
    None
}

/// Parse one `fn` starting at the `fn` keyword; returns the model (None
/// for bodyless trait declarations) and the index to resume from.
fn parse_fn(
    toks: &[Tok],
    i: usize,
    owner: Option<String>,
    is_test: bool,
    markers: &[Marker],
) -> (Option<FnModel>, usize) {
    let name = toks[i + 1].text.clone();
    let line = toks[i].line;
    // First `{` after the signature opens the body; `;` = declaration.
    let mut j = i + 2;
    while j < toks.len() && !toks[j].is_punct('{') {
        if toks[j].is_punct(';') {
            return (None, j + 1);
        }
        j += 1;
    }
    if j >= toks.len() {
        return (None, j);
    }
    let end = skip_balanced(toks, j, '{', '}');
    let mut body = Block::default();
    parse_block(toks, j + 1, end.saturating_sub(1), &mut body);
    (
        Some(FnModel {
            verified_input: has_marker(markers, "verified", line),
            name,
            owner,
            line,
            is_test,
            body,
        }),
        end,
    )
}

/// Parse the token range `[start, end)` (inside `{ .. }`) into a block
/// tree, extracting events along the way.
fn parse_block(toks: &[Tok], start: usize, end: usize, out: &mut Block) {
    let mut stmt = Stmt {
        line: toks.get(start).map(|t| t.line).unwrap_or(0),
        parts: Vec::new(),
    };
    let mut k = start;
    while k < end.min(toks.len()) {
        let t = &toks[k];
        if t.is_punct('{') {
            let sub_end = skip_balanced(toks, k, '{', '}').min(end);
            let mut sub = Block::default();
            parse_block(toks, k + 1, sub_end.saturating_sub(1), &mut sub);
            stmt.parts.push(StmtPart::Block(sub));
            k = sub_end;
            // A block usually ends the statement unless an `else` /
            // method-chain continues it; splitting is approximate and
            // only affects grouping, never event order.
            let continues = toks
                .get(k)
                .map(|n| n.is_ident("else") || n.is_punct('.') || n.is_punct('?'))
                .unwrap_or(false);
            if !continues {
                flush_stmt(&mut stmt, out, toks, k);
            }
            continue;
        }
        if t.is_punct(';') || (t.is_punct(',') && stmt_has_content(&stmt)) {
            k += 1;
            flush_stmt(&mut stmt, out, toks, k);
            continue;
        }
        if let Some(e) = attr_end(toks, k) {
            k = e;
            continue;
        }
        if t.is_punct('[')
            && k > 0
            && (toks[k - 1].kind == TokKind::Ident
                || toks[k - 1].is_punct(')')
                || toks[k - 1].is_punct(']'))
        {
            stmt.parts
                .push(StmtPart::Event(Event::Index { line: t.line }));
            k += 1;
            continue;
        }
        if t.is_ident("return") {
            stmt.parts
                .push(StmtPart::Event(Event::EarlyExit { line: t.line }));
            k += 1;
            continue;
        }
        if t.is_punct('?') {
            // `expr?` — but not generics (`Option<T>` never lexes `?`).
            stmt.parts
                .push(StmtPart::Event(Event::EarlyExit { line: t.line }));
            k += 1;
            continue;
        }
        if t.kind == TokKind::Ident && !NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            // `ident!(..)` macro call.
            if toks.get(k + 1).map(|n| n.is_punct('!')) == Some(true)
                && toks
                    .get(k + 2)
                    .map(|n| n.is_punct('(') || n.is_punct('[') || n.is_punct('{'))
                    == Some(true)
            {
                stmt.parts.push(StmtPart::Event(Event::Call {
                    name: t.text.clone(),
                    recv: Vec::new(),
                    recv_line: t.line,
                    is_macro: true,
                    method: false,
                    argc: 0,
                    lit_first: false,
                    line: t.line,
                }));
                k += 2; // the macro body is still scanned for nested events
                continue;
            }
            // `ident(..)` call — plain, path (`a::b(`), or method (`.b(`).
            if toks.get(k + 1).map(|n| n.is_punct('(')) == Some(true) {
                let chain = receiver_chain(toks, k);
                let recv: Vec<String> = chain.iter().map(|&i| toks[i].text.clone()).collect();
                let name = t.text.clone();
                let line = t.line;
                // `.entry(..).or_*` counts as a write of the field.
                let write = write_event(toks, k, &name, &recv);
                let (argc, lit_first) = call_args(&toks[k + 1..end.min(toks.len())]);
                stmt.parts.push(StmtPart::Event(Event::Call {
                    name,
                    recv,
                    recv_line: chain.last().map_or(line, |&i| toks[i].line),
                    is_macro: false,
                    method: k > 0 && toks[k - 1].is_punct('.'),
                    argc,
                    lit_first,
                    line,
                }));
                if let Some(w) = write {
                    stmt.parts.push(StmtPart::Event(w));
                }
                k += 1; // args are scanned as part of the statement
                continue;
            }
        }
        k += 1;
    }
    flush_stmt(&mut stmt, out, toks, end);
}

fn stmt_has_content(stmt: &Stmt) -> bool {
    !stmt.parts.is_empty()
}

fn flush_stmt(stmt: &mut Stmt, out: &mut Block, toks: &[Tok], next: usize) {
    if !stmt.parts.is_empty() {
        let line = toks.get(next).map(|t| t.line).unwrap_or(stmt.line);
        let done = std::mem::replace(
            stmt,
            Stmt {
                line,
                parts: Vec::new(),
            },
        );
        out.stmts.push(done);
    } else {
        stmt.line = toks.get(next).map(|t| t.line).unwrap_or(stmt.line);
    }
}

/// Walk the dotted receiver chain backwards from a call ident at `k`:
/// `self.aom.on_packet(` → the token indices of `self` and `aom`.
/// Balanced `(..)` / `[..]` groups in the chain
/// (`.entry(s).or_default(`) are skipped.
fn receiver_chain(toks: &[Tok], k: usize) -> Vec<usize> {
    let mut chain = Vec::new();
    let mut j = k;
    loop {
        if j == 0 || !toks[j - 1].is_punct('.') {
            break;
        }
        let mut p = j - 2; // token before the `.`
        loop {
            let Some(t) = toks.get(p) else {
                break;
            };
            if t.is_punct(')') || t.is_punct(']') {
                // Skip back over the balanced group.
                let close = if t.is_punct(')') { ')' } else { ']' };
                let open = if close == ')' { '(' } else { '[' };
                let mut depth = 0i64;
                while p > 0 {
                    if toks[p].is_punct(close) {
                        depth += 1;
                    } else if toks[p].is_punct(open) {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    p -= 1;
                }
                if p == 0 {
                    break;
                }
                p -= 1;
                continue;
            }
            break;
        }
        let Some(t) = toks.get(p) else { break };
        if t.kind == TokKind::Ident {
            chain.push(p);
            j = p;
            continue;
        }
        break;
    }
    chain.reverse();
    chain
}

/// Shape of the argument list whose `(` is `toks[0]`: the number of
/// top-level arguments (counted by commas, so a trailing comma counts
/// one more) and whether the first one starts with a string literal.
fn call_args(toks: &[Tok]) -> (usize, bool) {
    let mut depth = 0i64;
    let mut commas = 0usize;
    let mut first: Option<&Tok> = None;
    for t in toks {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if depth == 1 {
            if t.is_punct(',') {
                commas += 1;
            } else if first.is_none() {
                first = Some(t);
            }
        }
    }
    match first {
        Some(t) => (
            commas + 1,
            t.kind == TokKind::Literal && t.text.starts_with('"'),
        ),
        None => (0, false),
    }
}

/// Decide whether the call at `k` is a write of a field: a mutating
/// verb with a two-segment-or-longer receiver (`x.field.insert(..)`),
/// or `recv.field.entry(..)` followed by `.or_*` / `.and_modify`.
fn write_event(toks: &[Tok], k: usize, name: &str, recv: &[String]) -> Option<Event> {
    let field = recv.last()?;
    if recv.len() < 2 {
        // `local.push(..)` — locals aren't replicated state; aliased
        // field mutations through a local are a documented miss.
        return None;
    }
    if MUT_VERBS.contains(&name) {
        return Some(Event::Write {
            field: field.clone(),
            verb: name.to_string(),
            line: toks[k].line,
        });
    }
    if name == "entry" {
        // Lookahead past the balanced `(..)` for `.or_*`/`.and_modify`.
        let close = skip_balanced(toks, k + 1, '(', ')');
        if toks.get(close).map(|t| t.is_punct('.')) == Some(true) {
            if let Some(next) = toks.get(close + 1) {
                if next.kind == TokKind::Ident
                    && (next.text.starts_with("or_") || next.text == "and_modify")
                {
                    return Some(Event::Write {
                        field: field.clone(),
                        verb: "entry".to_string(),
                        line: toks[k].line,
                    });
                }
            }
        }
    }
    None
}

/// Skip a balanced `open .. close` region starting at the `open` token;
/// returns the index just past the matching close.
fn skip_balanced(toks: &[Tok], start: usize, open: char, close: char) -> usize {
    let mut depth = 0i64;
    let mut i = start;
    while i < toks.len() {
        if toks[i].is_punct(open) {
            depth += 1;
        } else if toks[i].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn model(src: &str) -> FileModel {
        parse_file("test.rs", &lex(src))
    }

    #[test]
    fn fn_owner_and_entry_detection() {
        let src = "impl Replica { fn on_msg(&mut self) {} fn helper(&self) {} }\n\
                   impl Node for Replica { fn on_timer(&mut self) {} }\n\
                   fn free() {}";
        let m = model(src);
        let names: Vec<(&str, Option<&str>)> = m
            .functions
            .iter()
            .map(|f| (f.name.as_str(), f.owner.as_deref()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("on_msg", Some("Replica")),
                ("helper", Some("Replica")),
                ("on_timer", Some("Replica")),
                ("free", None),
            ]
        );
        assert!(m.functions[0].is_entry());
        assert!(!m.functions[1].is_entry());
    }

    #[test]
    fn struct_fields_and_markers() {
        let src = "struct S {\n\
                   table: HashMap<ClientId, u64>,\n\
                   // neo-lint: replicated(delivery log)\n\
                   log: Vec<Entry>,\n\
                   n: u32,\n\
                   }";
        let m = model(src);
        assert_eq!(m.structs.len(), 1);
        let f = &m.structs[0].fields;
        assert_eq!(f.len(), 3);
        assert_eq!(f[0].map_key.as_deref(), Some("ClientId"));
        assert!(!f[0].replicated);
        assert!(f[1].replicated);
        assert!(f[1].map_key.is_none());
        assert!(!f[2].replicated);
    }

    #[test]
    fn call_events_capture_receiver_chain() {
        let src = "impl R { fn on_x(&mut self) { self.aom.on_packet(p); helper(1); } }";
        let m = model(src);
        let events = m.functions[0].linear_events();
        let calls: Vec<(&str, Vec<&str>)> = events
            .iter()
            .filter_map(|e| match e {
                Event::Call { name, recv, .. } => {
                    Some((name.as_str(), recv.iter().map(|s| s.as_str()).collect()))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            calls,
            vec![("on_packet", vec!["self", "aom"]), ("helper", vec![])]
        );
    }

    #[test]
    fn write_events_need_two_segments_and_mut_verbs() {
        let src = "impl R { fn on_x(&mut self) {\n\
                   self.table.insert(k, v);\n\
                   local.push(1);\n\
                   self.gaps.entry(s).or_default();\n\
                   self.log.entry(s);\n\
                   } }";
        let m = model(src);
        let writes: Vec<(&str, &str)> = m.functions[0]
            .linear_events()
            .into_iter()
            .filter_map(|e| match e {
                Event::Write { field, verb, .. } => Some((field.as_str(), verb.as_str())),
                _ => None,
            })
            .collect();
        // `local.push` is single-segment (skipped); bare `.entry(..)`
        // without `.or_*` is a read.
        assert_eq!(writes, vec![("table", "insert"), ("gaps", "entry")]);
    }

    #[test]
    fn early_exits_and_order_are_linear() {
        let src = "impl R { fn on_x(&mut self) {\n\
                   if !self.verify_auth(m) { return; }\n\
                   self.table.insert(k, v);\n\
                   } }";
        let m = model(src);
        let ev = m.functions[0].linear_events();
        let shapes: Vec<String> = ev
            .iter()
            .map(|e| match e {
                Event::Call { name, .. } => format!("call:{name}"),
                Event::Write { field, .. } => format!("write:{field}"),
                Event::Index { .. } => "index".to_string(),
                Event::EarlyExit { .. } => "exit".to_string(),
            })
            .collect();
        assert_eq!(
            shapes,
            vec!["call:verify_auth", "exit", "call:insert", "write:table"]
        );
    }

    #[test]
    fn macro_calls_are_flagged() {
        let src = "impl R { fn helper(&self) { panic!(\"boom\"); } }";
        let m = model(src);
        let ev = m.functions[0].linear_events();
        assert!(ev.iter().any(|e| matches!(
            e,
            Event::Call {
                name,
                is_macro: true,
                ..
            } if name == "panic"
        )));
    }

    #[test]
    fn verified_marker_applies_to_next_fn() {
        let src = "impl R {\n\
                   // neo-lint: verified(cert pre-checked)\n\
                   fn on_delivery(&mut self) {}\n\
                   fn on_other(&mut self) {}\n\
                   }";
        let m = model(src);
        assert!(m.functions[0].verified_input);
        assert!(!m.functions[1].verified_input);
    }

    fn calls(f: &FnModel) -> Vec<&Event> {
        f.linear_events()
            .into_iter()
            .filter(|e| matches!(e, Event::Call { .. }))
            .collect()
    }

    #[test]
    fn index_events_skip_attributes_types_and_macro_brackets() {
        let src = "fn on_x(b: &[u8]) {\n\
                   #[allow(unused)]\n\
                   let a: [u8; 2] = [0, 1];\n\
                   let v = vec![1];\n\
                   let x = b[0] + f(b)[1] + m[0][1];\n\
                   }";
        let m = model(src);
        let lines: Vec<u32> = m.functions[0]
            .linear_events()
            .into_iter()
            .filter(|e| matches!(e, Event::Index { .. }))
            .map(Event::line)
            .collect();
        // `b[0]`, `f(b)[1]`, `m[0]`, `..[1]` — all on line 5.
        assert_eq!(lines, vec![5, 5, 5, 5]);
        // The attribute's `allow(..)` is not a call either.
        assert!(calls(&m.functions[0])
            .iter()
            .all(|e| !matches!(e, Event::Call { name, .. } if name == "allow")));
    }

    #[test]
    fn call_shape_counts_arguments_and_spots_a_literal_first() {
        let src = "fn f(m: &M) {\n\
                   m.incr(\"a.b\");\n\
                   m.observe(&name(p, q), v);\n\
                   m.add(r#\"raw\"#, g(1, 2));\n\
                   tick();\n\
                   }";
        let m = model(src);
        let shapes: Vec<(&str, usize, bool)> = calls(&m.functions[0])
            .into_iter()
            .filter_map(|e| match e {
                Event::Call {
                    name,
                    argc,
                    lit_first,
                    ..
                } => Some((name.as_str(), *argc, *lit_first)),
                _ => None,
            })
            .collect();
        assert_eq!(
            shapes,
            vec![
                ("incr", 1, true),
                ("observe", 2, false),
                ("name", 2, false),
                ("add", 2, true),
                ("g", 2, false),
                ("tick", 0, false),
            ]
        );
    }

    #[test]
    fn method_flag_and_receiver_line() {
        let src = "fn f(&mut self) {\n\
                   (a + b).unwrap();\n\
                   unwrap(x);\n\
                   self.table\n\
                   .insert(k, v);\n\
                   }";
        let m = model(src);
        let got: Vec<(&str, bool, usize, u32, u32)> = calls(&m.functions[0])
            .into_iter()
            .filter_map(|e| match e {
                Event::Call {
                    name,
                    method,
                    recv,
                    recv_line,
                    line,
                    ..
                } => Some((name.as_str(), *method, recv.len(), *recv_line, *line)),
                _ => None,
            })
            .collect();
        assert_eq!(
            got,
            vec![
                ("unwrap", true, 0, 2, 2),
                ("unwrap", false, 0, 3, 3),
                ("insert", true, 2, 4, 5),
            ]
        );
    }

    #[test]
    fn test_items_are_flagged_or_dropped() {
        let src = "#[cfg(test)]\nmod t { struct Hidden { m: HashMap<u64, u64> } fn on_a() {} }\n\
                   #[test]\n#[ignore]\nfn on_b() {}\n\
                   fn on_c() {}";
        let m = model(src);
        assert!(m.structs.is_empty());
        let flags: Vec<(&str, bool)> = m
            .functions
            .iter()
            .map(|f| (f.name.as_str(), f.is_test))
            .collect();
        assert_eq!(flags, vec![("on_a", true), ("on_b", true), ("on_c", false)]);
    }
}
