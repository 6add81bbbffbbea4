//! A small item parser over `proc_macro` tokens, shared (through
//! `#[path]`) by the `serde_derive` and `thiserror` stand-ins. It reads
//! what a derive needs — names, field lists, attributes, generics — and
//! skips types and expressions without understanding them.

use proc_macro::{Delimiter, Spacing, TokenStream, TokenTree};

/// One `#[name ...]` attribute.
pub struct Attr {
    pub name: String,
    /// Tokens after the name: the contents of `(...)`, or what follows `=`.
    pub args: Vec<TokenTree>,
}

pub struct Field {
    pub attrs: Vec<Attr>,
    /// `None` in a tuple struct or tuple variant.
    pub name: Option<String>,
    pub ty: Vec<TokenTree>,
}

pub enum Shape {
    Unit,
    Tuple(Vec<Field>),
    Named(Vec<Field>),
}

pub struct Variant {
    pub attrs: Vec<Attr>,
    pub name: String,
    pub shape: Shape,
}

pub enum Body {
    Struct(Shape),
    Enum(Vec<Variant>),
}

pub enum ParamKind {
    Lifetime,
    Type,
    Const,
}

pub struct Param {
    pub kind: ParamKind,
    /// `'a`, `T` or `N`.
    pub name: String,
    /// The declaration without its default: `'a: 'b`, `T: Clone`,
    /// `const N: usize`.
    pub decl: String,
}

pub struct Item {
    pub attrs: Vec<Attr>,
    pub name: String,
    pub params: Vec<Param>,
    /// Predicates of the `where` clause, without the keyword; may be empty.
    pub where_clause: String,
    pub body: Body,
}

impl Item {
    /// `<'a, T: Clone + extra, const N: usize>` or the empty string;
    /// `extra_bound` is added to every type parameter.
    pub fn impl_generics(&self, extra_bound: &str) -> String {
        if self.params.is_empty() {
            return String::new();
        }
        let decls: Vec<String> = self
            .params
            .iter()
            .map(|p| match p.kind {
                ParamKind::Type if !extra_bound.is_empty() => {
                    let sep = if p.decl.contains(':') { " +" } else { ":" };
                    format!("{}{sep} {extra_bound}", p.decl)
                }
                _ => p.decl.clone(),
            })
            .collect();
        format!("<{}>", decls.join(", "))
    }

    /// `<'a, T, N>` or the empty string.
    pub fn ty_generics(&self) -> String {
        if self.params.is_empty() {
            return String::new();
        }
        let names: Vec<&str> = self.params.iter().map(|p| p.name.as_str()).collect();
        format!("<{}>", names.join(", "))
    }

    /// `where ...` or the empty string.
    pub fn where_tokens(&self) -> String {
        if self.where_clause.is_empty() {
            String::new()
        } else {
            format!("where {}", self.where_clause)
        }
    }
}

fn is_punct(t: &TokenTree, c: char) -> bool {
    matches!(t, TokenTree::Punct(p) if p.as_char() == c)
}

fn is_ident(t: &TokenTree, s: &str) -> bool {
    matches!(t, TokenTree::Ident(i) if i.to_string() == s)
}

fn tokens_to_string(tokens: &[TokenTree]) -> String {
    tokens.iter().cloned().collect::<TokenStream>().to_string()
}

struct Cursor {
    tokens: Vec<TokenTree>,
    pos: usize,
}

impl Cursor {
    fn new(stream: TokenStream) -> Cursor {
        Cursor {
            tokens: stream.into_iter().collect(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<&TokenTree> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<TokenTree> {
        let t = self.tokens.get(self.pos).cloned();
        self.pos += 1;
        t
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    /// Leading `#[...]` attributes.
    fn attrs(&mut self) -> Vec<Attr> {
        let mut out = Vec::new();
        while self.peek().is_some_and(|t| is_punct(t, '#')) {
            self.pos += 1;
            let Some(TokenTree::Group(g)) = self.next() else {
                panic!("expected [...] after #");
            };
            let mut inner = g.stream().into_iter();
            let name = match inner.next() {
                Some(TokenTree::Ident(i)) => i.to_string(),
                other => panic!("unsupported attribute start: {other:?}"),
            };
            let args = match inner.next() {
                Some(TokenTree::Group(g)) => g.stream().into_iter().collect(),
                Some(t) if is_punct(&t, '=') => inner.collect(),
                // A path (`a::b`) or a bare word: nothing a derive here reads.
                _ => Vec::new(),
            };
            out.push(Attr { name, args });
        }
        out
    }

    /// `pub`, `pub(crate)`, `pub(in path)` or nothing.
    fn visibility(&mut self) {
        if self.peek().is_some_and(|t| is_ident(t, "pub")) {
            self.pos += 1;
            if matches!(self.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis) {
                self.pos += 1;
            }
        }
    }

    fn ident(&mut self, what: &str) -> String {
        match self.next() {
            Some(TokenTree::Ident(i)) => i.to_string(),
            other => panic!("expected {what}, found {other:?}"),
        }
    }

    /// Tokens up to (not including) the next `,` outside angle brackets,
    /// or the end. The comma is consumed.
    fn until_comma(&mut self) -> Vec<TokenTree> {
        let mut depth = 0i32;
        let mut out = Vec::new();
        while let Some(t) = self.next() {
            if let TokenTree::Punct(p) = &t {
                match p.as_char() {
                    ',' if depth == 0 => return out,
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    // `->` in a fn-pointer type: its `>` closes nothing.
                    '-' if p.spacing() == Spacing::Joint => {
                        out.push(t);
                        if let Some(n) = self.next() {
                            out.push(n);
                        }
                        continue;
                    }
                    _ => {}
                }
            }
            out.push(t);
        }
        out
    }
}

fn parse_fields(stream: TokenStream, named: bool) -> Vec<Field> {
    let mut c = Cursor::new(stream);
    let mut out = Vec::new();
    while !c.at_end() {
        let attrs = c.attrs();
        c.visibility();
        let name = named.then(|| {
            let n = c.ident("a field name");
            match c.next() {
                Some(t) if is_punct(&t, ':') => {}
                other => panic!("expected `:` after field `{n}`, found {other:?}"),
            }
            n
        });
        let ty = c.until_comma();
        out.push(Field { attrs, name, ty });
    }
    out
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let mut c = Cursor::new(stream);
    let mut out = Vec::new();
    while !c.at_end() {
        let attrs = c.attrs();
        let name = c.ident("a variant name");
        let shape = match c.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let s = Shape::Tuple(parse_fields(g.stream(), false));
                c.pos += 1;
                s
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let s = Shape::Named(parse_fields(g.stream(), true));
                c.pos += 1;
                s
            }
            _ => Shape::Unit,
        };
        // An explicit discriminant, then the separating comma.
        c.until_comma();
        out.push(Variant { attrs, name, shape });
    }
    out
}

fn parse_params(tokens: Vec<TokenTree>) -> Vec<Param> {
    let mut c = Cursor { tokens, pos: 0 };
    let mut out = Vec::new();
    while !c.at_end() {
        let decl = c.until_comma();
        if decl.is_empty() {
            continue;
        }
        // Cut a default (`= ...`) off the declaration.
        let mut depth = 0i32;
        let mut end = decl.len();
        for (i, t) in decl.iter().enumerate() {
            if let TokenTree::Punct(p) = t {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    '=' if depth == 0 => {
                        end = i;
                        break;
                    }
                    _ => {}
                }
            }
        }
        let decl = &decl[..end];
        let (kind, name) = if is_punct(&decl[0], '\'') {
            (ParamKind::Lifetime, format!("'{}", decl[1]))
        } else if is_ident(&decl[0], "const") {
            (ParamKind::Const, decl[1].to_string())
        } else {
            (ParamKind::Type, decl[0].to_string())
        };
        out.push(Param {
            kind,
            name,
            decl: tokens_to_string(decl),
        });
    }
    out
}

/// Parse the struct or enum a derive macro was applied to.
pub fn parse_item(input: TokenStream) -> Item {
    let mut c = Cursor::new(input);
    let attrs = c.attrs();
    c.visibility();
    let keyword = c.ident("`struct` or `enum`");
    let name = c.ident("the type's name");

    let mut params = Vec::new();
    if c.peek().is_some_and(|t| is_punct(t, '<')) {
        c.pos += 1;
        let mut depth = 1i32;
        let mut inner = Vec::new();
        loop {
            let t = c.next().expect("unclosed generics");
            if let TokenTree::Punct(p) = &t {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
            inner.push(t);
        }
        params = parse_params(inner);
    }

    // What remains: an optional where clause around the body.
    let mut where_tokens = Vec::new();
    let mut body = None;
    let mut in_where = false;
    while let Some(t) = c.next() {
        match &t {
            TokenTree::Ident(i) if i.to_string() == "where" => in_where = true,
            TokenTree::Group(g) if g.delimiter() == Delimiter::Brace && body.is_none() => {
                body = Some(match keyword.as_str() {
                    "struct" => Body::Struct(Shape::Named(parse_fields(g.stream(), true))),
                    "enum" => Body::Enum(parse_variants(g.stream())),
                    other => panic!("cannot derive for `{other}` items"),
                });
            }
            TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis && body.is_none() && !in_where => {
                body = Some(Body::Struct(Shape::Tuple(parse_fields(g.stream(), false))));
            }
            TokenTree::Punct(p) if p.as_char() == ';' => {}
            _ if in_where => where_tokens.push(t),
            other => panic!("unexpected token in item: {other:?}"),
        }
    }
    let body = body.unwrap_or(Body::Struct(Shape::Unit));
    assert!(
        keyword == "struct" || matches!(body, Body::Enum(_)),
        "enum `{name}` has no body"
    );

    Item {
        attrs,
        name,
        params,
        where_clause: tokens_to_string(&where_tokens),
        body,
    }
}

/// The string inside a string-literal token (`"a\"b"` → `a"b`). Handles
/// the escapes a format string or a path is likely to hold.
pub fn string_literal(t: &TokenTree) -> Option<String> {
    let TokenTree::Literal(l) = t else {
        return None;
    };
    let text = l.to_string();
    if let Some(raw) = text.strip_prefix('r') {
        let hashes = raw.chars().take_while(|&c| c == '#').count();
        let inner = &raw[hashes..raw.len() - hashes];
        return inner
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .map(str::to_string);
    }
    let inner = text.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::new();
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            'n' => out.push('\n'),
            't' => out.push('\t'),
            'r' => out.push('\r'),
            '0' => out.push('\0'),
            '\\' => out.push('\\'),
            '"' => out.push('"'),
            '\'' => out.push('\''),
            '\n' => {
                // Line continuation: skip the next line's indentation.
                let rest = chars.as_str().trim_start();
                chars = rest.chars();
            }
            'u' => {
                let hex: String = chars.by_ref().skip(1).take_while(|&c| c != '}').collect();
                out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
            }
            other => {
                out.push('\\');
                out.push(other);
            }
        }
    }
    Some(out)
}
