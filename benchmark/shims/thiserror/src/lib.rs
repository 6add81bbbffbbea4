//! `#[derive(Error)]` for structs and enums: `#[error("format")]` (with
//! `{0}`, `{field}`, `{0:?}` and implicitly captured names such as
//! constants), `#[error(transparent)]`, `#[source]`/a field named
//! `source`, and `#[from]`.

use proc_macro::{TokenStream, TokenTree};
use std::fmt::Write as _;

#[path = "../../derive_parse.rs"]
mod parse;

use parse::{parse_item, string_literal, Attr, Body, Field, Item, Shape};

enum Message {
    Format(String),
    Transparent,
}

fn message(attrs: &[Attr], what: &str) -> Option<Message> {
    let a = attrs.iter().find(|a| a.name == "error")?;
    match a.args.as_slice() {
        [TokenTree::Ident(i)] if i.to_string() == "transparent" => Some(Message::Transparent),
        [lit] => {
            let s = string_literal(lit).unwrap_or_else(|| panic!("#[error(...)] on {what} needs a string literal"));
            Some(Message::Format(positional_to_bindings(&s)))
        }
        _ => panic!("the thiserror stand-in supports #[error(\"...\")] without extra arguments ({what})"),
    }
}

/// `{0}`/`{1:?}` → `{_0}`/`{_1:?}`, so positional references name the
/// bindings the generated `match` introduces.
fn positional_to_bindings(fmt: &str) -> String {
    let mut out = String::new();
    let mut chars = fmt.chars().peekable();
    while let Some(c) = chars.next() {
        out.push(c);
        if c != '{' {
            continue;
        }
        if chars.peek() == Some(&'{') {
            out.push(chars.next().unwrap());
            continue;
        }
        if chars.peek().is_some_and(char::is_ascii_digit) {
            out.push('_');
        }
    }
    out
}

fn binding(f: &Field, index: usize) -> String {
    f.name.clone().unwrap_or_else(|| format!("_{index}"))
}

/// Pattern that binds every field: ` { a, b }`, `(_0, _1)` or nothing.
fn pattern(shape: &Shape) -> String {
    match shape {
        Shape::Unit => String::new(),
        Shape::Tuple(fields) => {
            let b: Vec<String> = fields.iter().enumerate().map(|(i, f)| binding(f, i)).collect();
            format!("({})", b.join(", "))
        }
        Shape::Named(fields) => {
            let b: Vec<String> = fields.iter().enumerate().map(|(i, f)| binding(f, i)).collect();
            format!(" {{ {} }}", b.join(", "))
        }
    }
}

fn fields(shape: &Shape) -> &[Field] {
    match shape {
        Shape::Unit => &[],
        Shape::Tuple(f) | Shape::Named(f) => f,
    }
}

fn has_attr(f: &Field, name: &str) -> bool {
    f.attrs.iter().any(|a| a.name == name)
}

/// The binding of the field that is this shape's error source, if any.
fn source_binding(shape: &Shape, transparent: bool) -> Option<String> {
    let fs = fields(shape);
    if transparent {
        return fs.first().map(|f| binding(f, 0));
    }
    fs.iter().enumerate().find_map(|(i, f)| {
        (has_attr(f, "source") || has_attr(f, "from") || f.name.as_deref() == Some("source")).then(|| binding(f, i))
    })
}

fn display_arm(msg: &Message, shape: &Shape) -> String {
    match msg {
        Message::Format(s) => format!("::core::write!(__f, {s:?})"),
        Message::Transparent => format!("::core::fmt::Display::fmt({}, __f)", binding(&fields(shape)[0], 0)),
    }
}

fn derive(item: &Item) -> String {
    let name = &item.name;
    // (path, shape, message) per struct or variant.
    let mut cases: Vec<(String, &Shape, Message)> = Vec::new();
    match &item.body {
        Body::Struct(shape) => {
            let msg = message(&item.attrs, name).unwrap_or_else(|| panic!("struct {name} needs #[error(...)]"));
            cases.push((name.clone(), shape, msg));
        }
        Body::Enum(variants) => {
            let fallback = message(&item.attrs, name);
            for v in variants {
                let msg = message(&v.attrs, &v.name).unwrap_or_else(|| match &fallback {
                    Some(Message::Transparent) => Message::Transparent,
                    Some(Message::Format(s)) => Message::Format(s.clone()),
                    None => panic!("variant {name}::{} needs #[error(...)]", v.name),
                });
                cases.push((format!("{name}::{}", v.name), &v.shape, msg));
            }
        }
    }

    let mut display = String::new();
    let mut source = String::new();
    let mut froms = String::new();
    for (path, shape, msg) in &cases {
        let pat = pattern(shape);
        write!(display, "{path}{pat} => {},", display_arm(msg, shape)).unwrap();
        let transparent = matches!(msg, Message::Transparent);
        if let Some(b) = source_binding(shape, transparent) {
            let expr = if transparent {
                format!("::std::error::Error::source({b})")
            } else {
                format!("::core::option::Option::Some({b} as &(dyn ::std::error::Error + 'static))")
            };
            write!(source, "{path}{pat} => {expr},").unwrap();
        }
        for (i, f) in fields(shape).iter().enumerate() {
            if !has_attr(f, "from") {
                continue;
            }
            assert!(
                fields(shape).len() == 1,
                "#[from] needs a single-field variant ({path})"
            );
            let ty: TokenStream = f.ty.iter().cloned().collect();
            let build = match &f.name {
                Some(n) => format!("{path} {{ {n}: __source }}"),
                None => {
                    let _ = i;
                    format!("{path}(__source)")
                }
            };
            write!(
                froms,
                "#[automatically_derived] impl{} ::core::convert::From<{ty}> for {name}{} {} {{ \
                   fn from(__source: {ty}) -> Self {{ {build} }} }}",
                item.impl_generics(""),
                item.ty_generics(),
                item.where_tokens(),
            )
            .unwrap();
        }
    }
    if cases.is_empty() {
        display.push_str("_ => ::core::unreachable!(),");
    }

    let head = |trait_path: &str| {
        format!(
            "#[automatically_derived] #[allow(unused_variables, unreachable_patterns, clippy::all)] \
             impl{} {trait_path} for {name}{} {}",
            item.impl_generics(""),
            item.ty_generics(),
            item.where_tokens(),
        )
    };
    format!(
        "{} {{ fn fmt(&self, __f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {{ \
             match self {{ {display} }} }} }} \
         {} {{ fn source(&self) -> ::core::option::Option<&(dyn ::std::error::Error + 'static)> {{ \
             match self {{ {source} _ => ::core::option::Option::None }} }} }} \
         {froms}",
        head("::core::fmt::Display"),
        head("::std::error::Error"),
    )
}

#[proc_macro_derive(Error, attributes(error, source, from, backtrace))]
pub fn error(input: TokenStream) -> TokenStream {
    derive(&parse_item(input)).parse().expect("generated Error impl parses")
}
