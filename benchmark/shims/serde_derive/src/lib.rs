//! `#[derive(Serialize, Deserialize)]` for the serde stand-in.
//!
//! Supports structs (named, tuple, unit) and enums (unit, newtype, tuple
//! and struct variants), simple generics, and the field attributes
//! `#[serde(default)]`, `#[serde(default = "path")]`, `#[serde(skip)]`,
//! `#[serde(skip_serializing_if = "path")]`,
//! `#[serde(skip_serializing)]` and `#[serde(skip_deserializing)]`.
//! Anything else inside `#[serde(...)]` is a compile error, so that an
//! attribute this stand-in would silently mishandle cannot slip in.

use proc_macro::{TokenStream, TokenTree};
use std::fmt::Write as _;

#[path = "../../derive_parse.rs"]
mod parse;

use parse::{parse_item, string_literal, Attr, Body, Field, Item, Shape};

#[derive(Default)]
struct FieldOpts {
    /// `Some(None)`: `Default::default()`; `Some(Some(path))`: `path()`.
    default: Option<Option<String>>,
    skip_ser: bool,
    skip_de: bool,
    skip_ser_if: Option<String>,
}

fn field_opts(attrs: &[Attr]) -> FieldOpts {
    let mut o = FieldOpts::default();
    for a in attrs.iter().filter(|a| a.name == "serde") {
        let mut it = a.args.iter().peekable();
        while let Some(t) = it.next() {
            let TokenTree::Ident(key) = t else {
                panic!("unsupported serde attribute syntax near `{t}`");
            };
            let key = key.to_string();
            let mut value = None;
            if matches!(it.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
                it.next();
                let lit = it.next().expect("value after `=`");
                value = Some(string_literal(lit).expect("string literal after `=`"));
            }
            match (key.as_str(), value) {
                ("default", v) => o.default = Some(v),
                ("skip", None) => {
                    o.skip_ser = true;
                    o.skip_de = true;
                }
                ("skip_serializing", None) => o.skip_ser = true,
                ("skip_deserializing", None) => o.skip_de = true,
                ("skip_serializing_if", Some(p)) => o.skip_ser_if = Some(p),
                (other, _) => panic!("the serde stand-in does not support #[serde({other})]"),
            }
            if matches!(it.peek(), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
                it.next();
            }
        }
    }
    o
}

fn reject_container_attrs(attrs: &[Attr], what: &str) {
    if attrs.iter().any(|a| a.name == "serde") {
        panic!("the serde stand-in does not support #[serde(...)] on {what}");
    }
}

fn is_option(f: &Field) -> bool {
    matches!(f.ty.first(), Some(TokenTree::Ident(i)) if i.to_string() == "Option")
}

/// How a field's Rust value is named inside generated code.
fn binding(f: &Field, index: usize) -> String {
    match &f.name {
        Some(n) => format!("__f_{n}"),
        None => format!("__f{index}"),
    }
}

/// Statements that write named fields; `access(i, field)` gives the
/// expression (a reference) for each.
fn ser_named(out: &mut String, fields: &[Field], access: &dyn Fn(usize, &Field) -> String) {
    for (i, f) in fields.iter().enumerate() {
        let o = field_opts(&f.attrs);
        if o.skip_ser {
            continue;
        }
        let name = f.name.as_deref().unwrap();
        let expr = access(i, f);
        let write = format!("__s.field(\"{name}\")?; ::serde::Serialize::serialize({expr}, __s)?;");
        match o.skip_ser_if {
            Some(p) => write!(out, "if !{p}({expr}) {{ {write} }}").unwrap(),
            None => out.push_str(&write),
        }
    }
}

/// Expression counting the named fields that will be written.
fn ser_named_len(fields: &[Field], access: &dyn Fn(usize, &Field) -> String) -> String {
    let mut fixed = 0usize;
    let mut expr = String::new();
    for (i, f) in fields.iter().enumerate() {
        let o = field_opts(&f.attrs);
        if o.skip_ser {
            continue;
        }
        match o.skip_ser_if {
            Some(p) => write!(expr, " + usize::from(!{p}({}))", access(i, f)).unwrap(),
            None => fixed += 1,
        }
    }
    format!("{fixed}usize{expr}")
}

fn ser_tuple(out: &mut String, fields: &[Field], access: &dyn Fn(usize, &Field) -> String) {
    for (i, f) in fields.iter().enumerate() {
        write!(
            out,
            "__s.elem()?; ::serde::Serialize::serialize({}, __s)?;",
            access(i, f)
        )
        .unwrap();
    }
}

fn derive_serialize(item: &Item) -> String {
    reject_container_attrs(&item.attrs, "a container");
    let name = &item.name;
    let mut body = String::new();
    match &item.body {
        Body::Struct(Shape::Unit) => body.push_str("__s.put_unit()"),
        Body::Struct(Shape::Tuple(fields)) if fields.len() == 1 => {
            body.push_str("::serde::Serialize::serialize(&self.0, __s)");
        }
        Body::Struct(Shape::Tuple(fields)) => {
            write!(body, "__s.begin_tuple({})?;", fields.len()).unwrap();
            ser_tuple(&mut body, fields, &|i, _| format!("&self.{i}"));
            body.push_str("__s.end_tuple()");
        }
        Body::Struct(Shape::Named(fields)) => {
            let access = |_: usize, f: &Field| format!("&self.{}", f.name.as_deref().unwrap());
            write!(
                body,
                "__s.begin_struct(\"{name}\", {})?;",
                ser_named_len(fields, &access)
            )
            .unwrap();
            ser_named(&mut body, fields, &access);
            body.push_str("__s.end_struct()");
        }
        Body::Enum(variants) if variants.is_empty() => body.push_str("match *self {}"),
        Body::Enum(variants) => {
            body.push_str("match self {");
            for (idx, v) in variants.iter().enumerate() {
                reject_container_attrs(&v.attrs, "a variant");
                let vname = &v.name;
                match &v.shape {
                    Shape::Unit => write!(body, "{name}::{vname} => __s.unit_variant({idx}u32, \"{vname}\"),").unwrap(),
                    Shape::Tuple(fields) => {
                        let binds: Vec<String> = fields.iter().enumerate().map(|(i, f)| binding(f, i)).collect();
                        let kind = if fields.len() == 1 {
                            "::serde::VariantKind::Newtype".to_string()
                        } else {
                            format!("::serde::VariantKind::Tuple({})", fields.len())
                        };
                        write!(
                            body,
                            "{name}::{vname}({}) => {{ __s.begin_variant({idx}u32, \"{vname}\", {kind})?;",
                            binds.join(", ")
                        )
                        .unwrap();
                        if fields.len() == 1 {
                            write!(body, "::serde::Serialize::serialize({}, __s)?;", binds[0]).unwrap();
                        } else {
                            ser_tuple(&mut body, fields, &|i, f| binding(f, i));
                        }
                        write!(body, "__s.end_variant({kind}) }}").unwrap();
                    }
                    Shape::Named(fields) => {
                        let pattern: Vec<String> = fields
                            .iter()
                            .enumerate()
                            .map(|(i, f)| format!("{}: {}", f.name.as_deref().unwrap(), binding(f, i)))
                            .collect();
                        let access = |i: usize, f: &Field| binding(f, i);
                        write!(
                            body,
                            "{name}::{vname} {{ {} }} => {{ \
                             let __kind = ::serde::VariantKind::Struct({}); \
                             __s.begin_variant({idx}u32, \"{vname}\", __kind)?;",
                            pattern.join(", "),
                            ser_named_len(fields, &access)
                        )
                        .unwrap();
                        ser_named(&mut body, fields, &access);
                        body.push_str("__s.end_variant(__kind) }");
                    }
                }
            }
            body.push('}');
        }
    }
    format!(
        "#[automatically_derived] #[allow(unused_variables, clippy::all)] \
         impl{} ::serde::Serialize for {name}{} {} {{ \
           fn serialize<__S: ::serde::Serializer + ?Sized>(&self, __s: &mut __S) \
             -> ::core::result::Result<(), __S::Error> {{ {body} }} }}",
        item.impl_generics("::serde::Serialize"),
        item.ty_generics(),
        item.where_tokens(),
    )
}

/// Expression for a field the input did not supply.
fn absent(f: &Field, o: &FieldOpts) -> String {
    match &o.default {
        Some(Some(path)) => format!("{path}()"),
        Some(None) => "::core::default::Default::default()".to_string(),
        None if o.skip_de => "::core::default::Default::default()".to_string(),
        None if is_option(f) => "::core::option::Option::None".to_string(),
        None => format!(
            "return ::core::result::Result::Err(\
             <__D::Error as ::serde::de::Error>::missing_field(\"{}\"))",
            f.name.as_deref().unwrap_or("?")
        ),
    }
}

/// Block expression that reads named fields and builds `ctor { .. }`.
fn de_named(type_name: &str, ctor: &str, fields: &[Field]) -> String {
    let opts: Vec<FieldOpts> = fields.iter().map(|f| field_opts(&f.attrs)).collect();
    let read: Vec<(usize, &Field)> = fields.iter().enumerate().filter(|(i, _)| !opts[*i].skip_de).collect();
    let names: Vec<String> = read
        .iter()
        .map(|(_, f)| format!("\"{}\"", f.name.as_deref().unwrap()))
        .collect();
    let build: Vec<String> = fields
        .iter()
        .enumerate()
        .map(|(i, f)| format!("{}: {}", f.name.as_deref().unwrap(), binding(f, i)))
        .collect();

    let mut positional = String::new();
    let mut keyed_decl = String::new();
    let mut keyed_arms = String::new();
    let mut keyed_finish = String::new();
    for (i, f) in fields.iter().enumerate() {
        let b = binding(f, i);
        if opts[i].skip_de {
            write!(positional, "let {b} = {};", absent(f, &opts[i])).unwrap();
            write!(keyed_finish, "let {b} = {};", absent(f, &opts[i])).unwrap();
            continue;
        }
        write!(positional, "let {b} = ::serde::Deserialize::deserialize(__d)?;").unwrap();
        write!(keyed_decl, "let mut {b} = ::core::option::Option::None;").unwrap();
        let key_index = read.iter().position(|(j, _)| *j == i).unwrap();
        write!(
            keyed_arms,
            "{key_index}usize => {b} = ::core::option::Option::Some(::serde::Deserialize::deserialize(__d)?),"
        )
        .unwrap();
        write!(
            keyed_finish,
            "let {b} = match {b} {{ ::core::option::Option::Some(__v) => __v, \
             ::core::option::Option::None => {} }};",
            absent(f, &opts[i])
        )
        .unwrap();
    }

    format!(
        "{{ const __FIELDS: &[&str] = &[{names}]; \
           __d.begin_struct(\"{type_name}\", __FIELDS)?; \
           if __d.positional() {{ \
             {positional} __d.end_struct()?; {ctor} {{ {build} }} \
           }} else {{ \
             {keyed_decl} \
             while let ::core::option::Option::Some(__i) = __d.next_key(__FIELDS)? {{ \
               match __i {{ {keyed_arms} _ => {{}} }} \
             }} \
             __d.end_struct()?; {keyed_finish} {ctor} {{ {build} }} \
           }} }}",
        names = names.join(", "),
        build = build.join(", "),
    )
}

/// Block expression that reads a tuple's fields and builds `ctor(..)`.
fn de_tuple(ctor: &str, fields: &[Field]) -> String {
    let mut out = format!("{{ __d.begin_tuple({})?;", fields.len());
    let mut binds = Vec::new();
    for (i, f) in fields.iter().enumerate() {
        let b = binding(f, i);
        write!(
            out,
            "__d.tuple_elem()?; let {b} = ::serde::Deserialize::deserialize(__d)?;"
        )
        .unwrap();
        binds.push(b);
    }
    write!(out, "__d.end_tuple()?; {ctor}({}) }}", binds.join(", ")).unwrap();
    out
}

fn derive_deserialize(item: &Item) -> String {
    reject_container_attrs(&item.attrs, "a container");
    let name = &item.name;
    let body = match &item.body {
        Body::Struct(Shape::Unit) => format!("__d.get_unit()?; ::core::result::Result::Ok({name})"),
        Body::Struct(Shape::Tuple(fields)) if fields.len() == 1 => {
            format!("::core::result::Result::Ok({name}(::serde::Deserialize::deserialize(__d)?))")
        }
        Body::Struct(Shape::Tuple(fields)) => {
            format!("::core::result::Result::Ok({})", de_tuple(name, fields))
        }
        Body::Struct(Shape::Named(fields)) => {
            format!("::core::result::Result::Ok({})", de_named(name, name, fields))
        }
        Body::Enum(variants) => {
            let names: Vec<String> = variants.iter().map(|v| format!("\"{}\"", v.name)).collect();
            let mut arms = String::new();
            for (idx, v) in variants.iter().enumerate() {
                reject_container_attrs(&v.attrs, "a variant");
                let ctor = format!("{name}::{}", v.name);
                let value = match &v.shape {
                    Shape::Unit => ctor,
                    Shape::Tuple(fields) if fields.len() == 1 => {
                        format!("{ctor}(::serde::Deserialize::deserialize(__d)?)")
                    }
                    Shape::Tuple(fields) => de_tuple(&ctor, fields),
                    Shape::Named(fields) => de_named(&v.name, &ctor, fields),
                };
                write!(arms, "{idx}u32 => {value},").unwrap();
            }
            format!(
                "const __VARIANTS: &[&str] = &[{}]; \
                 let __idx = __d.begin_enum(\"{name}\", __VARIANTS)?; \
                 let __value = match __idx {{ {arms} \
                   _ => return ::core::result::Result::Err(\
                     <__D::Error as ::serde::de::Error>::unknown_variant(__idx, \"{name}\")), \
                 }}; \
                 __d.end_enum()?; \
                 ::core::result::Result::Ok(__value)",
                names.join(", ")
            )
        }
    };
    format!(
        "#[automatically_derived] #[allow(unused_variables, unreachable_code, clippy::all)] \
         impl{} ::serde::Deserialize for {name}{} {} {{ \
           fn deserialize<__D: ::serde::Deserializer + ?Sized>(__d: &mut __D) \
             -> ::core::result::Result<Self, __D::Error> {{ {body} }} }}",
        item.impl_generics("::serde::Deserialize"),
        item.ty_generics(),
        item.where_tokens(),
    )
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn serialize(input: TokenStream) -> TokenStream {
    derive_serialize(&parse_item(input))
        .parse()
        .expect("generated Serialize impl parses")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn deserialize(input: TokenStream) -> TokenStream {
    derive_deserialize(&parse_item(input))
        .parse()
        .expect("generated Deserialize impl parses")
}
