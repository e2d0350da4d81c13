//! Offline stand-in for `serde_derive`.
//!
//! The real derive macros are built on `syn`/`quote`, neither of which is
//! available offline, so this parses the item's token stream by hand. It
//! supports exactly the shapes this workspace derives on: non-generic
//! structs (named, tuple, unit) and non-generic enums whose variants are
//! unit, tuple, or struct-like. Generated `Serialize` impls build the
//! `serde::Value` tree.
//!
//! Enum encoding follows serde's externally-tagged default: unit variants
//! render as their name, data variants as `{"Variant": ...}`.

use proc_macro::{Delimiter, TokenStream, TokenTree};
use std::fmt::Write;

enum Fields {
    Unit,
    Named(Vec<String>),
    Tuple(usize),
}

struct Variant {
    name: String,
    fields: Fields,
}

enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});")
        .parse()
        .expect("valid error tokens")
}

/// Skip `#[...]` attributes (including doc comments) starting at `i`.
fn skip_attrs(tokens: &[TokenTree], mut i: usize) -> usize {
    while i + 1 < tokens.len() {
        match (&tokens[i], &tokens[i + 1]) {
            (TokenTree::Punct(p), TokenTree::Group(g))
                if p.as_char() == '#' && g.delimiter() == Delimiter::Bracket =>
            {
                i += 2;
            }
            _ => break,
        }
    }
    i
}

/// Skip a `pub` / `pub(...)` visibility qualifier starting at `i`.
fn skip_visibility(tokens: &[TokenTree], mut i: usize) -> usize {
    if matches!(&tokens[i..], [TokenTree::Ident(id), ..] if id.to_string() == "pub") {
        i += 1;
        if matches!(&tokens[i..], [TokenTree::Group(g), ..] if g.delimiter() == Delimiter::Parenthesis)
        {
            i += 1;
        }
    }
    i
}

/// Starting at `i`, skip tokens until a comma at angle-bracket depth 0;
/// returns the index just past that comma (or `tokens.len()`).
fn skip_past_toplevel_comma(tokens: &[TokenTree], mut i: usize) -> usize {
    let mut depth = 0i32;
    while i < tokens.len() {
        if let TokenTree::Punct(p) = &tokens[i] {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => return i + 1,
                _ => {}
            }
        }
        i += 1;
    }
    i
}

/// Field names of a `{ ... }` struct body / struct variant body.
fn parse_named_fields(group: &proc_macro::Group) -> Result<Vec<String>, String> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut names = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        i = skip_visibility(&tokens, skip_attrs(&tokens, i));
        if i >= tokens.len() {
            break;
        }
        let TokenTree::Ident(name) = &tokens[i] else {
            return Err(format!("expected field name, found `{}`", tokens[i]));
        };
        names.push(name.to_string());
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => return Err(format!("expected `:` after field name, found {other:?}")),
        }
        i = skip_past_toplevel_comma(&tokens, i);
    }
    Ok(names)
}

/// Arity of a `( ... )` tuple struct / tuple variant body.
fn parse_tuple_arity(group: &proc_macro::Group) -> usize {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut arity = 0;
    let mut i = 0;
    while i < tokens.len() {
        arity += 1;
        i = skip_past_toplevel_comma(&tokens, skip_visibility(&tokens, skip_attrs(&tokens, i)));
    }
    arity
}

fn parse_variants(group: &proc_macro::Group) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        i = skip_attrs(&tokens, i);
        if i >= tokens.len() {
            break;
        }
        let TokenTree::Ident(name) = &tokens[i] else {
            return Err(format!("expected variant name, found `{}`", tokens[i]));
        };
        let name = name.to_string();
        i += 1;
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Fields::Named(parse_named_fields(g)?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                Fields::Tuple(parse_tuple_arity(g))
            }
            _ => Fields::Unit,
        };
        variants.push(Variant { name, fields });
        // Skip an explicit discriminant and/or the trailing comma.
        i = skip_past_toplevel_comma(&tokens, i);
    }
    Ok(variants)
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = skip_visibility(&tokens, skip_attrs(&tokens, 0));
    let kind = match &tokens[i..] {
        [TokenTree::Ident(id), ..] if id.to_string() == "struct" || id.to_string() == "enum" => {
            id.to_string()
        }
        other => {
            return Err(format!(
                "expected `struct` or `enum`, found {:?}",
                other.first()
            ))
        }
    };
    i += 1;
    let TokenTree::Ident(name) = &tokens[i] else {
        return Err(format!("expected type name, found `{}`", tokens[i]));
    };
    let name = name.to_string();
    i += 1;
    if matches!(&tokens[i..], [TokenTree::Punct(p), ..] if p.as_char() == '<') {
        return Err(format!(
            "the offline serde_derive shim does not support generic type `{name}`"
        ));
    }
    if kind == "enum" {
        let Some(TokenTree::Group(g)) = tokens.get(i) else {
            return Err("expected enum body".to_string());
        };
        Ok(Item::Enum {
            name,
            variants: parse_variants(g)?,
        })
    } else {
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Fields::Named(parse_named_fields(g)?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Fields::Tuple(parse_tuple_arity(g))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
            None => Fields::Unit,
            other => return Err(format!("unexpected struct body: {other:?}")),
        };
        Ok(Item::Struct { name, fields })
    }
}

/// `Value::Map` literal from `(field, accessor)` pairs.
fn named_fields_expr(names: &[String], accessor: impl Fn(&str) -> String) -> String {
    let mut out = String::from("::serde::Value::Map(::std::vec![");
    for n in names {
        let _ = write!(
            out,
            "(::std::string::String::from({n:?}), ::serde::Serialize::to_value({})),",
            accessor(n)
        );
    }
    out.push_str("])");
    out
}

fn seq_expr(arity: usize, accessor: impl Fn(usize) -> String) -> String {
    let mut out = String::from("::serde::Value::Seq(::std::vec![");
    for idx in 0..arity {
        let _ = write!(out, "::serde::Serialize::to_value({}),", accessor(idx));
    }
    out.push_str("])");
    out
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = match parse_item(input) {
        Ok(item) => item,
        Err(e) => return compile_error(&e),
    };
    let (name, body) = match &item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Unit => "::serde::Value::Null".to_string(),
                Fields::Named(names) => named_fields_expr(names, |n| format!("&self.{n}")),
                Fields::Tuple(arity) => seq_expr(*arity, |i| format!("&self.{i}")),
            };
            (name, body)
        }
        Item::Enum { name, variants } => {
            let mut body = String::from("match self {");
            for v in variants {
                let vn = &v.name;
                match &v.fields {
                    Fields::Unit => {
                        let _ = write!(
                            body,
                            "{name}::{vn} => ::serde::Value::Str(::std::string::String::from({vn:?})),"
                        );
                    }
                    Fields::Named(fields) => {
                        let binds = fields.join(", ");
                        let inner = named_fields_expr(fields, |n| n.to_string());
                        let _ = write!(
                            body,
                            "{name}::{vn} {{ {binds} }} => ::serde::Value::Map(::std::vec![(::std::string::String::from({vn:?}), {inner})]),"
                        );
                    }
                    Fields::Tuple(arity) => {
                        let binds: Vec<String> = (0..*arity).map(|i| format!("__f{i}")).collect();
                        let inner = if *arity == 1 {
                            "::serde::Serialize::to_value(__f0)".to_string()
                        } else {
                            seq_expr(*arity, |i| format!("__f{i}"))
                        };
                        let _ = write!(
                            body,
                            "{name}::{vn}({}) => ::serde::Value::Map(::std::vec![(::std::string::String::from({vn:?}), {inner})]),",
                            binds.join(", ")
                        );
                    }
                }
            }
            body.push('}');
            (name, body)
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
    .parse()
    .expect("generated impl parses")
}
