//! Offline stand-in for `serde_derive`.
//!
//! Derives the serde shim's [`Serialize`]/[`Deserialize`] traits by
//! parsing the item's token stream directly (the build environment has
//! no registry access, so `syn`/`quote` are unavailable). The JSON it
//! yields is what real serde derives for the same declaration. Supports
//! exactly these shapes:
//!
//! * structs with named fields → JSON objects, fields in declaration
//!   order;
//! * newtype structs (`struct NodeId(u16)`) → their inner value;
//! * tuple structs → arrays;
//! * unit structs → `null`;
//! * enums with unit variants → variant-name strings;
//! * enums with newtype variants (`Port::Dir(Direction)`) →
//!   single-key objects;
//! * internally tagged enums (`#[serde(tag = "cmd")]`) with unit and
//!   struct variants → one object, the tag first, then the variant's
//!   fields (`{"cmd":"fetch","keys":[…]}`).
//!
//! and exactly these `#[serde(...)]` attributes:
//!
//! * container `tag = "name"` (enums only);
//! * container `rename_all = "snake_case"` (`GcDone` → `"gc_done"`; a
//!   no-op on fields, which are snake case already);
//! * field `default`: a missing key decodes as `Default::default()`;
//! * field `skip_serializing_if = "path"`: the field is left out when
//!   `path(&field)` is true;
//! * field `flatten`: the field's map is merged into the parent's, and
//!   the field decodes from the parent's whole map.
//!
//! Decoding ignores keys the type does not name. Generics, tuple
//! variants of more than one field, struct variants outside a tagged
//! enum, newtype variants inside one, and every other attribute key or
//! value are rejected with a compile error.

use proc_macro::{Delimiter, TokenStream, TokenTree};
use std::iter::Peekable;

/// The parsed shape of a derive target.
enum Shape {
    NamedStruct { fields: Vec<Field> },
    TupleStruct { arity: usize },
    UnitStruct,
    Enum { variants: Vec<Variant> },
}

/// A derive target: its name, container attributes and shape.
struct Item {
    name: String,
    /// `tag = "…"`: the enum is internally tagged by this key.
    tag: Option<String>,
    /// `rename_all = "snake_case"`.
    snake_case: bool,
    shape: Shape,
}

/// A named field with its attributes.
struct Field {
    name: String,
    default: bool,
    skip_serializing_if: Option<String>,
    flatten: bool,
}

struct Variant {
    name: String,
    payload: Payload,
}

enum Payload {
    Unit,
    Newtype,
    Struct(Vec<Field>),
}

impl Item {
    /// The name `variant` has in JSON.
    fn wire_name(&self, variant: &Variant) -> String {
        if !self.snake_case {
            return variant.name.clone();
        }
        let mut out = String::new();
        for (i, ch) in variant.name.chars().enumerate() {
            if ch.is_uppercase() && i > 0 {
                out.push('_');
            }
            out.extend(ch.to_lowercase());
        }
        out
    }
}

/// Statements pushing `fields` onto `__map`; `access(f)` is a
/// reference to field `f`.
fn push_fields(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let mut out = String::new();
    for f in fields {
        let (n, a) = (&f.name, access(&f.name));
        let push = if f.flatten {
            format!("match ::serde::Serialize::to_content({a}) {{ ::serde::Content::Map(m) => __map.extend(m), _ => panic!(\"can only flatten maps (`{n}`)\") }}")
        } else {
            format!("__map.push((\"{n}\".to_string(), ::serde::Serialize::to_content({a})));")
        };
        match &f.skip_serializing_if {
            Some(path) => out += &format!("if !{path}({}) {{ {push} }}", access(&f.name)),
            None => out += &push,
        }
    }
    out
}

/// `name: value` initialisers decoding `fields` out of `map`.
fn field_inits(fields: &[Field]) -> String {
    let inits: Vec<String> = fields
        .iter()
        .map(|f| {
            let n = &f.name;
            if f.flatten {
                format!("{n}: ::serde::Deserialize::from_content(c)?")
            } else if f.default {
                format!(
                    "{n}: ::serde::field(map, \"{n}\").ok().map(::serde::Deserialize::from_content)\
                     .transpose()?.unwrap_or_default()"
                )
            } else {
                format!("{n}: ::serde::Deserialize::from_content(::serde::field(map, \"{n}\")?)?")
            }
        })
        .collect();
    inits.join(", ")
}

/// Derives the serde shim's `Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let name = &item.name;
    let body = match &item.shape {
        Shape::NamedStruct { fields } => format!(
            "let mut __map = Vec::with_capacity({});\n{}\n::serde::Content::Map(__map)",
            fields.len(),
            push_fields(fields, |f| format!("&self.{f}"))
        ),
        Shape::TupleStruct { arity: 1 } => "::serde::Serialize::to_content(&self.0)".to_string(),
        Shape::TupleStruct { arity } => {
            let elems: Vec<String> = (0..*arity)
                .map(|i| format!("::serde::Serialize::to_content(&self.{i})"))
                .collect();
            format!("::serde::Content::Seq(vec![{}])", elems.join(", "))
        }
        Shape::UnitStruct => "::serde::Content::Null".to_string(),
        Shape::Enum { variants } => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let (vname, wire) = (&v.name, item.wire_name(v));
                    let str_of = format!("::serde::Content::Str(\"{wire}\".to_string())");
                    match (&item.tag, &v.payload) {
                        (None, Payload::Unit) => format!("{name}::{vname} => {str_of}"),
                        (None, _) => format!(
                            "{name}::{vname}(inner) => ::serde::Content::Map(vec![(\"{wire}\".to_string(), ::serde::Serialize::to_content(inner))])"
                        ),
                        (Some(tag), payload) => {
                            let fields: &[Field] = match payload {
                                Payload::Struct(fields) => fields,
                                _ => &[],
                            };
                            let names: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                            format!(
                                "{name}::{vname} {{ {} }} => {{\n\
                                 let mut __map = Vec::with_capacity({});\n\
                                 __map.push((\"{tag}\".to_string(), {str_of}));\n{}\n\
                                 ::serde::Content::Map(__map)\n}}",
                                names.join(", "),
                                fields.len() + 1,
                                push_fields(fields, str::to_string)
                            )
                        }
                    }
                })
                .collect();
            format!("match self {{ {} }}", arms.join(",\n"))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn to_content(&self) -> ::serde::Content {{ {body} }}\n\
         }}"
    )
    .parse()
    .expect("generated Serialize impl parses")
}

/// Derives the serde shim's `Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let name = &item.name;
    let as_map = format!(
        "let map = c.as_map().ok_or_else(|| ::serde::DeError::custom(\
         \"expected map for {name}\"))?;"
    );
    let body = match &item.shape {
        Shape::NamedStruct { fields } => {
            format!("{as_map}\nOk({name} {{ {} }})", field_inits(fields))
        }
        Shape::TupleStruct { arity: 1 } => {
            format!("Ok({name}(::serde::Deserialize::from_content(c)?))")
        }
        Shape::TupleStruct { arity } => {
            let elems: Vec<String> = (0..*arity)
                .map(|i| format!("::serde::Deserialize::from_content(&seq[{i}])?"))
                .collect();
            format!(
                "let seq = c.as_seq().ok_or_else(|| ::serde::DeError::custom(\
                 \"expected sequence for {name}\"))?;\n\
                 if seq.len() != {arity} {{\n\
                 return Err(::serde::DeError::custom(\"wrong arity for {name}\"));\n\
                 }}\n\
                 Ok({name}({}))",
                elems.join(", ")
            )
        }
        Shape::UnitStruct => format!("Ok({name})"),
        Shape::Enum { variants } => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    let (vname, wire) = (&v.name, item.wire_name(v));
                    match (&item.tag, &v.payload) {
                        (Some(_), Payload::Struct(fields)) => format!(
                            "Some(\"{wire}\") => Ok({name}::{vname} {{ {} }}),\n",
                            field_inits(fields)
                        ),
                        (Some(_), _) => format!("Some(\"{wire}\") => Ok({name}::{vname}),\n"),
                        (None, Payload::Unit) => format!("(\"{wire}\", None) => Ok({name}::{vname}),\n"),
                        (None, _) => format!("(\"{wire}\", Some(v)) => Ok({name}::{vname}(::serde::Deserialize::from_content(v)?)),\n"),
                    }
                })
                .collect();
            match &item.tag {
                Some(tag) => format!(
                    "{as_map}\nmatch ::serde::field(map, \"{tag}\")?.as_str() {{\n{arms}\
                     Some(other) => Err(::serde::DeError::custom(format!(\"unknown {tag} `{{other}}`\"))),\n\
                     None => Err(::serde::DeError::custom(\"`{tag}` must be a string\")),\n}}"
                ),
                None => format!(
                    "let variant = match c {{\n\
                     ::serde::Content::Str(s) => (s.as_str(), None),\n\
                     ::serde::Content::Map(m) if m.len() == 1 => (m[0].0.as_str(), Some(&m[0].1)),\n\
                     _ => (\"\", None),\n\
                     }};\n\
                     match variant {{\n{arms}\
                     _ => Err(::serde::DeError::custom(format!(\"no variant of {name} matches {{c:?}}\"))),\n}}"
                ),
            }
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn from_content(c: &::serde::Content) -> Result<Self, ::serde::DeError> {{\n\
         {body}\n\
         }}\n\
         }}"
    )
    .parse()
    .expect("generated Deserialize impl parses")
}

/// Parses the derive input into an [`Item`], panicking (compile error)
/// on unsupported constructs.
fn parse_item(input: TokenStream) -> Item {
    let mut toks = input.into_iter().peekable();
    let (mut tag, mut snake_case) = (None, false);
    for (key, value) in take_attributes(&mut toks) {
        match (key.as_str(), value) {
            ("tag", Some(v)) => tag = Some(v),
            ("rename_all", Some(v)) if v == "snake_case" => snake_case = true,
            (k, v) => panic!("unsupported container attribute #[serde({k} = {v:?})]"),
        }
    }
    let kind = match toks.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("expected `struct` or `enum`, got {other:?}"),
    };
    let name = match toks.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("expected item name, got {other:?}"),
    };
    if matches!(&toks.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("the serde shim derive does not support generic types ({name})");
    }
    let shape = match (kind.as_str(), toks.next()) {
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Shape::NamedStruct {
                fields: parse_named_fields(g.stream()),
            }
        }
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Parenthesis => {
            Shape::TupleStruct {
                arity: count_top_level_fields(g.stream()),
            }
        }
        ("struct", Some(TokenTree::Punct(p))) if p.as_char() == ';' => Shape::UnitStruct,
        ("enum", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => Shape::Enum {
            variants: parse_variants(g.stream(), tag.is_some()),
        },
        (k, other) => panic!("unsupported {k} shape for {name}: {other:?}"),
    };
    if tag.is_some() && !matches!(shape, Shape::Enum { .. }) {
        panic!("#[serde(tag)] is supported on enums only ({name})");
    }
    Item {
        name,
        tag,
        snake_case,
        shape,
    }
}

/// Consumes the attributes and visibility in front of an item, field or
/// variant, returning the `#[serde(key)]` / `#[serde(key = "value")]`
/// entries among them (other attributes, doc comments included, are
/// skipped).
fn take_attributes(
    toks: &mut Peekable<impl Iterator<Item = TokenTree>>,
) -> Vec<(String, Option<String>)> {
    let mut entries = Vec::new();
    loop {
        match toks.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                toks.next();
                let Some(TokenTree::Group(body)) = toks.next() else {
                    panic!("expected an attribute body after `#`");
                };
                let mut inner = body.stream().into_iter();
                if !matches!(inner.next(), Some(TokenTree::Ident(i)) if i.to_string() == "serde") {
                    continue;
                }
                let Some(TokenTree::Group(list)) = inner.next() else {
                    panic!("expected #[serde(...)]");
                };
                let mut list = list.stream().into_iter().peekable();
                while let Some(key) = list.next() {
                    let mut value = None;
                    if matches!(list.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
                        let lit = list.nth(1).map(|t| t.to_string()).unwrap_or_default();
                        let unquoted = lit.strip_prefix('"').and_then(|l| l.strip_suffix('"'));
                        value = Some(
                            unquoted
                                .unwrap_or_else(|| panic!("#[serde({key} = {lit})] wants a string"))
                                .to_string(),
                        );
                    }
                    entries.push((key.to_string(), value));
                    // The separating comma.
                    list.next();
                }
            }
            Some(TokenTree::Ident(i)) if i.to_string() == "pub" => {
                toks.next();
                if matches!(toks.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    toks.next();
                }
            }
            _ => return entries,
        }
    }
}

/// Extracts named fields and their attributes from a brace body.
fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut toks = stream.into_iter().peekable();
    loop {
        let attrs = take_attributes(&mut toks);
        let Some(TokenTree::Ident(name)) = toks.next() else {
            break;
        };
        let mut field = Field {
            name: name.to_string(),
            default: false,
            skip_serializing_if: None,
            flatten: false,
        };
        for (key, value) in attrs {
            match (key.as_str(), value) {
                ("default", None) => field.default = true,
                ("skip_serializing_if", Some(path)) => field.skip_serializing_if = Some(path),
                ("flatten", None) => field.flatten = true,
                (k, v) => panic!("unsupported field attribute #[serde({k} = {v:?})] on `{name}`"),
            }
        }
        fields.push(field);
        match toks.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("expected `:` after field `{name}`, got {other:?}"),
        }
        // Skip the type up to the next comma outside angle brackets
        // (token trees keep (), [] and {} grouped, but not <>).
        let mut angle_depth = 0i32;
        for t in toks.by_ref() {
            match t {
                TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => break,
                _ => {}
            }
        }
    }
    fields
}

/// Counts comma-separated fields at the top level of a tuple body.
fn count_top_level_fields(stream: TokenStream) -> usize {
    let mut count = 0;
    let mut saw_token = false;
    let mut angle_depth = 0i32;
    for t in stream {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                count += 1;
                saw_token = false;
                continue;
            }
            _ => {}
        }
        saw_token = true;
    }
    count + usize::from(saw_token)
}

/// Parses enum variants (discriminants are skipped): unit and newtype
/// variants, and struct variants when the enum is `tagged`.
fn parse_variants(stream: TokenStream, tagged: bool) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut toks = stream.into_iter().peekable();
    loop {
        let attrs = take_attributes(&mut toks);
        let Some(TokenTree::Ident(vname)) = toks.next() else {
            break;
        };
        if let Some((key, _)) = attrs.first() {
            panic!("unsupported variant attribute #[serde({key})] on {vname}");
        }
        let payload = match toks.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                match count_top_level_fields(g.stream()) {
                    1 if !tagged => Payload::Newtype,
                    1 => panic!("newtype variant {vname} inside a tagged enum is not supported"),
                    n => panic!("variant {vname} has {n} fields; only unit and newtype variants are supported"),
                }
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                if !tagged {
                    panic!("struct variant {vname} needs #[serde(tag = \"...\")] on its enum");
                }
                Payload::Struct(parse_named_fields(g.stream()))
            }
            _ => Payload::Unit,
        };
        // Skip the payload, a `= discriminant` and the trailing comma.
        for t in toks.by_ref() {
            if matches!(&t, TokenTree::Punct(p) if p.as_char() == ',') {
                break;
            }
        }
        variants.push(Variant {
            name: vname.to_string(),
            payload,
        });
    }
    variants
}
