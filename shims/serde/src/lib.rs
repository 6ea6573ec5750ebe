//! Offline stand-in for `serde`.
//!
//! The build environment has no crates.io access, so the workspace
//! vendors the serialization surface it uses: the [`Serialize`] /
//! [`Deserialize`] traits and their derive macros (re-exported from the
//! sibling `serde_derive` shim when the `derive` feature is on).
//!
//! Unlike real serde's visitor architecture, this shim round-trips
//! values through a self-describing [`Content`] tree; `serde_json` (the
//! sibling shim) renders and parses that tree. The JSON data model
//! matches real serde's conventions so files written by earlier builds
//! remain readable: structs are objects, newtype structs are their inner
//! value, unit enum variants are strings, newtype variants are
//! single-key objects, sequences are arrays, and non-finite floats
//! serialize as `null`.

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

use std::collections::BTreeMap;
use std::collections::HashMap;

/// A self-describing serialized value (the shim's data model).
#[derive(Debug, Clone, PartialEq)]
pub enum Content {
    /// JSON `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Unsigned integer (covers u128 so `Distribution::sum` round-trips).
    U128(u128),
    /// Signed integer.
    I128(i128),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
    /// Sequence.
    Seq(Vec<Content>),
    /// Map with ordered keys (struct fields in declaration order).
    Map(Vec<(String, Content)>),
}

impl Content {
    /// The fields of a map, if this is one.
    pub fn as_map(&self) -> Option<&[(String, Content)]> {
        match self {
            Content::Map(m) => Some(m),
            _ => None,
        }
    }

    /// The elements of a sequence, if this is one.
    pub fn as_seq(&self) -> Option<&[Content]> {
        match self {
            Content::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// The string value, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Content::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one (accepts integral
    /// floats, matching the numeric coercions of the typed impls).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Content::U128(v) => u64::try_from(v).ok(),
            Content::I128(v) => u64::try_from(v).ok(),
            Content::F64(v) if v.fract() == 0.0 && v >= 0.0 => Some(v as u64),
            _ => None,
        }
    }
}

// Identity impls: `Content` is its own serialized form, so generic
// consumers (schema validators, pretty-printers) can parse arbitrary
// JSON via `serde_json::from_str::<Content>` without a typed schema.
impl Serialize for Content {
    fn to_content(&self) -> Content {
        self.clone()
    }
}

impl Deserialize for Content {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        Ok(c.clone())
    }
}

/// Deserialization error: a human-readable description of the mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl DeError {
    /// Builds an error from anything displayable.
    pub fn custom<T: std::fmt::Display>(msg: T) -> Self {
        DeError(msg.to_string())
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deserialization error: {}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Looks up a struct field in a serialized map.
///
/// # Errors
///
/// Returns an error naming the missing field.
pub fn field<'a>(map: &'a [(String, Content)], name: &str) -> Result<&'a Content, DeError> {
    map.iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| DeError(format!("missing field `{name}`")))
}

/// A type that can render itself into a [`Content`] tree.
pub trait Serialize {
    /// Renders `self`.
    fn to_content(&self) -> Content;
}

/// A type that can rebuild itself from a [`Content`] tree.
pub trait Deserialize: Sized {
    /// Rebuilds a value.
    ///
    /// # Errors
    ///
    /// Returns a [`DeError`] describing the first structural mismatch.
    fn from_content(c: &Content) -> Result<Self, DeError>;
}

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Content {
                Content::U128(*self as u128)
            }
        }
        impl Deserialize for $t {
            fn from_content(c: &Content) -> Result<Self, DeError> {
                let err = || DeError(format!(
                    "expected {}, got {c:?}", stringify!($t)
                ));
                match *c {
                    Content::U128(v) => <$t>::try_from(v).map_err(|_| err()),
                    Content::I128(v) => <$t>::try_from(v).map_err(|_| err()),
                    Content::F64(v) if v.fract() == 0.0 && v >= 0.0 => Ok(v as $t),
                    _ => Err(err()),
                }
            }
        }
    )*};
}

impl_uint!(u8, u16, u32, u64, u128, usize);

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Content {
                Content::I128(*self as i128)
            }
        }
        impl Deserialize for $t {
            fn from_content(c: &Content) -> Result<Self, DeError> {
                let err = || DeError(format!(
                    "expected {}, got {c:?}", stringify!($t)
                ));
                match *c {
                    Content::I128(v) => <$t>::try_from(v).map_err(|_| err()),
                    Content::U128(v) => <$t>::try_from(v).map_err(|_| err()),
                    Content::F64(v) if v.fract() == 0.0 => Ok(v as $t),
                    _ => Err(err()),
                }
            }
        }
    )*};
}

impl_int!(i8, i16, i32, i64, i128, isize);

impl Serialize for f64 {
    fn to_content(&self) -> Content {
        Content::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match *c {
            Content::F64(v) => Ok(v),
            Content::U128(v) => Ok(v as f64),
            Content::I128(v) => Ok(v as f64),
            // Real serde_json writes non-finite floats as null; map the
            // reverse direction onto NaN so such points round-trip.
            Content::Null => Ok(f64::NAN),
            _ => Err(DeError(format!("expected f64, got {c:?}"))),
        }
    }
}

impl Serialize for f32 {
    fn to_content(&self) -> Content {
        Content::F64(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        f64::from_content(c).map(|v| v as f32)
    }
}

impl Serialize for bool {
    fn to_content(&self) -> Content {
        Content::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match *c {
            Content::Bool(b) => Ok(b),
            _ => Err(DeError(format!("expected bool, got {c:?}"))),
        }
    }
}

impl Serialize for String {
    fn to_content(&self) -> Content {
        Content::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Str(s) => Ok(s.clone()),
            _ => Err(DeError(format!("expected string, got {c:?}"))),
        }
    }
}

impl Serialize for str {
    fn to_content(&self) -> Content {
        Content::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_content(&self) -> Content {
        Content::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Str(s) if s.chars().count() == 1 => {
                Ok(s.chars().next().expect("guard counted one char"))
            }
            _ => Err(DeError(format!("expected single-char string, got {c:?}"))),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        T::from_content(c).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_content(&self) -> Content {
        match self {
            Some(v) => v.to_content(),
            None => Content::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Null => Ok(None),
            other => T::from_content(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        c.as_seq()
            .ok_or_else(|| DeError(format!("expected sequence, got {c:?}")))?
            .iter()
            .map(T::from_content)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_content(&self) -> Content {
        Content::Seq(vec![self.0.to_content(), self.1.to_content()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c.as_seq() {
            Some([a, b]) => Ok((A::from_content(a)?, B::from_content(b)?)),
            _ => Err(DeError(format!("expected 2-element sequence, got {c:?}"))),
        }
    }
}

impl<K: Serialize + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_content(&self) -> Content {
        Content::Map(
            self.iter()
                .map(|(k, v)| (key_string(&k.to_content()), v.to_content()))
                .collect(),
        )
    }
}

impl<K: Serialize, V: Serialize, S: std::hash::BuildHasher> Serialize for HashMap<K, V, S> {
    fn to_content(&self) -> Content {
        // Sort keys so serialization is deterministic regardless of
        // hasher state — required for byte-identical parallel output.
        let mut entries: Vec<(String, Content)> = self
            .iter()
            .map(|(k, v)| (key_string(&k.to_content()), v.to_content()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Content::Map(entries)
    }
}

fn key_string(c: &Content) -> String {
    match c {
        Content::Str(s) => s.clone(),
        Content::U128(v) => v.to_string(),
        Content::I128(v) => v.to_string(),
        Content::Bool(b) => b.to_string(),
        other => format!("{other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u64::from_content(&42u64.to_content()), Ok(42));
        assert_eq!(i64::from_content(&(-7i64).to_content()), Ok(-7));
        assert_eq!(f64::from_content(&1.5f64.to_content()), Ok(1.5));
        assert_eq!(bool::from_content(&true.to_content()), Ok(true));
        assert_eq!(
            String::from_content(&"hi".to_string().to_content()),
            Ok("hi".to_string())
        );
    }

    #[test]
    fn nan_round_trips_via_null() {
        // Serialization of NaN is the json layer's business (null); the
        // reverse direction is ours.
        assert!(f64::from_content(&Content::Null).unwrap().is_nan());
    }

    #[test]
    fn vec_and_option_round_trip() {
        let v = vec![1u64, 2, 3];
        assert_eq!(Vec::<u64>::from_content(&v.to_content()), Ok(v));
        assert_eq!(Option::<u64>::from_content(&Content::Null), Ok(None));
        assert_eq!(Option::<u64>::from_content(&5u64.to_content()), Ok(Some(5)));
    }

    #[test]
    fn narrowing_is_checked() {
        assert!(u8::from_content(&300u64.to_content()).is_err());
        assert!(u64::from_content(&(-1i64).to_content()).is_err());
    }

    #[test]
    fn field_lookup_reports_missing() {
        let map = vec![("a".to_string(), 1u64.to_content())];
        assert!(field(&map, "a").is_ok());
        let err = field(&map, "b").unwrap_err();
        assert!(err.0.contains("`b`"));
    }
}
