//! Offline stand-in for the `serde` crate.
//!
//! The real serde's visitor architecture is far more than this workspace
//! needs: types here only ever derive `Serialize` and get written out as
//! JSON. So [`Serialize`] converts straight into a self-describing [`Value`]
//! tree (miniserde style), the derive macro in `serde_derive` generates
//! that conversion, and `serde_json` renders the tree. There is no
//! `Deserialize`: the few types read back in (the sweep request and wire
//! protocol) parse themselves from a `Value` with strict hand-written
//! `from_value` functions.

pub use serde_derive::Serialize;

/// A self-describing serialized tree (JSON data model).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// Unsigned integers.
    U64(u64),
    /// Signed integers that don't fit the unsigned arm.
    I64(i64),
    F64(f64),
    Str(String),
    Seq(Vec<Value>),
    /// Field order is preserved (declaration order for derived structs).
    Map(Vec<(String, Value)>),
}

/// Conversion into a [`Value`] tree.
pub trait Serialize {
    fn to_value(&self) -> Value;
}

macro_rules! impl_serialize_unsigned {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
    )*};
}

macro_rules! impl_serialize_signed {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn to_value(&self) -> Value {
                let v = *self as i64;
                if v >= 0 { Value::U64(v as u64) } else { Value::I64(v) }
            }
        }
    )*};
}

impl_serialize_unsigned!(u8, u16, u32, u64, usize);
impl_serialize_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(f64::from(*self))
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for () {
    fn to_value(&self) -> Value {
        Value::Null
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for std::collections::VecDeque<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

macro_rules! impl_serialize_tuple {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                Value::Seq(vec![$($name.to_value()),+])
            }
        }
    )*};
}

impl_serialize_tuple! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
}

/// Map keys must render as strings in the JSON data model.
pub trait SerializeKey {
    fn to_key(&self) -> String;
}

impl SerializeKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
}

impl SerializeKey for str {
    fn to_key(&self) -> String {
        self.to_owned()
    }
}

impl<T: SerializeKey + ?Sized> SerializeKey for &T {
    fn to_key(&self) -> String {
        (**self).to_key()
    }
}

macro_rules! impl_key_display {
    ($($ty:ty),*) => {$(
        impl SerializeKey for $ty {
            fn to_key(&self) -> String {
                self.to_string()
            }
        }
    )*};
}

impl_key_display!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool, char);

impl<A: SerializeKey, B: SerializeKey> SerializeKey for (A, B) {
    /// Composite keys render as `"a/b"` (JSON object keys must be strings).
    fn to_key(&self) -> String {
        format!("{}/{}", self.0.to_key(), self.1.to_key())
    }
}

impl<K: SerializeKey, V: Serialize> Serialize for std::collections::HashMap<K, V> {
    fn to_value(&self) -> Value {
        // Sort for stable output: HashMap iteration order is unspecified.
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.to_key(), v.to_value()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Map(entries)
    }
}

impl<K: SerializeKey, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (k.to_key(), v.to_value()))
                .collect(),
        )
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_map_to_expected_arms() {
        assert_eq!(5u32.to_value(), Value::U64(5));
        assert_eq!((-3i64).to_value(), Value::I64(-3));
        assert_eq!(7i64.to_value(), Value::U64(7));
        assert_eq!(true.to_value(), Value::Bool(true));
        assert_eq!("hi".to_value(), Value::Str("hi".into()));
        assert_eq!(Option::<u8>::None.to_value(), Value::Null);
    }

    #[test]
    fn collections_nest() {
        let v = vec![1u8, 2, 3].to_value();
        assert_eq!(
            v,
            Value::Seq(vec![Value::U64(1), Value::U64(2), Value::U64(3)])
        );
        let mut m = std::collections::BTreeMap::new();
        m.insert("a".to_string(), 1u8);
        assert_eq!(m.to_value(), Value::Map(vec![("a".into(), Value::U64(1))]));
    }
}
