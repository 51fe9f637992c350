//! Derived state: memo fields that snapshots and equality never see.

use std::ops::{Deref, DerefMut};

use serde::{de, Deserialize, Serialize, Sink, Source, Value};

/// A memo or cache: state that is a pure function of the rest of its
/// owner and refills bit-identically on first use.
///
/// Glacsweb stations survive a total power loss by keeping only what
/// cannot be recomputed; checkpoints make the same split, and this
/// wrapper is how a field declares itself on the recomputable side:
///
/// * `PartialEq` is always `true`, so a filled memo never makes two
///   otherwise-equal models differ (a restored model equals the one it
///   was saved from);
/// * it serializes as `null` — both as a tree and streamed;
/// * it deserializes from *any* well-formed value to `T::default()`,
///   skipping the value without building it.
///
/// Reads and writes go through `Deref`/`DerefMut`.
///
/// # Example
///
/// ```
/// use std::cell::Cell;
///
/// use glacsweb_sim::Derived;
/// use serde::{Serialize, Value};
///
/// let filled: Derived<Cell<u64>> = Derived::default();
/// filled.set(42);
/// assert_eq!(filled.get(), 42);
/// assert_eq!(filled.to_value(), Value::Null);
/// assert!(filled == Derived::default());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Derived<T>(T);

impl<T> Deref for Derived<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for Derived<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

impl<T> PartialEq for Derived<T> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl<T> Serialize for Derived<T> {
    fn to_value(&self) -> Value {
        Value::Null
    }

    fn stream_to<S: Sink + ?Sized>(&self, sink: &mut S) {
        sink.null();
    }
}

impl<T: Default> Deserialize for Derived<T> {
    fn from_value(_: &Value) -> Result<Self, de::Error> {
        Ok(Derived::default())
    }

    fn stream_from<S: Source + ?Sized>(src: &mut S) -> Result<Self, de::Error> {
        src.skip()?;
        Ok(Derived::default())
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use glacsweb_snapshot::{crc32, from_bytes, to_bytes, HEADER_LEN, MAGIC, SCHEMA_VERSION};
    use proptest::prelude::*;

    use super::*;

    /// A memo shaped like the real ones: interior-mutable and filled by
    /// a read path.
    #[derive(Debug, Default, PartialEq)]
    struct Memo {
        key: Cell<u64>,
        values: Vec<f64>,
    }

    fn filled(key: u64, values: Vec<f64>) -> Derived<Memo> {
        let mut memo = Derived::<Memo>::default();
        memo.key.set(key);
        memo.values = values;
        memo
    }

    /// Wraps `payload` in a snapshot envelope with a valid length and
    /// checksum, so only the payload's own structure is on trial.
    fn seal(payload: &[u8]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// The streamed decode against the tree decode of the same bytes:
    /// `Ok(inner is default)` or the error message.
    fn decode_both(bytes: &[u8]) -> (Result<bool, String>, Result<bool, String>) {
        let is_default = |d: Derived<Memo>| *d == Memo::default();
        let streamed = from_bytes::<Derived<Memo>>(bytes)
            .map(is_default)
            .map_err(|e| e.to_string());
        let tree = from_bytes::<Value>(bytes)
            .map_err(|e| e.to_string())
            .and_then(|v| Derived::<Memo>::from_value(&v).map_err(|e| e.to_string()))
            .map(is_default);
        (streamed, tree)
    }

    #[test]
    fn a_filled_memo_equals_an_empty_one() {
        assert_eq!(filled(7, vec![1.0, 2.0]), Derived::default());
        // Also through an owner's derived PartialEq.
        #[derive(Debug, PartialEq)]
        struct Owner {
            state: u32,
            memo: Derived<Memo>,
        }
        let a = Owner {
            state: 3,
            memo: filled(9, vec![4.0]),
        };
        let b = Owner {
            state: 3,
            memo: Derived::default(),
        };
        assert_eq!(a, b);
        assert_ne!(a, Owner { state: 4, ..b });
    }

    #[test]
    fn derived_is_copy_when_the_memo_is() {
        let mut a = Derived::<(u64, f64)>::default();
        *a = (1, 2.0);
        let b = a;
        assert_eq!(*a, *b);
    }

    proptest! {
        /// Whatever the memo holds, the wire sees a single `null`.
        #[test]
        fn serializes_as_a_single_null(
            key in any::<u64>(),
            values in proptest::collection::vec(-1e9f64..1e9, 0..16),
        ) {
            let memo = filled(key, values);
            prop_assert_eq!(memo.to_value(), Value::Null);
            prop_assert_eq!(to_bytes(&memo), to_bytes(&Value::Null));
        }

        /// Any well-formed value decodes to the default memo, on both
        /// decode paths.
        #[test]
        fn any_well_formed_value_restores_the_default(
            n in any::<u64>(),
            items in proptest::collection::vec(0u64..1_000, 0..8),
            pick in 0u8..4,
        ) {
            let value = match pick {
                0 => Value::U64(n),
                1 => Value::Str(format!("memo {n}")),
                2 => Value::Seq(items.iter().map(|&i| Value::U64(i)).collect()),
                _ => Value::Map(
                    items
                        .iter()
                        .map(|&i| (Value::Str(format!("k{i}")), Value::Seq(vec![Value::F64(i as f64)])))
                        .collect(),
                ),
            };
            let bytes = to_bytes(&value);
            prop_assert_eq!(decode_both(&bytes), (Ok(true), Ok(true)));
        }

        /// Resealed payloads with one byte overwritten: the streamed and
        /// the tree decode agree, error messages included.
        #[test]
        fn streamed_and_tree_decode_agree_on_corrupted_input(
            items in proptest::collection::vec(0u64..1_000, 1..8),
            at in 0usize..1_000,
            byte in any::<u8>(),
        ) {
            let value = Value::Map(vec![(
                Value::Str("memo".into()),
                Value::Seq(items.iter().map(|&i| Value::U64(i)).collect()),
            )]);
            let mut payload = to_bytes(&value).split_off(HEADER_LEN);
            let at = at % payload.len();
            payload[at] = byte;
            let (streamed, tree) = decode_both(&seal(&payload));
            prop_assert_eq!(streamed, tree);
        }
    }
}
