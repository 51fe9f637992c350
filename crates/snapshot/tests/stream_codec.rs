//! The streamed encoder against the tree it replaced: for generated
//! `Value` trees and for derived types of every shape the vendored
//! derive supports, `to_bytes` must produce exactly the bytes of encoding
//! the `to_value()` tree node by node.
//!
//! The reference encoder below is the pre-streaming tree walk, kept here
//! as the oracle only.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use glacsweb_snapshot::{from_bytes, to_bytes, HEADER_LEN};
use proptest::prelude::*;
use proptest::TestRng;
use serde::{Deserialize, Serialize, Value};

/// Encodes `v` the way the tree encoder did: tag byte, then fixed-width
/// little-endian words, floats as raw bits, u64 lengths.
fn encode_tree(v: &Value, out: &mut Vec<u8>) {
    let word = |out: &mut Vec<u8>, tag: u8, w: u64| {
        out.push(tag);
        out.extend_from_slice(&w.to_le_bytes());
    };
    match v {
        Value::Null => out.push(0),
        Value::Bool(false) => out.push(1),
        Value::Bool(true) => out.push(2),
        Value::I64(x) => word(out, 3, *x as u64),
        Value::U64(x) => word(out, 4, *x),
        Value::F64(x) => word(out, 5, x.to_bits()),
        Value::Str(s) => {
            word(out, 6, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Seq(items) => {
            word(out, 7, items.len() as u64);
            for item in items {
                encode_tree(item, out);
            }
        }
        Value::Map(entries) => {
            word(out, 8, entries.len() as u64);
            for (k, val) in entries {
                encode_tree(k, out);
                encode_tree(val, out);
            }
        }
    }
}

/// Asserts that streaming `x` gives the tree encoding of `x.to_value()`,
/// and that the envelope decodes back to a tree that re-encodes the same.
fn assert_stream_matches_tree<T: Serialize>(x: &T) -> Result<(), TestCaseError> {
    let bytes = to_bytes(x);
    let mut tree = Vec::new();
    encode_tree(&x.to_value(), &mut tree);
    prop_assert!(bytes[HEADER_LEN..] == tree[..], "streamed payload differs");
    prop_assert!(bytes == to_bytes(&x.to_value()), "envelope differs");
    let decoded: Value = from_bytes(&bytes).map_err(|e| TestCaseError::fail(e.to_string()))?;
    let mut again = Vec::new();
    encode_tree(&decoded, &mut again);
    prop_assert!(again == tree, "decode/re-encode differs");
    Ok(())
}

/// Floats the models never produce but the codec must carry bit-exactly.
const ODD_FLOATS: [u64; 8] = [
    0x8000_0000_0000_0000, // -0.0
    0x7FF8_0000_0000_0000, // quiet NaN
    0x7FF8_0000_0000_0001, // quiet NaN with payload
    0xFFF0_0000_0000_0001, // signalling NaN, sign set
    0x7FF0_0000_0000_0000, // +inf
    0xFFF0_0000_0000_0000, // -inf
    0x0000_0000_0000_0001, // smallest subnormal
    0x3FF0_0000_0000_0000, // 1.0
];

fn any_f64(rng: &mut TestRng) -> f64 {
    let odd = rng.next_u64();
    match ODD_FLOATS.get((odd % 16) as usize) {
        Some(&bits) => f64::from_bits(bits),
        None => f64::from_bits(rng.next_u64()),
    }
}

fn any_i64(rng: &mut TestRng) -> i64 {
    match rng.next_u64() % 4 {
        0 => -((rng.next_u64() % 1000) as i64) - 1,
        1 => i64::MIN + (rng.next_u64() % 3) as i64,
        _ => rng.next_u64() as i64,
    }
}

fn any_string(rng: &mut TestRng) -> String {
    const ALPHABET: [&str; 8] = ["a", "Z", "_", " ", "é", "\u{1F9CA}", "\"", "\0"];
    let len = rng.next_u64() % 6;
    (0..len)
        .map(|_| ALPHABET[(rng.next_u64() % ALPHABET.len() as u64) as usize])
        .collect()
}

fn small_len(rng: &mut TestRng) -> usize {
    (rng.next_u64() % 5) as usize
}

/// Generated `Value` trees up to a fixed depth.
struct AnyValue {
    depth: u32,
}

impl AnyValue {
    fn draw(&self, rng: &mut TestRng, depth: u32) -> Value {
        let leaf_only = depth >= self.depth;
        match rng.next_u64() % if leaf_only { 6 } else { 8 } {
            0 => Value::Null,
            1 => Value::Bool(rng.next_u64() & 1 == 1),
            2 => Value::I64(any_i64(rng)),
            3 => Value::U64(rng.next_u64()),
            4 => Value::F64(any_f64(rng)),
            5 => Value::Str(any_string(rng)),
            6 => Value::Seq(
                (0..small_len(rng))
                    .map(|_| self.draw(rng, depth + 1))
                    .collect(),
            ),
            _ => Value::Map(
                (0..small_len(rng))
                    .map(|_| (self.draw(rng, depth + 1), self.draw(rng, depth + 1)))
                    .collect(),
            ),
        }
    }
}

impl Strategy for AnyValue {
    type Value = Value;
    fn sample(&self, rng: &mut TestRng) -> Value {
        self.draw(rng, 0)
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Meters(f64);

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Triple(u8, i16, char);

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Marker;

#[derive(Debug, Clone, Serialize, Deserialize)]
enum Shape {
    Unit,
    Newtype(i32),
    Pair(i64, f32),
    Named { id: u16, label: String, bias: f64 },
    Nested(Box<Shape>),
    Empty {},
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Record {
    shapes: Vec<Shape>,
    present: Option<Meters>,
    absent: Option<Triple>,
    triple: Triple,
    by_name: BTreeMap<String, i64>,
    by_key: BTreeMap<u32, Vec<Shape>>,
    hashed: HashMap<u8, bool>,
    marker: Marker,
    tuple: (i8, u64, bool, isize),
    floats: Vec<f64>,
    narrow: Vec<f32>,
    set: BTreeSet<i32>,
    deque: VecDeque<Option<i64>>,
    array: [u16; 3],
    unit: (),
    words: (usize, u8, u16, u32, i32),
}

fn any_shape(rng: &mut TestRng, depth: u32) -> Shape {
    match rng.next_u64() % if depth > 2 { 5 } else { 6 } {
        0 => Shape::Unit,
        1 => Shape::Newtype(any_i64(rng) as i32),
        2 => Shape::Pair(any_i64(rng), any_f64(rng) as f32),
        3 => Shape::Named {
            id: rng.next_u64() as u16,
            label: any_string(rng),
            bias: any_f64(rng),
        },
        4 => Shape::Empty {},
        _ => Shape::Nested(Box::new(any_shape(rng, depth + 1))),
    }
}

struct AnyRecord;

impl Strategy for AnyRecord {
    type Value = Record;
    fn sample(&self, rng: &mut TestRng) -> Record {
        let shapes = |rng: &mut TestRng| -> Vec<Shape> {
            (0..small_len(rng)).map(|_| any_shape(rng, 0)).collect()
        };
        Record {
            shapes: shapes(rng),
            present: Some(Meters(any_f64(rng))),
            absent: None,
            triple: Triple(rng.next_u64() as u8, any_i64(rng) as i16, 'ß'),
            by_name: (0..small_len(rng))
                .map(|_| (any_string(rng), any_i64(rng)))
                .collect(),
            by_key: (0..small_len(rng))
                .map(|_| (rng.next_u64() as u32, shapes(rng)))
                .collect(),
            hashed: (0..small_len(rng))
                .map(|_| (rng.next_u64() as u8, rng.next_u64() & 1 == 1))
                .collect(),
            marker: Marker,
            tuple: (
                any_i64(rng) as i8,
                rng.next_u64(),
                rng.next_u64() & 1 == 0,
                any_i64(rng) as isize,
            ),
            floats: (0..small_len(rng)).map(|_| any_f64(rng)).collect(),
            narrow: (0..small_len(rng)).map(|_| any_f64(rng) as f32).collect(),
            set: (0..small_len(rng)).map(|_| any_i64(rng) as i32).collect(),
            deque: (0..small_len(rng))
                .map(|_| (rng.next_u64() & 1 == 1).then(|| any_i64(rng)))
                .collect(),
            array: [rng.next_u64() as u16, 0, u16::MAX],
            unit: (),
            words: (
                rng.next_u64() as usize,
                rng.next_u64() as u8,
                rng.next_u64() as u16,
                rng.next_u64() as u32,
                any_i64(rng) as i32,
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn value_trees_stream_as_they_encode(v in AnyValue { depth: 4 }) {
        assert_stream_matches_tree(&v)?;
    }

    #[test]
    fn derived_shapes_stream_as_their_trees_encode(r in AnyRecord) {
        assert_stream_matches_tree(&r)?;
        for shape in &r.shapes {
            assert_stream_matches_tree(shape)?;
        }
        assert_stream_matches_tree(&r.triple)?;
        assert_stream_matches_tree(&r.present)?;
    }
}

#[test]
fn scalars_keep_their_tree_variants() {
    // Non-negative signed integers travel as U64 and f32 widens to f64,
    // as in `to_value`; pin the tag bytes so a drift in both paths at
    // once is still caught.
    let tag = |x: &dyn Fn() -> Vec<u8>| x()[HEADER_LEN];
    assert_eq!(tag(&|| to_bytes(&5i32)), 4);
    assert_eq!(tag(&|| to_bytes(&-5i32)), 3);
    assert_eq!(tag(&|| to_bytes(&1.5f32)), 5);
    assert_eq!(tag(&|| to_bytes(&'x')), 6);
    assert_eq!(tag(&|| to_bytes(&Marker)), 0);
    assert_eq!(tag(&|| to_bytes(&Shape::Unit)), 6);
    assert_eq!(tag(&|| to_bytes(&Shape::Newtype(1))), 8);
    for bits in ODD_FLOATS {
        let bytes = to_bytes(&f64::from_bits(bits));
        assert_eq!(bytes[HEADER_LEN + 1..], bits.to_le_bytes());
    }
}
