//! The streamed codec against the tree it replaced, for generated
//! `Value` trees and for derived types of every shape the vendored
//! derive supports:
//!
//! * `to_bytes` must produce exactly the bytes of encoding the
//!   `to_value()` tree node by node;
//! * `from_bytes` must decode exactly what the pre-streaming tree decoder
//!   decodes, failing with the same message where it fails;
//! * a typed `from_bytes` must return what `from_value` returns for the
//!   decoded tree — also for maps with reordered, duplicated, unknown,
//!   missing or ill-typed entries, where the error reported first must be
//!   the one `de::field` extraction in declaration order reports.
//!
//! The reference encoder and decoder below are the pre-streaming tree
//! walks, kept here as oracles only.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use glacsweb_snapshot::{crc32, from_bytes, to_bytes, SnapshotError, HEADER_LEN};
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

/// Decodes a payload the way the tree decoder did: one recursive pass
/// building the `Value`, with the same checks and messages.
fn decode_tree(payload: &[u8]) -> Result<Value, String> {
    fn take<'a>(p: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], String> {
        let end = pos
            .checked_add(n)
            .ok_or_else(|| format!("length overflow at offset {pos}"))?;
        let slice = p.get(*pos..end).ok_or_else(|| {
            format!(
                "payload ends at {} but a value at {pos} needs {n} more bytes",
                p.len()
            )
        })?;
        *pos = end;
        Ok(slice)
    }
    fn word(p: &[u8], pos: &mut usize) -> Result<u64, String> {
        let mut w = [0u8; 8];
        w.copy_from_slice(take(p, pos, 8)?);
        Ok(u64::from_le_bytes(w))
    }
    fn len(p: &[u8], pos: &mut usize, min: u64) -> Result<usize, String> {
        let n = word(p, pos)?;
        let remaining = (p.len() - *pos) as u64;
        if n.saturating_mul(min) > remaining {
            return Err(format!(
                "collection claims {n} elements but only {remaining} payload bytes remain"
            ));
        }
        usize::try_from(n).map_err(|_| format!("collection length {n} exceeds the address space"))
    }
    fn value(p: &[u8], pos: &mut usize, depth: u32) -> Result<Value, String> {
        if depth > 128 {
            return Err("value tree deeper than 128 levels".to_string());
        }
        Ok(match take(p, pos, 1)?[0] {
            0 => Value::Null,
            1 => Value::Bool(false),
            2 => Value::Bool(true),
            3 => Value::I64(word(p, pos)? as i64),
            4 => Value::U64(word(p, pos)?),
            5 => Value::F64(f64::from_bits(word(p, pos)?)),
            6 => {
                let n = len(p, pos, 1)?;
                let s = std::str::from_utf8(take(p, pos, n)?)
                    .map_err(|e| format!("string is not UTF-8: {e}"))?;
                Value::Str(s.to_string())
            }
            7 => {
                let n = len(p, pos, 1)?;
                let mut items = Vec::new();
                for _ in 0..n {
                    items.push(value(p, pos, depth + 1)?);
                }
                Value::Seq(items)
            }
            8 => {
                let n = len(p, pos, 2)?;
                let mut entries = Vec::new();
                for _ in 0..n {
                    let k = value(p, pos, depth + 1)?;
                    entries.push((k, value(p, pos, depth + 1)?));
                }
                Value::Map(entries)
            }
            other => return Err(format!("unknown value tag {other} at offset {}", *pos - 1)),
        })
    }
    let mut pos = 0;
    let v = value(payload, &mut pos, 0)?;
    if pos != payload.len() {
        return Err(format!(
            "{} payload bytes left over after the root value",
            payload.len() - pos
        ));
    }
    Ok(v)
}

/// A payload sealed in a valid envelope.
fn seal(payload: &[u8]) -> Vec<u8> {
    let mut bytes = to_bytes(&());
    bytes.truncate(HEADER_LEN);
    bytes[12..20].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes[20..24].copy_from_slice(&crc32(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// The tree path for `T`: the oracle decoder, then `from_value`, with
/// structural faults reported as `Malformed` ahead of typed errors.
fn tree_path<T: Deserialize>(payload: &[u8]) -> Result<T, String> {
    let tree = decode_tree(payload).map_err(|e| format!("Malformed: {e}"))?;
    T::from_value(&tree).map_err(|e| format!("Invalid: {e}"))
}

/// `from_bytes::<T>` on a sealed `payload`, errors in `tree_path`'s form.
fn stream_path<T: Deserialize>(payload: &[u8]) -> Result<T, String> {
    from_bytes::<T>(&seal(payload)).map_err(|e| match e {
        SnapshotError::Malformed(m) => format!("Malformed: {m}"),
        SnapshotError::Invalid(m) => format!("Invalid: {m}"),
        other => format!("unexpected envelope error: {other}"),
    })
}

/// Both decode paths agree on `payload`: equal values (compared by
/// encoding, through `canon`), or equal errors.
fn assert_decodes_agree<T: Deserialize>(
    payload: &[u8],
    canon: impl Fn(&T) -> Vec<u8>,
) -> Result<(), TestCaseError> {
    match (stream_path::<T>(payload), tree_path::<T>(payload)) {
        (Ok(s), Ok(t)) => prop_assert!(canon(&s) == canon(&t), "decoded values differ"),
        (Err(s), Err(t)) => prop_assert_eq!(s, t),
        (s, t) => prop_assert!(false, "streamed {:?} but tree {:?}", s.err(), t.err()),
    }
    Ok(())
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

/// `Record`'s encoding with the `HashMap` entries sorted, so that two
/// equal records compare equal whatever their hash order.
fn canon_record(r: &Record) -> Vec<u8> {
    let mut r = r.clone();
    let mut hashed: Vec<(u8, bool)> = r.hashed.drain().collect();
    hashed.sort_unstable();
    let mut out = to_bytes(&r);
    out.extend(to_bytes(&hashed));
    out
}

fn payload_of<T: Serialize>(x: &T) -> Vec<u8> {
    to_bytes(x)[HEADER_LEN..].to_vec()
}

/// One in-place corruption of an encoded payload: a scalar tag swapped
/// for another of the same width, or any byte flipped.
fn corrupt(payload: &mut [u8], rng: &mut TestRng) {
    if payload.is_empty() {
        return;
    }
    let at = (rng.next_u64() % payload.len() as u64) as usize;
    let byte = &mut payload[at];
    *byte = match (*byte, rng.next_u64() % 3) {
        (0..=2, 0) => (*byte + 1) % 3,
        (3..=5, 0) => 3 + (*byte - 2) % 3,
        (b, _) => b ^ (1 << (rng.next_u64() % 8)),
    };
}

/// Rewrites maps in a tree the ways a damaged or foreign payload could
/// present a struct: entries reordered, a field duplicated (with an
/// arbitrary value, before or after the original), removed, renamed,
/// given a non-string key, given an ill-typed value, or joined by an
/// unknown key. Applied at random depths.
fn mangle(v: &mut Value, rng: &mut TestRng) {
    let junk = |rng: &mut TestRng| AnyValue { depth: 1 }.draw(rng, 0);
    match v {
        Value::Map(entries) => {
            for (_, val) in entries.iter_mut() {
                if rng.next_u64().is_multiple_of(3) {
                    mangle(val, rng);
                }
            }
            if entries.is_empty() {
                return;
            }
            let i = (rng.next_u64() % entries.len() as u64) as usize;
            match rng.next_u64() % 8 {
                0 => entries.reverse(),
                1 => {
                    let key = entries[i].0.clone();
                    entries.push((key, junk(rng)));
                }
                2 => {
                    let key = entries[i].0.clone();
                    entries.insert(0, (key, junk(rng)));
                }
                3 => {
                    entries.remove(i);
                }
                4 => entries[i].1 = junk(rng),
                5 => {
                    let renamed = format!("{}_", entries[i].0.as_str().unwrap_or("k"));
                    entries[i].0 = Value::Str(renamed);
                }
                6 => entries[i].0 = Value::Seq(vec![Value::U64(7)]),
                _ => entries.insert(i, (Value::Str("unknown".to_string()), junk(rng))),
            }
        }
        Value::Seq(items) => {
            for item in items {
                if rng.next_u64().is_multiple_of(3) {
                    mangle(item, rng);
                }
            }
        }
        _ => {}
    }
}

struct Seed;

impl Strategy for Seed {
    type Value = u64;
    fn sample(&self, rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn value_trees_stream_as_they_encode(v in AnyValue { depth: 4 }) {
        assert_stream_matches_tree(&v)?;
    }

    #[test]
    fn value_trees_decode_as_the_tree_decoder_decodes(
        v in AnyValue { depth: 4 },
        seed in Seed,
    ) {
        let payload = payload_of(&v);
        assert_decodes_agree::<Value>(&payload, to_bytes)?;
        let mut rng = TestRng::deterministic(seed);
        let mut damaged = payload.clone();
        corrupt(&mut damaged, &mut rng);
        assert_decodes_agree::<Value>(&damaged, to_bytes)?;
        // Cut short, and with a byte left over.
        let cut = (seed % (payload.len() as u64 + 1)) as usize;
        assert_decodes_agree::<Value>(&payload[..cut], to_bytes)?;
        let mut long = payload;
        long.push(0);
        assert_decodes_agree::<Value>(&long, to_bytes)?;
    }

    #[test]
    fn derived_shapes_decode_as_their_trees(r in AnyRecord, seed in Seed) {
        let payload = payload_of(&r);
        assert_decodes_agree::<Record>(&payload, canon_record)?;
        let back = stream_path::<Record>(&payload).map_err(TestCaseError::fail)?;
        prop_assert!(canon_record(&back) == canon_record(&r), "round trip differs");
        for shape in &r.shapes {
            assert_decodes_agree::<Shape>(&payload_of(shape), to_bytes)?;
        }
        let mut rng = TestRng::deterministic(seed);
        for _ in 0..4 {
            let mut damaged = payload.clone();
            corrupt(&mut damaged, &mut rng);
            assert_decodes_agree::<Record>(&damaged, canon_record)?;
        }
    }

    #[test]
    fn mangled_maps_fail_as_field_extraction_fails(r in AnyRecord, seed in Seed) {
        let mut rng = TestRng::deterministic(seed);
        let mut tree = r.to_value();
        for _ in 0..=(seed % 3) {
            mangle(&mut tree, &mut rng);
        }
        assert_decodes_agree::<Record>(&payload_of(&tree), canon_record)?;
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
