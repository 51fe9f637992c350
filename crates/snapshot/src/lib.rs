//! Crash-safe snapshot persistence for the Glacsweb reproduction.
//!
//! A snapshot file is a self-describing binary envelope:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"GLACSNAP"
//! 8       4     schema version, u32 LE
//! 12      8     payload length, u64 LE
//! 20      4     CRC-32 (IEEE) of the payload, u32 LE
//! 24      n     payload: binary-encoded serde::Value tree
//! ```
//!
//! The payload is the wire [`Value`] tree of whatever implements
//! [`Serialize`]; floats travel as their IEEE-754 bit pattern so a
//! round-trip is bit-identical, which is what lets a restored deployment
//! replay the exact golden-hash trajectory of an uninterrupted run.
//! Neither direction builds that tree: [`to_bytes`] streams the value's
//! nodes ([`Serialize::stream_to`]) straight into the output buffer, and
//! [`from_bytes`] pulls typed values straight out of the payload
//! ([`Deserialize::stream_from`]) through a validating token reader.
//!
//! Durability rules:
//!
//! * [`save`] writes to a `.tmp` sibling, syncs it, then renames over the
//!   final path — a crash mid-write leaves the previous snapshot intact
//!   and at worst a stale temp file, never a torn snapshot;
//! * [`load`] verifies magic, schema version, length and checksum before
//!   decoding a single payload byte, and refuses files written by a
//!   *newer* schema ([`SnapshotError::FutureSchema`]) rather than
//!   guessing at fields it does not know;
//! * every failure is a typed [`SnapshotError`] — corrupted, truncated or
//!   crafted input must never panic the loader.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use serde::de::{self, Source, Token};
use serde::{Deserialize, Serialize, Sink};

/// File magic: identifies a Glacsweb snapshot regardless of extension.
pub const MAGIC: [u8; 8] = *b"GLACSNAP";

/// Schema version this build writes and the newest it can read.
///
/// Bump on any change to the payload layout. Readers accept any version
/// `<= SCHEMA_VERSION` (an older payload's missing fields are typed
/// errors, not panics) and reject newer ones outright.
pub const SCHEMA_VERSION: u32 = 1;

/// Suffix of the temporary sibling used by the atomic write.
pub const TMP_SUFFIX: &str = ".tmp";

/// Envelope header length in bytes (magic + version + length + CRC).
pub const HEADER_LEN: usize = 24;

/// Maximum nesting depth [`load`] will decode — far above any real
/// deployment tree, low enough that a crafted file cannot blow the stack.
const MAX_DEPTH: u32 = 128;

/// Most elements a collection reserves before any of them has decoded.
/// A count is only checked against the bytes that remain, which every
/// level of a nested collection claims again, while a decoded element
/// takes 32 (Seq) or 64 (Map) bytes against its 1 or 2 encoded ones.
/// Without this cap a crafted file of nested collections reserves tens of
/// GiB before the decoder finds it malformed; with it each level reserves
/// at most 64 KiB and grows only as real elements arrive.
const MAX_PREALLOC: usize = 1024;

/// Why a snapshot could not be written or read back.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying filesystem operation failed.
    Io(io::Error),
    /// The file does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The file ends before the envelope says it should.
    Truncated {
        /// Bytes the envelope requires.
        needed: u64,
        /// Bytes actually present.
        have: u64,
    },
    /// The payload bytes do not hash to the stored CRC-32.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        stored: u32,
        /// Checksum of the bytes on disk.
        computed: u32,
    },
    /// The file was written by a newer schema than this build understands.
    FutureSchema {
        /// Version found in the file.
        found: u32,
        /// Newest version this build reads.
        supported: u32,
    },
    /// The payload checksummed correctly but is not a well-formed value
    /// tree (bad type tag, length overrun, invalid UTF-8, over-deep).
    Malformed(String),
    /// The value tree decoded but describes an impossible state (schema
    /// field mismatch or a violated domain invariant).
    Invalid(String),
}

impl SnapshotError {
    /// A semantic-validation failure with the given message.
    pub fn invalid(msg: impl Into<String>) -> Self {
        SnapshotError::Invalid(msg.into())
    }

    /// A structural-decode failure with the given message.
    pub fn malformed(msg: impl Into<String>) -> Self {
        SnapshotError::Malformed(msg.into())
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a Glacsweb snapshot (bad magic)"),
            SnapshotError::Truncated { needed, have } => {
                write!(f, "snapshot truncated: need {needed} bytes, have {have}")
            }
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: header says {stored:#010x}, payload hashes to {computed:#010x}"
            ),
            SnapshotError::FutureSchema { found, supported } => write!(
                f,
                "snapshot schema v{found} is newer than the supported v{supported}; upgrade before loading"
            ),
            SnapshotError::Malformed(msg) => write!(f, "snapshot payload malformed: {msg}"),
            SnapshotError::Invalid(msg) => write!(f, "snapshot state invalid: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<serde::de::Error> for SnapshotError {
    fn from(e: serde::de::Error) -> Self {
        SnapshotError::Invalid(e.to_string())
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), slicing-by-8; the polynomial everyone's `cksum`
// agrees on, so a snapshot can be sanity-checked outside this crate.

/// Feeds one zero byte through the CRC register, a bit at a time.
const fn zero_byte(mut crc: u32) -> u32 {
    let mut bit = 0;
    while bit < 8 {
        crc = if crc & 1 != 0 {
            (crc >> 1) ^ 0xEDB8_8320
        } else {
            crc >> 1
        };
        bit += 1;
    }
    crc
}

/// Slicing-by-8 tables, built at compile time. `CRC_TABLES[0]` is the
/// classic bytewise table; `CRC_TABLES[k][b]` is the register after byte
/// `b` and then `k` zero bytes, so eight lookups fold a whole 8-byte word.
#[allow(clippy::indexing_slicing)]
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut b: u32 = 0;
    while b < 256 {
        let mut crc = zero_byte(b);
        let mut k = 0;
        while k < 8 {
            // glacsweb: allow(panic-freedom, reason = "k < 8 and b < 256 by the loop bounds; evaluated at compile time, so an out-of-range index is a build error, not a runtime panic")
            tables[k][b as usize] = crc;
            crc = zero_byte(crc);
            k += 1;
        }
        b += 1;
    }
    tables
};

/// One table lookup; a `u8` always indexes inside a 256-entry table.
#[inline(always)]
#[allow(clippy::indexing_slicing)]
fn lookup(table: &[u32; 256], byte: u8) -> u32 {
    // glacsweb: allow(panic-freedom, reason = "a u8 index is below 256, the table length")
    table[usize::from(byte)]
}

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
    let (words, tail) = bytes.as_chunks::<8>();
    let mut crc = u32::MAX;
    for &[b0, b1, b2, b3, b4, b5, b6, b7] in words {
        let [x0, x1, x2, x3] = (crc ^ u32::from_le_bytes([b0, b1, b2, b3])).to_le_bytes();
        crc = lookup(t7, x0)
            ^ lookup(t6, x1)
            ^ lookup(t5, x2)
            ^ lookup(t4, x3)
            ^ lookup(t3, b4)
            ^ lookup(t2, b5)
            ^ lookup(t1, b6)
            ^ lookup(t0, b7);
    }
    for &b in tail {
        let [low, ..] = crc.to_le_bytes();
        crc = (crc >> 8) ^ lookup(t0, low ^ b);
    }
    crc ^ u32::MAX
}

// ---------------------------------------------------------------------------
// Binary Value codec. One-byte type tag, little-endian fixed-width
// numbers, u64 lengths. Floats travel as raw bits: encode/decode is a
// bit-identical round trip even for -0.0 and the quiet NaNs the models
// never produce but a corrupted file might.

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_I64: u8 = 3;
const TAG_U64: u8 = 4;
const TAG_F64: u8 = 5;
const TAG_STR: u8 = 6;
const TAG_SEQ: u8 = 7;
const TAG_MAP: u8 = 8;

/// Appends the binary encoding of each streamed [`Value`] node.
struct Encoder<'a>(&'a mut Vec<u8>);

impl Encoder<'_> {
    /// A tag byte followed by one little-endian 8-byte word.
    fn tagged(&mut self, tag: u8, word: u64) {
        let [a, b, c, d, e, f, g, h] = word.to_le_bytes();
        self.0.extend_from_slice(&[tag, a, b, c, d, e, f, g, h]);
    }
}

impl Sink for Encoder<'_> {
    fn null(&mut self) {
        self.0.push(TAG_NULL);
    }
    fn bool(&mut self, v: bool) {
        self.0.push(if v { TAG_TRUE } else { TAG_FALSE });
    }
    fn i64(&mut self, v: i64) {
        self.tagged(TAG_I64, v.cast_unsigned());
    }
    fn u64(&mut self, v: u64) {
        self.tagged(TAG_U64, v);
    }
    fn f64(&mut self, v: f64) {
        self.tagged(TAG_F64, v.to_bits());
    }
    fn str(&mut self, v: &str) {
        self.tagged(TAG_STR, v.len() as u64);
        self.0.extend_from_slice(v.as_bytes());
    }
    fn seq(&mut self, len: usize) {
        self.tagged(TAG_SEQ, len as u64);
    }
    fn map(&mut self, len: usize) {
        self.tagged(TAG_MAP, len as u64);
    }
}

/// A validating token reader over the payload bytes: the [`Source`]
/// every typed decode pulls from.
///
/// It checks what the format demands of every node it reads — a known
/// tag, lengths within the bytes that remain, UTF-8 strings, nesting at
/// most [`MAX_DEPTH`] deep — and keeps the first violation: from then on
/// every read fails, and [`Decoder::finish`] reports it as
/// [`SnapshotError::Malformed`].
struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Nodes still to come in each open container, innermost last (two
    /// per map entry). A container stays until its last node is read,
    /// so the length is the depth of the next token.
    open: Vec<u64>,
    /// The first structural fault.
    fault: Option<SnapshotError>,
}

impl<'a> Decoder<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Decoder {
            buf,
            pos: 0,
            open: Vec::new(),
            fault: None,
        }
    }

    /// The error for a read of `n` bytes at `pos` that runs past the end.
    fn short(&self, n: usize) -> SnapshotError {
        SnapshotError::malformed(format!(
            "payload ends at {} but a value at {} needs {} more bytes",
            self.buf.len(),
            self.pos,
            n
        ))
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or_else(|| {
            SnapshotError::malformed(format!("length overflow at offset {}", self.pos))
        })?;
        let slice = self.buf.get(self.pos..end).ok_or_else(|| self.short(n))?;
        self.pos = end;
        Ok(slice)
    }

    #[inline]
    fn take_byte(&mut self) -> Result<u8, SnapshotError> {
        let b = *self.buf.get(self.pos).ok_or_else(|| self.short(1))?;
        self.pos += 1;
        Ok(b)
    }

    #[inline]
    fn take_u64(&mut self) -> Result<u64, SnapshotError> {
        let word = self
            .buf
            .get(self.pos..)
            .and_then(<[u8]>::first_chunk::<8>)
            .ok_or_else(|| self.short(8))?;
        self.pos += 8;
        Ok(u64::from_le_bytes(*word))
    }

    /// A collection length, validated against the bytes that remain: every
    /// element costs at least `min_bytes` (one tag byte per Seq item or
    /// string byte, two per Map entry), so a count beyond the residue is
    /// corrupt — reject it *before* allocating.
    #[inline]
    fn take_len(&mut self, min_bytes: u64) -> Result<usize, SnapshotError> {
        let n = self.take_u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if n.saturating_mul(min_bytes) > remaining {
            return Err(SnapshotError::malformed(format!(
                "collection claims {n} elements but only {remaining} payload bytes remain"
            )));
        }
        usize::try_from(n).map_err(|_| {
            SnapshotError::malformed(format!("collection length {n} exceeds the address space"))
        })
    }

    /// Reads and validates one token, then books it against the open
    /// containers.
    #[inline]
    fn read(&mut self) -> Result<Token<'a>, SnapshotError> {
        if self.open.len() > MAX_DEPTH as usize {
            return Err(SnapshotError::malformed(format!(
                "value tree deeper than {MAX_DEPTH} levels"
            )));
        }
        let token =
            match self.take_byte()? {
                TAG_NULL => Token::Null,
                TAG_FALSE => Token::Bool(false),
                TAG_TRUE => Token::Bool(true),
                TAG_I64 => Token::I64(self.take_u64()?.cast_signed()),
                TAG_U64 => Token::U64(self.take_u64()?),
                TAG_F64 => Token::F64(f64::from_bits(self.take_u64()?)),
                TAG_STR => {
                    let len = self.take_len(1)?;
                    let bytes = self.take(len)?;
                    Token::Str(std::str::from_utf8(bytes).map_err(|e| {
                        SnapshotError::malformed(format!("string is not UTF-8: {e}"))
                    })?)
                }
                TAG_SEQ => Token::Seq(self.take_len(1)?),
                TAG_MAP => Token::Map(self.take_len(2)?),
                other => {
                    return Err(SnapshotError::malformed(format!(
                        "unknown value tag {other} at offset {}",
                        self.pos - 1
                    )))
                }
            };
        if let Some(left) = self.open.last_mut() {
            *left -= 1;
        }
        // Lengths are validated against the residue, so `2 * n` fits.
        match token {
            Token::Seq(n) if n > 0 => self.open.push(n as u64),
            Token::Map(n) if n > 0 => self.open.push(2 * n as u64),
            _ => {
                while self.open.last() == Some(&0) {
                    self.open.pop();
                }
            }
        }
        Ok(token)
    }

    /// Completes the structural walk: reads whatever of the root value a
    /// typed decode left unread, then rejects trailing bytes. A fault
    /// anywhere in the payload is reported here, ahead of any typed
    /// error.
    fn finish(mut self) -> Result<(), SnapshotError> {
        // Every typed decode reads at least the root's first token; the
        // walk must not depend on it.
        if self.pos == 0 {
            let _ = self.skip();
        }
        let _ = self.skip_to(0);
        if let Some(fault) = self.fault {
            return Err(fault);
        }
        if self.pos != self.buf.len() {
            return Err(SnapshotError::malformed(format!(
                "{} payload bytes left over after the root value",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

impl Source for Decoder<'_> {
    #[inline]
    fn next(&mut self) -> Result<Token<'_>, de::Error> {
        if let Some(fault) = &self.fault {
            return Err(de::Error::custom(fault));
        }
        self.read().map_err(|fault| {
            let e = de::Error::custom(&fault);
            self.fault = Some(fault);
            e
        })
    }

    #[inline]
    fn null(&mut self) -> Result<bool, de::Error> {
        if self.fault.is_none() && self.buf.get(self.pos) == Some(&TAG_NULL) {
            self.next()?;
            return Ok(true);
        }
        Ok(false)
    }

    #[inline]
    fn depth(&self) -> usize {
        self.open.len()
    }

    #[inline]
    fn reserve(&self, len: usize) -> usize {
        len.min(MAX_PREALLOC)
    }
}

// ---------------------------------------------------------------------------
// Envelope.

/// Serializes `value` into a complete snapshot byte stream (header +
/// checksummed payload).
///
/// One buffer: the header goes in with zeroed length and CRC fields, the
/// payload streams in behind it straight from `value` (no intermediate
/// [`Value`] tree), and the two fields are patched once it is complete.
pub fn to_bytes<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
    out.extend_from_slice(&[0; 12]);
    value.stream_to(&mut Encoder(&mut out));
    let payload = out.get(HEADER_LEN..).unwrap_or_default();
    let len = (payload.len() as u64).to_le_bytes();
    let crc = crc32(payload).to_le_bytes();
    let fields = len.into_iter().chain(crc);
    for (slot, byte) in out.iter_mut().skip(MAGIC.len() + 4).zip(fields) {
        *slot = byte;
    }
    out
}

/// Parses a complete snapshot byte stream back into a `T`.
///
/// Verification order: length → magic → schema version → payload length →
/// checksum → structural decode → typed deserialization. The first layer
/// that fails names the failure; nothing panics.
///
/// The last two layers run in one pass: `T` is read straight from the
/// payload through a validating token reader, with no [`Value`] tree in
/// between. The order still holds because the structural walk always
/// finishes: if the typed decode stops early, the rest of the payload is
/// still read and checked, and a structural fault anywhere outranks the
/// typed error.
///
/// [`Value`]: serde::Value
pub fn from_bytes<T: Deserialize>(bytes: &[u8]) -> Result<T, SnapshotError> {
    let mut decoder = Decoder::new(payload(bytes)?);
    let typed = T::stream_from(&mut decoder);
    decoder.finish()?;
    Ok(typed?)
}

/// Checks the envelope and returns the checksummed payload bytes.
fn payload(bytes: &[u8]) -> Result<&[u8], SnapshotError> {
    if bytes.len() < HEADER_LEN {
        // Too short to even hold a header — but if what *is* there does
        // not look like our magic, say "not a snapshot", which is the more
        // useful message for a wrong-file mistake.
        let prefix_ok = bytes.get(..MAGIC.len()).is_some_and(|p| p == MAGIC);
        if bytes.len() < MAGIC.len() || prefix_ok {
            return Err(SnapshotError::Truncated {
                needed: HEADER_LEN as u64,
                have: bytes.len() as u64,
            });
        }
        return Err(SnapshotError::BadMagic);
    }
    let (magic, rest) = bytes.split_at(MAGIC.len());
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let mut version_bytes = [0u8; 4];
    let mut len_bytes = [0u8; 8];
    let mut crc_bytes = [0u8; 4];
    let Some(version_src) = rest.get(..4) else {
        return Err(SnapshotError::Truncated {
            needed: HEADER_LEN as u64,
            have: bytes.len() as u64,
        });
    };
    version_bytes.copy_from_slice(version_src);
    let version = u32::from_le_bytes(version_bytes);
    if version > SCHEMA_VERSION {
        return Err(SnapshotError::FutureSchema {
            found: version,
            supported: SCHEMA_VERSION,
        });
    }
    let (Some(len_src), Some(crc_src)) = (rest.get(4..12), rest.get(12..16)) else {
        return Err(SnapshotError::Truncated {
            needed: HEADER_LEN as u64,
            have: bytes.len() as u64,
        });
    };
    len_bytes.copy_from_slice(len_src);
    crc_bytes.copy_from_slice(crc_src);
    let payload_len = u64::from_le_bytes(len_bytes);
    let stored_crc = u32::from_le_bytes(crc_bytes);
    // The first check guarantees `bytes.len() >= HEADER_LEN`; stay total.
    let payload = bytes.get(HEADER_LEN..).unwrap_or(&[]);
    if (payload.len() as u64) < payload_len {
        return Err(SnapshotError::Truncated {
            needed: HEADER_LEN as u64 + payload_len,
            have: bytes.len() as u64,
        });
    }
    if (payload.len() as u64) > payload_len {
        return Err(SnapshotError::malformed(format!(
            "{} trailing bytes after the declared payload",
            payload.len() as u64 - payload_len
        )));
    }
    let computed = crc32(payload);
    if computed != stored_crc {
        return Err(SnapshotError::ChecksumMismatch {
            stored: stored_crc,
            computed,
        });
    }
    Ok(payload)
}

/// The temp-sibling path [`save`] stages through: `<path><TMP_SUFFIX>`.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(TMP_SUFFIX);
    PathBuf::from(name)
}

/// Atomically writes `value` as a snapshot at `path`.
///
/// The bytes go to a `.tmp` sibling first, are fsynced, and the sibling is
/// renamed over `path`. A crash at any point leaves either the old file or
/// the new one — never a torn mixture. A stale `.tmp` from an interrupted
/// earlier save is silently replaced.
pub fn save<T: Serialize>(value: &T, path: &Path) -> Result<(), SnapshotError> {
    let bytes = to_bytes(value);
    let tmp = tmp_path(path);
    let result = (|| -> Result<(), SnapshotError> {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, path)?;
        Ok(())
    })();
    if result.is_err() {
        // Best-effort cleanup; the original error is the one that matters.
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Loads and verifies the snapshot at `path`.
pub fn load<T: Deserialize>(path: &Path) -> Result<T, SnapshotError> {
    let bytes = fs::read(path)?;
    from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{de, Value};

    /// Reference CRC-32: one byte at a time, each folded in bit by bit.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        crc ^ u32::MAX
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Demo {
        label: String,
        counters: Vec<u64>,
        bias: f64,
        armed: bool,
    }

    fn demo() -> Demo {
        Demo {
            label: "glacier".to_string(),
            counters: vec![1, 2, 3],
            bias: -0.0,
            armed: true,
        }
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let bytes = to_bytes(&demo());
        let back: Demo = from_bytes(&bytes).expect("round trip");
        assert_eq!(back, demo());
        assert_eq!(
            back.bias.to_bits(),
            (-0.0f64).to_bits(),
            "float bits survive"
        );
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn bad_magic_detected() {
        let mut bytes = to_bytes(&demo());
        bytes[0] = b'X';
        assert!(matches!(
            from_bytes::<Demo>(&bytes),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn truncation_detected_at_every_length() {
        let bytes = to_bytes(&demo());
        for cut in 0..bytes.len() {
            let err = from_bytes::<Demo>(&bytes[..cut]).expect_err("truncated must fail");
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. } | SnapshotError::BadMagic
                ),
                "cut at {cut}: unexpected {err}"
            );
        }
    }

    #[test]
    fn flipped_payload_byte_fails_checksum() {
        let mut bytes = to_bytes(&demo());
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(matches!(
            from_bytes::<Demo>(&bytes),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn future_schema_refused() {
        let mut bytes = to_bytes(&demo());
        bytes[8..12].copy_from_slice(&(SCHEMA_VERSION + 1).to_le_bytes());
        match from_bytes::<Demo>(&bytes) {
            Err(SnapshotError::FutureSchema { found, supported }) => {
                assert_eq!(found, SCHEMA_VERSION + 1);
                assert_eq!(supported, SCHEMA_VERSION);
            }
            other => panic!("expected FutureSchema, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&demo());
        bytes.push(0);
        assert!(matches!(
            from_bytes::<Demo>(&bytes),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_collection_length_rejected_before_allocation() {
        // Payload: a Seq claiming u64::MAX elements.
        let mut payload = vec![TAG_SEQ];
        payload.extend_from_slice(&u64::MAX.to_le_bytes());
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert!(matches!(
            from_bytes::<Vec<u64>>(&bytes),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn over_deep_nesting_rejected() {
        // 200 nested single-element Seqs around a Null.
        let mut payload = Vec::new();
        for _ in 0..200 {
            payload.push(TAG_SEQ);
            payload.extend_from_slice(&1u64.to_le_bytes());
        }
        payload.push(TAG_NULL);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let err = from_bytes::<Value>(&bytes).expect_err("over-deep must fail");
        assert!(err.to_string().contains("deeper"), "got: {err}");
    }

    #[test]
    fn schema_mismatch_is_invalid_not_panic() {
        // A well-formed envelope whose payload is a map missing Demo's
        // fields: decodes structurally, fails typed deserialization.
        let wrong = vec![(Value::Str("nope".to_string()), Value::U64(1))];
        let bytes = to_bytes(&Value::Map(wrong));
        assert!(matches!(
            from_bytes::<Demo>(&bytes),
            Err(SnapshotError::Invalid(_))
        ));
    }

    #[test]
    fn save_is_atomic_and_load_verifies() {
        let dir = std::env::temp_dir().join("glacsweb-snapshot-test-save");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("demo.snap");
        save(&demo(), &path).expect("save");
        assert!(!tmp_path(&path).exists(), "tmp sibling renamed away");
        let back: Demo = load(&path).expect("load");
        assert_eq!(back, demo());
        // Overwrite with new content: still atomic, still loads.
        let mut second = demo();
        second.counters.push(99);
        save(&second, &path).expect("second save");
        let back: Demo = load(&path).expect("second load");
        assert_eq!(back, second);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load::<Demo>(Path::new("/nonexistent/glacsweb.snap")).expect_err("no file");
        assert!(matches!(err, SnapshotError::Io(_)));
    }

    #[test]
    fn de_error_converts_to_invalid() {
        let e: SnapshotError = de::Error::custom("bad field").into();
        assert!(matches!(e, SnapshotError::Invalid(_)));
        assert!(e.to_string().contains("bad field"));
    }

    #[test]
    fn slicing_by_8_matches_the_bytewise_reference() {
        // Every length through two full 8-byte words past a 256-byte
        // block, at every alignment, so both the word loop and the tail
        // loop see every split.
        let data: Vec<u8> = (0..(257 + 8) as u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8)
            .collect();
        for offset in 0..8 {
            for len in 0..=257 {
                let slice = &data[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "offset {offset}, length {len}"
                );
            }
        }
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }
}
