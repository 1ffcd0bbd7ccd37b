//! Hand-rolled binary codec for log frames.
//!
//! Records are encoded little-endian with length-prefixed strings. A
//! table-driven CRC-32 (IEEE polynomial) guards every log frame so recovery
//! can detect torn writes. No external serialization framework is used — the
//! format is small, stable and fully specified here. Every decoder in the
//! workspace reads through [`Reader`]; every encoder appends to a `Vec<u8>`.

use crate::error::StorageError;
use crate::schema::{Schema, ValueType};
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3 polynomial, reflected), slicing-by-8.
// ---------------------------------------------------------------------------

/// `CRC_TABLES[0]` is the classic bytewise table; `CRC_TABLES[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes, so eight table lookups
/// fold eight input bytes into the register at once.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 checksum of `data` (IEEE polynomial).
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// The checked read cursor and its encoders.
// ---------------------------------------------------------------------------

/// The most elements of any list a log record holds, other than a
/// tuple's values: a schema's columns, a `Ground` record's ops, and a
/// logged transaction's update atoms, body atoms and terms per atom.
/// Decoders refuse more, so [`crate::Database::create_table`] and
/// `qdb_logic::ResourceTransaction::new` refuse to build what could not be
/// read back.
pub const MAX_LOG_COUNT: usize = 1 << 16;

/// The most values a decoded tuple may hold.
pub const MAX_TUPLE_ARITY: usize = 1 << 20;

/// A read cursor over a byte slice: every read checks what is left and
/// returns a typed error on short input, so a decoder needs no bounds
/// check of its own. Integers are little-endian.
#[derive(Debug)]
pub struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader(buf)
    }

    /// True once every byte has been read.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    #[cold]
    fn short(&self, n: usize) -> StorageError {
        let have = self.0.len();
        StorageError::Codec(format!("truncated input: need {n} bytes, have {have}"))
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let (head, rest) = self.0.split_first_chunk().ok_or_else(|| self.short(N))?;
        self.0 = rest;
        Ok(*head)
    }

    /// Read one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8> {
        self.array().map(|[b]| b)
    }

    /// Read a `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// Read a `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// Read `n` raw bytes, borrowed from the input.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        let (head, rest) = self.0.split_at_checked(n).ok_or_else(|| self.short(n))?;
        self.0 = rest;
        Ok(head)
    }

    /// Read a length-prefixed UTF-8 string, borrowed from the input.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.bytes(len)?)
            .map_err(|e| StorageError::Codec(format!("invalid utf-8: {e}")))
    }

    /// Read an element count: at most `max`, and no more elements than the
    /// bytes left could encode at `min_elem_bytes` each. A hostile count
    /// is refused before any allocation sized by it, so what a decoder
    /// reserves stays a small multiple of its input's length.
    pub fn count(&mut self, max: usize, min_elem_bytes: usize, what: &str) -> Result<usize> {
        let n = self.u32()? as usize;
        let left = self.0.len();
        if n > max || n * min_elem_bytes > left {
            let msg = format!("implausible {what} {n} (at most {max}, {left} bytes left)");
            return Err(StorageError::Codec(msg));
        }
        Ok(n)
    }

    /// End the decode: every byte must have been read.
    pub fn finish(&self) -> Result<()> {
        match self.0.len() {
            0 => Ok(()),
            n => Err(StorageError::Codec(format!("{n} trailing bytes"))),
        }
    }
}

/// Append a little-endian `u32`.
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u32` length, then `bytes`.
#[inline]
pub fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(buf, bytes.len() as u32);
    buf.extend_from_slice(bytes);
}

/// Append a length-prefixed UTF-8 string.
#[inline]
pub fn put_string(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

// A value's tag is its type's: `ValueType`'s discriminant.
const TAG_INT: u8 = ValueType::Int as u8;
const TAG_STR: u8 = ValueType::Str as u8;
const TAG_BOOL: u8 = ValueType::Bool as u8;

/// Bytes of the shortest encoded [`Value`] (a bool).
pub const MIN_VALUE_BYTES: usize = 2;

/// Write a [`Value`].
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => {
            buf.push(TAG_INT);
            put_u64(buf, *i as u64);
        }
        Value::Str(s) => {
            buf.push(TAG_STR);
            put_string(buf, s);
        }
        Value::Bool(b) => buf.extend_from_slice(&[TAG_BOOL, u8::from(*b)]),
    }
}

/// Read a [`Value`].
pub fn get_value(r: &mut Reader) -> Result<Value> {
    match r.u8()? {
        TAG_INT => Ok(Value::Int(r.u64()? as i64)),
        // Straight from the input's bytes: a label of up to 22 bytes is
        // copied inline and allocates nothing.
        TAG_STR => Ok(Value::str(r.str()?)),
        TAG_BOOL => Ok(Value::Bool(r.u8()? != 0)),
        t => Err(StorageError::Codec(format!("unknown value tag {t}"))),
    }
}

/// Write a [`Tuple`].
pub fn put_tuple(buf: &mut Vec<u8>, t: &Tuple) {
    put_u32(buf, t.arity() as u32);
    for v in t.iter() {
        put_value(buf, v);
    }
}

/// Read a [`Tuple`].
pub fn get_tuple(r: &mut Reader) -> Result<Tuple> {
    let n = r.count(MAX_TUPLE_ARITY, MIN_VALUE_BYTES, "tuple arity")?;
    Tuple::try_from_fn(n, |_| get_value(r))
}

fn get_value_type(r: &mut Reader) -> Result<ValueType> {
    let tag = r.u8()?;
    let types = [ValueType::Int, ValueType::Str, ValueType::Bool];
    let ty = types.get(usize::from(tag)).copied();
    ty.ok_or_else(|| StorageError::Codec(format!("unknown type tag {tag}")))
}

/// Write a [`Schema`].
pub fn put_schema(buf: &mut Vec<u8>, s: &Schema) {
    put_string(buf, s.relation());
    put_u32(buf, s.arity() as u32);
    for c in s.columns() {
        put_string(buf, &c.name);
        buf.push(c.ty as u8);
    }
    // Key count: a table's key is its whole row, written as no columns.
    put_u32(buf, 0);
}

/// Read a [`Schema`].
pub fn get_schema(r: &mut Reader) -> Result<Schema> {
    let relation = r.str()?.to_owned();
    // A column is a name (length word) and a type byte.
    let ncols = r.count(MAX_LOG_COUNT, 5, "column count")?;
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        columns.push((r.str()?, get_value_type(r)?));
    }
    let nkeys = r.u32()?;
    if nkeys != 0 {
        return Err(StorageError::Codec(format!(
            "schema of '{relation}' names {nkeys} key columns; a table's key is its whole row"
        )));
    }
    Ok(Schema::new(relation, columns))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use crate::wal::LogRecord;
    use qdb_workload::rng::StdRng;

    /// The bytewise reference the slicing-by-8 loop must agree with.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        for crc in [crc32, crc32_bytewise] {
            assert_eq!(crc(b"123456789"), 0xCBF4_3926);
            assert_eq!(crc(b""), 0);
            assert_eq!(crc(b"a"), 0xE8B7_BE43);
            assert_eq!(
                crc(b"The quick brown fox jumps over the lazy dog"),
                0x414F_A339
            );
            assert_eq!(crc(&[0u8; 32]), 0x190A_55AD);
            assert_eq!(crc(&[0xFFu8; 32]), 0xFF6C_AB0B);
        }
    }

    #[test]
    fn crc32_slicing_matches_the_bytewise_loop() {
        // Seeded splitmix64 bytes; every length 0..=300 at every start
        // offset 0..8, so the 8-byte loop meets every alignment and
        // every remainder length.
        let mut rng = StdRng::seed_from_u64(0x5EED_C0DE);
        let data: Vec<u8> = (0..320).map(|_| rng.next_u64() as u8).collect();
        for start in 0..8 {
            for len in 0..=300 {
                let slice = &data[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn value_roundtrip() {
        for v in [
            Value::from(0),
            Value::from(-1),
            Value::from(i64::MAX),
            Value::from(""),
            Value::from("seat 5A ✈"),
            Value::from(true),
            Value::from(false),
        ] {
            let mut buf = Vec::new();
            put_value(&mut buf, &v);
            let mut r = Reader::new(&buf);
            assert_eq!(get_value(&mut r).unwrap(), v);
            r.finish().unwrap();
        }
    }

    #[test]
    fn tuple_roundtrip() {
        let t = tuple!["Mickey", 123, "5A", true];
        let mut buf = Vec::new();
        put_tuple(&mut buf, &t);
        assert_eq!(get_tuple(&mut Reader::new(&buf)).unwrap(), t);
    }

    #[test]
    fn keyless_schema_roundtrips_and_nonzero_key_counts_are_refused() {
        let s = Schema::new(
            "Bookings",
            vec![
                ("name", ValueType::Str),
                ("flight", ValueType::Int),
                ("seat", ValueType::Str),
            ],
        );
        let record = LogRecord::CreateTable(s.clone()).encode();
        // The payload ends in the schema's key-count word, written as 0.
        let (head, count) = record.split_at(record.len() - 4);
        assert_eq!(count, 0u32.to_le_bytes());
        assert_eq!(
            LogRecord::decode(&record).unwrap(),
            LogRecord::CreateTable(s.clone())
        );
        // A non-zero count (a column-subset key) is a typed codec error,
        // not a panic or a silently keyless table — also when the column
        // list it announces is missing.
        for (count, columns) in [(2u32, &[0u32, 1][..]), (1, &[]), (7, &[])] {
            let mut bad = head.to_vec();
            for word in std::iter::once(count).chain(columns.iter().copied()) {
                bad.extend(word.to_le_bytes());
            }
            let err = LogRecord::decode(&bad).unwrap_err();
            assert!(matches!(err, StorageError::Codec(_)), "{count}: {err}");
        }
        // Bytes past the end of a whole record are refused too, for every
        // record kind, not silently ignored.
        for record in [
            LogRecord::CreateTable(s),
            LogRecord::Write(crate::WriteOp::Insert {
                relation: "Bookings".into(),
                tuple: tuple!["Mickey", 123, "5A"],
            }),
            LogRecord::Ground { id: 4, ops: vec![] },
            LogRecord::PendingRemove { id: 9 },
            LogRecord::Checkpoint,
        ] {
            let mut long = record.encode();
            assert_eq!(LogRecord::decode(&long).unwrap(), record);
            long.push(0);
            let err = LogRecord::decode(&long).unwrap_err();
            assert!(err.to_string().contains("trailing"), "{record:?}: {err}");
        }
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let t = tuple!["Mickey", 123];
        let mut buf = Vec::new();
        put_tuple(&mut buf, &t);
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(get_tuple(&mut r).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn garbage_tags_rejected() {
        assert!(get_value(&mut Reader::new(&[42])).is_err());
    }
}
