//! Hand-rolled binary codec for log frames.
//!
//! Records are encoded little-endian with length-prefixed strings. A
//! table-driven CRC-32 (IEEE polynomial) guards every log frame so recovery
//! can detect torn writes. No external serialization framework is used — the
//! format is small, stable and fully specified here.

use bytes::{Buf, BufMut, BytesMut};

use crate::error::StorageError;
use crate::schema::{Schema, ValueType};
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3 polynomial, reflected), table-driven.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
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
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 checksum of `data` (IEEE polynomial).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Primitive encoders / checked decoders.
// ---------------------------------------------------------------------------

fn need(buf: &impl Buf, n: usize, what: &str) -> Result<()> {
    if buf.remaining() < n {
        return Err(StorageError::Codec(format!(
            "unexpected end of input reading {what}: need {n} bytes, have {}",
            buf.remaining()
        )));
    }
    Ok(())
}

/// Write a length-prefixed UTF-8 string.
pub fn put_string(buf: &mut impl BufMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Read a length-prefixed UTF-8 string.
pub fn get_string(buf: &mut impl Buf) -> Result<String> {
    need(buf, 4, "string length")?;
    let len = buf.get_u32_le() as usize;
    need(buf, len, "string bytes")?;
    let mut bytes = vec![0u8; len];
    buf.copy_to_slice(&mut bytes);
    String::from_utf8(bytes).map_err(|e| StorageError::Codec(format!("invalid utf-8: {e}")))
}

const TAG_INT: u8 = 0;
const TAG_STR: u8 = 1;
const TAG_BOOL: u8 = 2;

/// Write a [`Value`].
pub fn put_value(buf: &mut impl BufMut, v: &Value) {
    match v {
        Value::Int(i) => {
            buf.put_u8(TAG_INT);
            buf.put_i64_le(*i);
        }
        Value::Str(s) => {
            buf.put_u8(TAG_STR);
            put_string(buf, s);
        }
        Value::Bool(b) => {
            buf.put_u8(TAG_BOOL);
            buf.put_u8(u8::from(*b));
        }
    }
}

/// Read a [`Value`].
pub fn get_value(buf: &mut impl Buf) -> Result<Value> {
    need(buf, 1, "value tag")?;
    match buf.get_u8() {
        TAG_INT => {
            need(buf, 8, "int value")?;
            Ok(Value::Int(buf.get_i64_le()))
        }
        // Decoded through the interning pool: WAL replay and wire decode
        // see the same few labels over and over — a recovered database
        // shares one `Arc` per distinct short string with everything else
        // decoded in this process.
        TAG_STR => Ok(Value::interned(&get_string(buf)?)),
        TAG_BOOL => {
            need(buf, 1, "bool value")?;
            Ok(Value::Bool(buf.get_u8() != 0))
        }
        t => Err(StorageError::Codec(format!("unknown value tag {t}"))),
    }
}

/// Write a [`Tuple`].
pub fn put_tuple(buf: &mut BytesMut, t: &Tuple) {
    buf.put_u32_le(t.arity() as u32);
    for v in t.iter() {
        put_value(buf, v);
    }
}

/// Read a [`Tuple`].
pub fn get_tuple(buf: &mut impl Buf) -> Result<Tuple> {
    need(buf, 4, "tuple arity")?;
    let n = buf.get_u32_le() as usize;
    if n > 1 << 20 {
        return Err(StorageError::Codec(format!("implausible tuple arity {n}")));
    }
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(get_value(buf)?);
    }
    Ok(Tuple::from(values))
}

fn put_value_type(buf: &mut BytesMut, ty: ValueType) {
    buf.put_u8(match ty {
        ValueType::Int => TAG_INT,
        ValueType::Str => TAG_STR,
        ValueType::Bool => TAG_BOOL,
    });
}

fn get_value_type(buf: &mut impl Buf) -> Result<ValueType> {
    need(buf, 1, "value type")?;
    match buf.get_u8() {
        TAG_INT => Ok(ValueType::Int),
        TAG_STR => Ok(ValueType::Str),
        TAG_BOOL => Ok(ValueType::Bool),
        t => Err(StorageError::Codec(format!("unknown type tag {t}"))),
    }
}

/// Write a [`Schema`].
pub fn put_schema(buf: &mut BytesMut, s: &Schema) {
    put_string(buf, s.relation());
    buf.put_u32_le(s.arity() as u32);
    for c in s.columns() {
        put_string(buf, &c.name);
        put_value_type(buf, c.ty);
    }
    // Key count: a table's key is its whole row, written as no columns.
    buf.put_u32_le(0);
}

/// Read a [`Schema`].
pub fn get_schema(buf: &mut impl Buf) -> Result<Schema> {
    let relation = get_string(buf)?;
    need(buf, 4, "column count")?;
    let ncols = buf.get_u32_le() as usize;
    if ncols > 1 << 16 {
        return Err(StorageError::Codec(format!("implausible arity {ncols}")));
    }
    let mut columns: Vec<(String, ValueType)> = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let name = get_string(buf)?;
        let ty = get_value_type(buf)?;
        columns.push((name, ty));
    }
    need(buf, 4, "key count")?;
    let nkeys = buf.get_u32_le();
    if nkeys != 0 {
        return Err(StorageError::Codec(format!(
            "schema of '{relation}' names {nkeys} key columns; a table's key is its whole row"
        )));
    }
    let borrowed: Vec<(&str, ValueType)> = columns.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    Ok(Schema::new(relation, borrowed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use crate::wal::LogRecord;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
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
            let mut buf = BytesMut::new();
            put_value(&mut buf, &v);
            let mut slice = buf.freeze();
            assert_eq!(get_value(&mut slice).unwrap(), v);
            assert_eq!(slice.remaining(), 0);
        }
    }

    #[test]
    fn tuple_roundtrip() {
        let t = tuple!["Mickey", 123, "5A", true];
        let mut buf = BytesMut::new();
        put_tuple(&mut buf, &t);
        let mut slice = buf.freeze();
        assert_eq!(get_tuple(&mut slice).unwrap(), t);
    }

    #[test]
    fn decoded_strings_are_interned() {
        // Decoding the same record twice (a WAL replayed, the same label
        // in many frames) must share one string allocation, not allocate
        // a fresh `Arc` per decode.
        let v = Value::from("codec-intern-test-7C");
        let mut buf = BytesMut::new();
        put_value(&mut buf, &v);
        let frozen = buf.freeze();
        let a = get_value(&mut frozen.clone()).unwrap();
        let b = get_value(&mut frozen.clone()).unwrap();
        let (Value::Str(a), Value::Str(b)) = (&a, &b) else {
            panic!("string value expected");
        };
        assert!(
            std::sync::Arc::ptr_eq(a, b),
            "decoded equal strings must share one Arc"
        );
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
            LogRecord::CreateTable(s)
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
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let t = tuple!["Mickey", 123];
        let mut buf = BytesMut::new();
        put_tuple(&mut buf, &t);
        let bytes = buf.freeze();
        for cut in 0..bytes.len() {
            let mut slice = bytes.slice(0..cut);
            assert!(get_tuple(&mut slice).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn garbage_tags_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(42);
        assert!(get_value(&mut buf.freeze()).is_err());
    }
}
