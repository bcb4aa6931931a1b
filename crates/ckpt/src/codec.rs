//! A compact binary codec for [`serde::Value`] trees.
//!
//! Checkpoints must round-trip **bit-exactly** — a resumed run replays
//! from restored floats — so the JSON text form is unusable (it has no
//! `NaN`/`Inf` literals and re-parsing can perturb the last bit). This
//! codec writes every scalar in its native width instead:
//!
//! | tag | value | encoding after the tag byte |
//! |---|---|---|
//! | 0 | `Null` | — |
//! | 1 | `Bool` | 1 byte, `0`/`1` |
//! | 2 | `U64` | 8 bytes LE |
//! | 3 | `I64` | 8 bytes LE |
//! | 4 | `F64` | 8 bytes LE of `f64::to_bits` |
//! | 5 | `Str` | u32 LE length + UTF-8 bytes |
//! | 6 | `Array` | u32 LE count + elements |
//! | 7 | `Object` | u32 LE count + (u32 LE key length, key, value)* |
//!
//! The decoder is total over arbitrary bytes: every malformed input —
//! unknown tag, short buffer, count exceeding the remaining bytes,
//! invalid UTF-8, nesting past [`MAX_DEPTH`], trailing garbage — is a
//! typed `Err(String)`, never a panic. Containers grow as elements decode,
//! so nested hostile counts cannot multiply into a huge reservation.

use serde::Value;

/// Decoder recursion limit: a hostile payload of nested array tags must
/// exhaust this budget, not the thread's stack.
const MAX_DEPTH: u32 = 128;

fn push_len(out: &mut Vec<u8>, len: usize) {
    let len = u32::try_from(len).expect("checkpoint value longer than u32::MAX bytes");
    out.extend_from_slice(&len.to_le_bytes());
}

fn encode_into(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Null => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(u8::from(*b));
        }
        Value::U64(n) => {
            out.push(2);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Value::I64(n) => {
            out.push(3);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Value::F64(x) => {
            out.push(4);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(5);
            push_len(out, s.len());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Array(items) => {
            out.push(6);
            push_len(out, items.len());
            for item in items {
                encode_into(item, out);
            }
        }
        Value::Object(fields) => {
            out.push(7);
            push_len(out, fields.len());
            for (key, item) in fields {
                push_len(out, key.len());
                out.extend_from_slice(key.as_bytes());
                encode_into(item, out);
            }
        }
    }
}

/// Encodes a value tree into the binary form described in the module docs.
pub(crate) fn encode(value: &Value) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(value, &mut out);
    out
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "{what} needs {n} bytes at offset {}, only {} remain",
                self.pos,
                self.remaining()
            ));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, String> {
        let bytes = self.take(4, what)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4-byte slice")))
    }

    fn u64(&mut self, what: &str) -> Result<u64, String> {
        let bytes = self.take(8, what)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8-byte slice")))
    }

    /// A declared element count, rejected up front when even one byte per
    /// element would overrun the buffer — so a corrupt count can never
    /// drive an unbounded loop.
    fn count(&mut self, what: &str) -> Result<usize, String> {
        let count = self.u32(what)? as usize;
        if count > self.remaining() {
            return Err(format!(
                "{what} claims {count} elements with only {} bytes left",
                self.remaining()
            ));
        }
        Ok(count)
    }

    fn string(&mut self, what: &str) -> Result<String, String> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| format!("{what} is not UTF-8: {e}"))
    }
}

fn decode_value(c: &mut Cursor<'_>, depth: u32) -> Result<Value, String> {
    if depth > MAX_DEPTH {
        return Err(format!("value nesting exceeds the {MAX_DEPTH}-level limit"));
    }
    match c.u8("value tag")? {
        0 => Ok(Value::Null),
        1 => match c.u8("bool")? {
            0 => Ok(Value::Bool(false)),
            1 => Ok(Value::Bool(true)),
            other => Err(format!("bool byte must be 0 or 1, got {other}")),
        },
        2 => Ok(Value::U64(c.u64("u64")?)),
        3 => Ok(Value::I64(c.u64("i64")? as i64)),
        4 => Ok(Value::F64(f64::from_bits(c.u64("f64")?))),
        5 => Ok(Value::Str(c.string("string")?)),
        6 => {
            let count = c.count("array")?;
            let mut items = Vec::new();
            for _ in 0..count {
                items.push(decode_value(c, depth + 1)?);
            }
            Ok(Value::Array(items))
        }
        7 => {
            let count = c.count("object")?;
            let mut fields = Vec::new();
            for _ in 0..count {
                let key = c.string("object key")?;
                fields.push((key, decode_value(c, depth + 1)?));
            }
            Ok(Value::Object(fields))
        }
        tag => Err(format!("unknown value tag {tag} at offset {}", c.pos - 1)),
    }
}

/// Decodes exactly one value tree from `buf`, requiring full consumption.
pub(crate) fn decode(buf: &[u8]) -> Result<Value, String> {
    let mut cursor = Cursor { buf, pos: 0 };
    let value = decode_value(&mut cursor, 0)?;
    if cursor.remaining() > 0 {
        return Err(format!(
            "{} trailing bytes after the value tree",
            cursor.remaining()
        ));
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(value: Value) {
        let bytes = encode(&value);
        let back = decode(&bytes).expect("decodes");
        assert_eq!(format!("{value:?}"), format!("{back:?}"));
    }

    #[test]
    fn scalars_round_trip_bit_exactly() {
        roundtrip(Value::Null);
        roundtrip(Value::Bool(true));
        roundtrip(Value::U64(u64::MAX));
        roundtrip(Value::I64(i64::MIN));
        roundtrip(Value::Str(String::new()));
        roundtrip(Value::Str("héllo ✓".into()));
        // The whole reason this codec exists: non-finite and
        // signed-zero floats survive, which JSON text cannot promise.
        for x in [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e-308,
        ] {
            let bytes = encode(&Value::F64(x));
            match decode(&bytes).expect("decodes") {
                Value::F64(back) => assert_eq!(back.to_bits(), x.to_bits()),
                other => panic!("decoded {other:?}"),
            }
        }
    }

    #[test]
    fn containers_round_trip() {
        roundtrip(Value::Array(vec![]));
        roundtrip(Value::Object(vec![]));
        roundtrip(Value::Object(vec![
            ("a".into(), Value::Array(vec![Value::U64(1), Value::Null])),
            (
                "b".into(),
                Value::Object(vec![("nested".into(), Value::F64(2.5))]),
            ),
        ]));
    }

    #[test]
    fn malformed_inputs_are_errors_not_panics() {
        assert!(decode(&[]).is_err());
        assert!(decode(&[99]).is_err(), "unknown tag");
        assert!(decode(&[2, 1, 2]).is_err(), "short u64");
        assert!(decode(&[1, 7]).is_err(), "bad bool byte");
        assert!(decode(&[5, 255, 255, 255, 255]).is_err(), "huge string");
        assert!(
            decode(&[6, 255, 255, 255, 255]).is_err(),
            "array count past the buffer"
        );
        assert!(decode(&[5, 2, 0, 0, 0, 0xff, 0xfe]).is_err(), "bad UTF-8");
        let mut trailing = encode(&Value::Null);
        trailing.push(0);
        assert!(decode(&trailing).is_err(), "trailing bytes");
    }

    #[test]
    fn hostile_nesting_hits_the_depth_limit() {
        // 10_000 nested single-element arrays around a null.
        let mut bytes = Vec::new();
        for _ in 0..10_000 {
            bytes.push(6);
            bytes.extend_from_slice(&1u32.to_le_bytes());
        }
        bytes.push(0);
        let err = decode(&bytes).expect_err("depth limit");
        assert!(err.contains("nesting"), "{err}");
    }
}
