//! Array metadata: the small JSON header stored next to the chunks.
//!
//! One `meta.json` per array records everything a reader needs to
//! reconstruct the tensor: shape, chunk shape, element dtype (f32 or a
//! posit format), the Eq. 2 scale exponent that was frozen into the packed
//! plane, the codec chain, and a format-version tag. The JSON is produced
//! and consumed by a deliberately tiny in-tree reader/writer (the container
//! has no serde), restricted to the value shapes this schema uses: flat
//! objects of strings, integers and arrays thereof.

use crate::error::StoreError;
use posit::PositFormat;

/// Version tag written into every header; readers reject anything newer.
pub const FORMAT_VERSION: u32 = 1;

/// Element-count ceiling a parsed header will believe (2^31 — generous for
/// any tensor this system stores, small enough that a corrupted or
/// hand-edited shape cannot drive `read_tensor`'s output allocation into
/// the terabytes or overflow the slab size).
pub const MAX_ELEMENTS: u64 = 1 << 31;

/// The keys every header carries, whatever its dtype.
const SCHEMA_KEYS: [&str; 6] = [
    "posit_store_version",
    "shape",
    "chunk_shape",
    "dtype",
    "scale_exp",
    "codecs",
];

/// Element dtype of a stored array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dtype {
    /// Little-endian IEEE-754 f32 elements.
    F32,
    /// Posit code words of the given format.
    Posit(PositFormat),
}

impl Dtype {
    /// Bytes per element word in the raw (pre-codec) slab.
    pub fn word_bytes(&self) -> usize {
        match self {
            Dtype::F32 => 4,
            Dtype::Posit(fmt) => posit_tensor::PackedBits::bytes_per_elem(*fmt),
        }
    }

    /// True bits per element (what the bit-packed on-disk form costs).
    pub fn bits_per_elem(&self) -> u32 {
        match self {
            Dtype::F32 => 32,
            Dtype::Posit(fmt) => fmt.n(),
        }
    }
}

/// The parsed/serializable array header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayMeta {
    /// Array shape.
    pub shape: Vec<usize>,
    /// Regular chunk shape.
    pub chunk_shape: Vec<usize>,
    /// Element dtype.
    pub dtype: Dtype,
    /// Frozen Eq. 2 scale exponent (`0` and ignored for f32).
    pub scale_exp: i32,
    /// Codec chain spec strings, in encode order.
    pub codecs: Vec<String>,
}

impl ArrayMeta {
    /// Serialize as the canonical JSON header.
    pub fn to_json(&self) -> String {
        let ints = |v: &[usize]| {
            v.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        };
        let codecs = self
            .codecs
            .iter()
            .map(|c| format!("\"{c}\""))
            .collect::<Vec<_>>()
            .join(", ");
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"posit_store_version\": {FORMAT_VERSION},\n"));
        s.push_str(&format!("  \"shape\": [{}],\n", ints(&self.shape)));
        s.push_str(&format!(
            "  \"chunk_shape\": [{}],\n",
            ints(&self.chunk_shape)
        ));
        match self.dtype {
            Dtype::F32 => s.push_str("  \"dtype\": \"f32\",\n"),
            Dtype::Posit(fmt) => {
                s.push_str("  \"dtype\": \"posit\",\n");
                s.push_str(&format!("  \"posit_n\": {},\n", fmt.n()));
                s.push_str(&format!("  \"posit_es\": {},\n", fmt.es()));
            }
        }
        s.push_str(&format!("  \"scale_exp\": {},\n", self.scale_exp));
        s.push_str(&format!("  \"codecs\": [{codecs}]\n"));
        s.push('}');
        s
    }

    /// Parse a header produced by [`ArrayMeta::to_json`] (or a hand-written
    /// equivalent — whitespace and key order are free).
    ///
    /// # Errors
    ///
    /// `Corrupt` on malformed JSON, unknown versions, missing/ill-typed
    /// fields, or keys the schema does not define (`posit_n`/`posit_es`
    /// belong to the `"posit"` dtype only).
    pub fn from_json(text: &str) -> Result<ArrayMeta, StoreError> {
        let obj = json::parse_object(text)?;
        let version = obj.int("posit_store_version")?;
        if version != FORMAT_VERSION as i64 {
            return Err(StoreError::Corrupt(format!(
                "unsupported posit-store version {version}"
            )));
        }
        let shape = obj.usize_array("shape")?;
        let chunk_shape = obj.usize_array("chunk_shape")?;
        let elems = shape
            .iter()
            .try_fold(1u64, |acc, &d| acc.checked_mul(d as u64))
            .filter(|&n| n <= MAX_ELEMENTS);
        if elems.is_none() {
            return Err(StoreError::Corrupt(format!(
                "implausible element count for shape {shape:?}"
            )));
        }
        let dtype = match obj.string("dtype")?.as_str() {
            "f32" => Dtype::F32,
            "posit" => {
                let n = obj.int("posit_n")?;
                let es = obj.int("posit_es")?;
                if !(2..=32).contains(&n) || !(0..=4).contains(&es) {
                    return Err(StoreError::Corrupt(format!(
                        "implausible posit format ({n},{es})"
                    )));
                }
                Dtype::Posit(PositFormat::of(n as u32, es as u32))
            }
            other => {
                return Err(StoreError::Corrupt(format!("unknown dtype {other:?}")));
            }
        };
        let posit_keys: &[&str] = match dtype {
            Dtype::F32 => &[],
            Dtype::Posit(_) => &["posit_n", "posit_es"],
        };
        if let Some(key) = obj
            .keys()
            .find(|k| !SCHEMA_KEYS.contains(k) && !posit_keys.contains(k))
        {
            return Err(StoreError::Corrupt(format!(
                "unknown metadata key {key:?} for this dtype"
            )));
        }
        let scale_exp = obj.int("scale_exp")?;
        if scale_exp.unsigned_abs() > 1 << 20 {
            return Err(StoreError::Corrupt(format!(
                "implausible scale exponent {scale_exp}"
            )));
        }
        let codecs = obj.string_array("codecs")?;
        Ok(ArrayMeta {
            shape,
            chunk_shape,
            dtype,
            scale_exp: scale_exp as i32,
            codecs,
        })
    }
}

/// The minimal JSON subset reader backing [`ArrayMeta::from_json`].
mod json {
    use crate::error::StoreError;
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Int(i64),
        Str(String),
        Array(Vec<Value>),
    }

    /// A parsed flat object.
    pub struct Object(BTreeMap<String, Value>);

    impl Object {
        fn get(&self, key: &str) -> Result<&Value, StoreError> {
            self.0
                .get(key)
                .ok_or_else(|| StoreError::Corrupt(format!("metadata lacks {key:?}")))
        }

        /// Every key of the object.
        pub fn keys(&self) -> impl Iterator<Item = &str> {
            self.0.keys().map(String::as_str)
        }

        pub fn int(&self, key: &str) -> Result<i64, StoreError> {
            match self.get(key)? {
                Value::Int(v) => Ok(*v),
                _ => Err(StoreError::Corrupt(format!("{key:?} is not an integer"))),
            }
        }

        pub fn string(&self, key: &str) -> Result<String, StoreError> {
            match self.get(key)? {
                Value::Str(s) => Ok(s.clone()),
                _ => Err(StoreError::Corrupt(format!("{key:?} is not a string"))),
            }
        }

        pub fn usize_array(&self, key: &str) -> Result<Vec<usize>, StoreError> {
            match self.get(key)? {
                Value::Array(vs) => vs
                    .iter()
                    .map(|v| match v {
                        Value::Int(i) if *i >= 0 => Ok(*i as usize),
                        _ => Err(StoreError::Corrupt(format!(
                            "{key:?} holds a non-natural element"
                        ))),
                    })
                    .collect(),
                _ => Err(StoreError::Corrupt(format!("{key:?} is not an array"))),
            }
        }

        pub fn string_array(&self, key: &str) -> Result<Vec<String>, StoreError> {
            match self.get(key)? {
                Value::Array(vs) => vs
                    .iter()
                    .map(|v| match v {
                        Value::Str(s) => Ok(s.clone()),
                        _ => Err(StoreError::Corrupt(format!(
                            "{key:?} holds a non-string element"
                        ))),
                    })
                    .collect(),
                _ => Err(StoreError::Corrupt(format!("{key:?} is not an array"))),
            }
        }
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Parser<'a> {
        fn err(&self, msg: &str) -> StoreError {
            StoreError::Corrupt(format!("metadata JSON at byte {}: {msg}", self.pos))
        }

        fn skip_ws(&mut self) {
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|b| b.is_ascii_whitespace())
            {
                self.pos += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), StoreError> {
            self.skip_ws();
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.err(&format!("expected {:?}", b as char)))
            }
        }

        fn parse_string(&mut self) -> Result<String, StoreError> {
            self.expect(b'"')?;
            let start = self.pos;
            loop {
                match self.peek() {
                    Some(b'"') => {
                        let s = std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("non-utf8 string"))?
                            .to_string();
                        self.pos += 1;
                        // The schema never needs escapes; reject rather than
                        // mis-parse them.
                        if s.contains('\\') {
                            return Err(self.err("escape sequences unsupported"));
                        }
                        return Ok(s);
                    }
                    Some(_) => self.pos += 1,
                    None => return Err(self.err("unterminated string")),
                }
            }
        }

        fn parse_int(&mut self) -> Result<i64, StoreError> {
            self.skip_ws();
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            std::str::from_utf8(&self.bytes[start..self.pos])
                .ok()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| self.err("expected integer"))
        }

        fn parse_value(&mut self) -> Result<Value, StoreError> {
            self.skip_ws();
            match self.peek() {
                Some(b'"') => Ok(Value::Str(self.parse_string()?)),
                Some(b'[') => {
                    self.pos += 1;
                    let mut vs = Vec::new();
                    self.skip_ws();
                    if self.peek() == Some(b']') {
                        self.pos += 1;
                        return Ok(Value::Array(vs));
                    }
                    loop {
                        vs.push(self.parse_value()?);
                        self.skip_ws();
                        match self.peek() {
                            Some(b',') => self.pos += 1,
                            Some(b']') => {
                                self.pos += 1;
                                return Ok(Value::Array(vs));
                            }
                            _ => return Err(self.err("expected ',' or ']'")),
                        }
                    }
                }
                Some(b'-') | Some(b'0'..=b'9') => Ok(Value::Int(self.parse_int()?)),
                _ => Err(self.err("unsupported value")),
            }
        }
    }

    /// Parse a flat JSON object of the schema's value shapes.
    pub fn parse_object(text: &str) -> Result<Object, StoreError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.expect(b'{')?;
        let mut map = BTreeMap::new();
        p.skip_ws();
        if p.peek() == Some(b'}') {
            p.pos += 1;
        } else {
            loop {
                let key = p.parse_string()?;
                p.expect(b':')?;
                let value = p.parse_value()?;
                map.insert(key, value);
                p.skip_ws();
                match p.peek() {
                    Some(b',') => p.pos += 1,
                    Some(b'}') => {
                        p.pos += 1;
                        break;
                    }
                    _ => return Err(p.err("expected ',' or '}'")),
                }
            }
        }
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing bytes after object"));
        }
        Ok(Object(map))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(dtype: Dtype) -> ArrayMeta {
        ArrayMeta {
            shape: vec![5, 7],
            chunk_shape: vec![2, 3],
            dtype,
            scale_exp: -2,
            codecs: vec!["posit_bitpack:8".into(), "crc32".into()],
        }
    }

    #[test]
    fn json_roundtrip_posit_and_f32() {
        for dtype in [Dtype::Posit(PositFormat::of(8, 1)), Dtype::F32] {
            let m = sample(dtype);
            let text = m.to_json();
            let back = ArrayMeta::from_json(&text).unwrap();
            assert_eq!(back, m, "{text}");
        }
    }

    #[test]
    fn parser_tolerates_formatting_freedom() {
        let text = r#"{"chunk_shape":[2,3],"codecs":[],"dtype":"f32",
            "scale_exp": 0, "shape": [ 4 ], "posit_store_version": 1}"#;
        let m = ArrayMeta::from_json(text).unwrap();
        assert_eq!(m.shape, vec![4]);
        assert_eq!(m.dtype, Dtype::F32);
        assert!(m.codecs.is_empty());
    }

    #[test]
    fn rejects_bad_headers() {
        // Future version.
        let next = sample(Dtype::F32)
            .to_json()
            .replace("\"posit_store_version\": 1", "\"posit_store_version\": 99");
        assert!(ArrayMeta::from_json(&next).is_err());
        // Missing field.
        assert!(ArrayMeta::from_json(r#"{"posit_store_version": 1}"#).is_err());
        // Ill-typed field.
        let bad = sample(Dtype::F32).to_json().replace("[2, 3]", "\"2x3\"");
        assert!(ArrayMeta::from_json(&bad).is_err());
        // Negative dimension.
        let neg = sample(Dtype::F32).to_json().replace("[5, 7]", "[-5, 7]");
        assert!(ArrayMeta::from_json(&neg).is_err());
        // Implausible posit format.
        let m = sample(Dtype::Posit(PositFormat::of(8, 1)));
        let bad_fmt = m.to_json().replace("\"posit_n\": 8", "\"posit_n\": 99");
        assert!(ArrayMeta::from_json(&bad_fmt).is_err());
        // A shape whose element count would drive a reader's allocation
        // into the terabytes (or overflow) is framing damage.
        let huge = sample(Dtype::F32)
            .to_json()
            .replace("[5, 7]", "[1073741824, 1073741824]");
        assert!(ArrayMeta::from_json(&huge).is_err());
        // Trailing garbage and truncation.
        let text = sample(Dtype::F32).to_json();
        assert!(ArrayMeta::from_json(&format!("{text}x")).is_err());
        assert!(ArrayMeta::from_json(&text[..text.len() - 1]).is_err());
        assert!(ArrayMeta::from_json("").is_err());
    }

    #[test]
    fn rejects_unknown_keys() {
        // An extra key is damage or a writer this reader does not know.
        let extra = sample(Dtype::F32)
            .to_json()
            .replace("\"codecs\"", "\"checksum\": 7,\n  \"codecs\"");
        assert!(matches!(
            ArrayMeta::from_json(&extra),
            Err(StoreError::Corrupt(_))
        ));
        // The posit format keys belong to the posit dtype only.
        let stray = sample(Dtype::F32)
            .to_json()
            .replace("\"dtype\"", "\"posit_n\": 8,\n  \"dtype\"");
        assert!(matches!(
            ArrayMeta::from_json(&stray),
            Err(StoreError::Corrupt(_))
        ));
        let posit = sample(Dtype::Posit(PositFormat::of(8, 1))).to_json();
        assert!(ArrayMeta::from_json(&posit).is_ok());
    }

    #[test]
    fn dtype_geometry() {
        assert_eq!(Dtype::F32.word_bytes(), 4);
        assert_eq!(Dtype::F32.bits_per_elem(), 32);
        let p6 = Dtype::Posit(PositFormat::of(6, 0));
        assert_eq!(p6.word_bytes(), 1);
        assert_eq!(p6.bits_per_elem(), 6);
        let p16 = Dtype::Posit(PositFormat::of(16, 1));
        assert_eq!(p16.word_bytes(), 2);
        assert_eq!(p16.bits_per_elem(), 16);
    }
}
