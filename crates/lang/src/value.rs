//! Runtime values of the lowered-Gallina source language.

use std::fmt;

/// The element kind of a flat array (Bedrock2 access size on the target side).
///
/// Rupicola's `ListArray` module is polymorphic over element representation;
/// we support the two representations exercised by the paper's benchmark
/// suite: bytes (`char*`-style arrays) and 64-bit machine words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElemKind {
    /// One byte per element (`uint8_t`).
    Byte,
    /// One 64-bit word per element (`uintptr_t`).
    Word,
}

impl ElemKind {
    /// The width of one element in bytes on the Bedrock2 side.
    pub fn width(self) -> u64 {
        match self {
            ElemKind::Byte => 1,
            ElemKind::Word => 8,
        }
    }
}

impl fmt::Display for ElemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElemKind::Byte => write!(f, "byte"),
            ElemKind::Word => write!(f, "word"),
        }
    }
}

/// A source-level value.
///
/// The source semantics is pure: arrays (`ByteList`, `WordList`) are
/// immutable snapshots, and "updates" build new values. Scalars are split by
/// kind — the expression compiler case study of the paper (§4.1.3) relies on
/// distinguishing booleans, bytes, machine words and natural numbers, with
/// explicit casts between them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// The unit value (result of effect-only computations).
    Unit,
    /// A boolean.
    Bool(bool),
    /// An 8-bit byte.
    Byte(u8),
    /// A 64-bit machine word.
    Word(u64),
    /// A natural number. Gallina naturals are unbounded; we model the
    /// fragment that fits a `u64` and treat overflow as an evaluation error
    /// (the compiled code would be partial there anyway).
    Nat(u64),
    /// A list of bytes (`list byte` under a `ListArray` interpretation).
    ByteList(Vec<u8>),
    /// A list of words (`list word`).
    WordList(Vec<u64>),
    /// A pair.
    Pair(Box<Value>, Box<Value>),
    /// A one-word mutable cell (pure model: the content).
    Cell(u64),
}

impl Value {
    /// Convenience constructor for byte lists.
    pub fn byte_list<I: IntoIterator<Item = u8>>(bytes: I) -> Self {
        Value::ByteList(bytes.into_iter().collect())
    }

    /// Convenience constructor for word lists.
    pub fn word_list<I: IntoIterator<Item = u64>>(words: I) -> Self {
        Value::WordList(words.into_iter().collect())
    }

    /// Convenience constructor for pairs.
    pub fn pair(a: Value, b: Value) -> Self {
        Value::Pair(Box::new(a), Box::new(b))
    }

    /// A short, stable tag naming this value's type (used in error messages).
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Unit => "unit",
            Value::Bool(_) => "bool",
            Value::Byte(_) => "byte",
            Value::Word(_) => "word",
            Value::Nat(_) => "nat",
            Value::ByteList(_) => "byte list",
            Value::WordList(_) => "word list",
            Value::Pair(_, _) => "pair",
            Value::Cell(_) => "cell",
        }
    }

    /// Returns the boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the byte payload, if this is a `Byte`.
    pub fn as_byte(&self) -> Option<u8> {
        match self {
            Value::Byte(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the word payload, if this is a `Word`.
    pub fn as_word(&self) -> Option<u64> {
        match self {
            Value::Word(w) => Some(*w),
            _ => None,
        }
    }

    /// Returns the natural-number payload, if this is a `Nat`.
    pub fn as_nat(&self) -> Option<u64> {
        match self {
            Value::Nat(n) => Some(*n),
            _ => None,
        }
    }

    /// The scalar's 64-bit representation in a Bedrock2 local, if scalar.
    ///
    /// Booleans map to 0/1, bytes zero-extend, naturals must fit (they do by
    /// construction here), and `Unit` maps to 0.
    pub fn to_scalar_word(&self) -> Option<u64> {
        match self {
            Value::Unit => Some(0),
            Value::Bool(b) => Some(u64::from(*b)),
            Value::Byte(b) => Some(u64::from(*b)),
            Value::Word(w) => Some(*w),
            Value::Nat(n) => Some(*n),
            _ => None,
        }
    }

    /// The length of a list value, if this is a list.
    pub fn list_len(&self) -> Option<usize> {
        match self {
            Value::ByteList(v) => Some(v.len()),
            Value::WordList(v) => Some(v.len()),
            _ => None,
        }
    }

    /// Views a list value as raw bytes in the Bedrock2 layout (little-endian
    /// words for `WordList`).
    pub fn to_layout_bytes(&self) -> Option<Vec<u8>> {
        match self {
            Value::ByteList(v) => Some(v.clone()),
            Value::WordList(v) => {
                let mut out = Vec::with_capacity(v.len() * 8);
                for w in v {
                    out.extend_from_slice(&w.to_le_bytes());
                }
                Some(out)
            }
            Value::Cell(w) => Some(w.to_le_bytes().to_vec()),
            _ => None,
        }
    }

    /// Reconstructs a list value of the given element kind from raw bytes.
    ///
    /// Inverse of [`Value::to_layout_bytes`] for lists. Returns `None` when
    /// `bytes` is not a whole number of elements.
    pub fn from_layout_bytes(elem: ElemKind, bytes: &[u8]) -> Option<Value> {
        match elem {
            ElemKind::Byte => Some(Value::ByteList(bytes.to_vec())),
            ElemKind::Word => {
                if !bytes.len().is_multiple_of(8) {
                    return None;
                }
                let words = bytes
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
                    .collect();
                Some(Value::WordList(words))
            }
        }
    }

    /// The element at `idx` of a list value, wrapped as a scalar of the
    /// list's element kind.
    pub fn list_get(&self, idx: usize) -> Option<Value> {
        match self {
            Value::ByteList(v) => v.get(idx).map(|b| Value::Byte(*b)),
            Value::WordList(v) => v.get(idx).map(|w| Value::Word(*w)),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "tt"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Byte(b) => write!(f, "{b}u8"),
            Value::Word(w) => write!(f, "{w}"),
            Value::Nat(n) => write!(f, "{n}n"),
            Value::ByteList(v) => {
                write!(f, "[")?;
                for (i, b) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{b}")?;
                }
                write!(f, "]")
            }
            Value::WordList(v) => {
                write!(f, "[")?;
                for (i, w) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{w}")?;
                }
                write!(f, "]")
            }
            Value::Pair(a, b) => write!(f, "({a}, {b})"),
            Value::Cell(w) => write!(f, "cell({w})"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<u8> for Value {
    fn from(b: u8) -> Self {
        Value::Byte(b)
    }
}

impl From<u64> for Value {
    fn from(w: u64) -> Self {
        Value::Word(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_word_roundtrips() {
        assert_eq!(Value::Bool(true).to_scalar_word(), Some(1));
        assert_eq!(Value::Byte(0xab).to_scalar_word(), Some(0xab));
        assert_eq!(Value::Word(42).to_scalar_word(), Some(42));
        assert_eq!(Value::Nat(7).to_scalar_word(), Some(7));
        assert_eq!(Value::Unit.to_scalar_word(), Some(0));
        assert_eq!(Value::byte_list([1, 2]).to_scalar_word(), None);
    }

    #[test]
    fn layout_bytes_roundtrip_words() {
        let v = Value::word_list([1, 0xdead_beef, u64::MAX]);
        let bytes = v.to_layout_bytes().unwrap();
        assert_eq!(bytes.len(), 24);
        assert_eq!(Value::from_layout_bytes(ElemKind::Word, &bytes), Some(v));
    }

    #[test]
    fn layout_bytes_roundtrip_bytes() {
        let v = Value::byte_list(*b"hello");
        let bytes = v.to_layout_bytes().unwrap();
        assert_eq!(Value::from_layout_bytes(ElemKind::Byte, &bytes), Some(v));
    }

    #[test]
    fn from_layout_rejects_ragged_words() {
        assert_eq!(Value::from_layout_bytes(ElemKind::Word, &[0; 9]), None);
    }

    #[test]
    fn list_get_wraps_element_kind() {
        assert_eq!(Value::byte_list([9]).list_get(0), Some(Value::Byte(9)));
        assert_eq!(Value::word_list([9]).list_get(0), Some(Value::Word(9)));
        assert_eq!(Value::word_list([9]).list_get(1), None);
    }

    #[test]
    fn display_is_nonempty() {
        for v in [
            Value::Unit,
            Value::Bool(false),
            Value::byte_list([]),
            Value::pair(Value::Word(1), Value::Nat(2)),
        ] {
            assert!(!format!("{v}").is_empty());
        }
    }
}
