//! One wire format per type: the [`Field`] trait writes a value and reads
//! it back through a bounds-checked [`Reader`], which turns every
//! out-of-bounds read into a typed [`SnapshotError::Truncated`] instead of
//! a panic.
//!
//! Integers are little-endian, an `f64` travels as its IEEE-754 bits, a
//! `bool` is one byte (0 or 1), a `usize` a `u64`, a `Vec` a `u32` count
//! then its elements, an `Option` a `bool` tag then the value, and a pair
//! its two halves in order. A struct lists its fields and their types once
//! in a `record!` block, which derives both directions and
//! [`Field::MIN_BYTES`] from that one list, so no layout is written twice.

use crate::error::SnapshotError;

/// A value with one byte layout, written by [`Field::put`] and read back by
/// [`Field::take`].
pub trait Field: Sized {
    /// The fewest bytes any value of the type encodes to. [`Reader::take_len`]
    /// refuses a collection count the remaining payload cannot hold at this
    /// size, before a `Vec` is sized by it.
    const MIN_BYTES: usize;

    fn put(&self, out: &mut Vec<u8>);

    fn take(r: &mut Reader<'_>) -> Result<Self, SnapshotError>;
}

/// One section payload: `value`'s bytes.
#[must_use]
pub fn encode<T: Field>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.put(&mut out);
    out
}

/// Read a whole section payload as one `T`; `what` names the section in
/// errors, and trailing bytes are [`SnapshotError::Corrupt`].
pub fn decode<T: Field>(bytes: &[u8], what: &'static str) -> Result<T, SnapshotError> {
    let mut r = Reader::new(bytes, what);
    let value = T::take(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Cursor over one section payload. `what` names the structure being
/// decoded so truncation errors say where the stream ended.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> Reader<'a> {
    #[must_use]
    pub fn new(buf: &'a [u8], what: &'static str) -> Self {
        Self { buf, pos: 0, what }
    }

    /// Rename the structure under decode (for multi-part payloads).
    pub fn set_context(&mut self, what: &'static str) {
        self.what = what;
    }

    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes; a short payload is `Truncated` and consumes
    /// nothing.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated { what: self.what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Structurally invalid content inside the structure under decode.
    #[must_use]
    pub fn corrupt(&self, why: std::fmt::Arguments<'_>) -> SnapshotError {
        SnapshotError::Corrupt {
            what: format!("{}: {why}", self.what),
        }
    }

    /// Collection length prefix for elements of at least `min_elem_bytes`
    /// each. A count the remaining payload cannot hold is `Truncated` here,
    /// before the caller sizes a `Vec` by it.
    pub fn take_len(&mut self, min_elem_bytes: usize) -> Result<usize, SnapshotError> {
        let len = u32::take(self)? as usize;
        if len.saturating_mul(min_elem_bytes) > self.remaining() {
            return Err(SnapshotError::Truncated { what: self.what });
        }
        Ok(len)
    }

    /// Assert the payload is fully consumed — trailing bytes mean the
    /// writer and reader disagree about the section's shape.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(self.corrupt(format_args!(
                "{} trailing bytes after decode",
                self.remaining()
            )));
        }
        Ok(())
    }
}

macro_rules! int_field {
    ($($t:ty),*) => {$(
        impl Field for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();

            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn take(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
                let mut b = [0u8; std::mem::size_of::<$t>()];
                b.copy_from_slice(r.bytes(std::mem::size_of::<$t>())?);
                Ok(<$t>::from_le_bytes(b))
            }
        }
    )*};
}

int_field!(u8, u16, u32, u64);

/// Exact round-trip, NaNs included.
impl Field for f64 {
    const MIN_BYTES: usize = 8;

    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }

    fn take(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(f64::from_bits(u64::take(r)?))
    }
}

impl Field for bool {
    const MIN_BYTES: usize = 1;

    fn put(&self, out: &mut Vec<u8>) {
        u8::from(*self).put(out);
    }

    fn take(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        match u8::take(r)? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(r.corrupt(format_args!("invalid bool byte {v}"))),
        }
    }
}

impl Field for usize {
    const MIN_BYTES: usize = 8;

    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }

    fn take(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(u64::take(r)? as usize)
    }
}

/// A `u32` count, then the elements. Snapshots hold in-memory state, so a
/// 4-billion-element collection cannot legitimately occur.
impl<T: Field> Field for Vec<T> {
    const MIN_BYTES: usize = 4;

    fn put(&self, out: &mut Vec<u8>) {
        write_seq(self, out);
    }

    fn take(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let n = r.take_len(T::MIN_BYTES)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::take(r)?);
        }
        Ok(items)
    }
}

/// `items` laid out as a `Vec<T>`, for types that hold their elements in
/// a slice.
pub(crate) fn write_seq<T: Field>(items: &[T], out: &mut Vec<u8>) {
    assert!(
        items.len() <= u32::MAX as usize,
        "snapshot collection too large"
    );
    (items.len() as u32).put(out);
    for item in items {
        item.put(out);
    }
}

impl<T: Field> Field for Option<T> {
    const MIN_BYTES: usize = 1;

    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        if let Some(v) = self {
            v.put(out);
        }
    }

    fn take(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(if bool::take(r)? {
            Some(T::take(r)?)
        } else {
            None
        })
    }
}

impl<A: Field, B: Field> Field for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;

    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }

    fn take(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::take(r)?, B::take(r)?))
    }
}

/// `Type { field: FieldType, … }` for each listed struct: the fields travel
/// in the listed order, and `MIN_BYTES` is the sum of theirs. A field name
/// may be a tuple index (`TemplateId { 0: u64 }`).
macro_rules! record {
    ($($ty:ident { $($field:tt: $fty:ty),* $(,)? })*) => {$(
        impl $crate::codec::Field for $ty {
            const MIN_BYTES: usize =
                0 $(+ <$fty as $crate::codec::Field>::MIN_BYTES)*;

            fn put(&self, out: &mut Vec<u8>) {
                $($crate::codec::Field::put(&self.$field, out);)*
            }

            fn take(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::error::SnapshotError> {
                // Struct-expression fields evaluate in the order written.
                Ok($ty {
                    $($field: <$fty as $crate::codec::Field>::take(r)?),*
                })
            }
        }
    )*};
}

pub(crate) use record;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut out = Vec::new();
        7u8.put(&mut out);
        0xBEEFu16.put(&mut out);
        123_456u32.put(&mut out);
        (u64::MAX - 3).put(&mut out);
        (-0.25f64).put(&mut out);
        f64::NAN.put(&mut out);
        true.put(&mut out);
        false.put(&mut out);
        42u32.put(&mut out);
        let mut r = Reader::new(&out, "test");
        assert_eq!(u8::take(&mut r).unwrap(), 7);
        assert_eq!(u16::take(&mut r).unwrap(), 0xBEEF);
        assert_eq!(u32::take(&mut r).unwrap(), 123_456);
        assert_eq!(u64::take(&mut r).unwrap(), u64::MAX - 3);
        assert_eq!(f64::take(&mut r).unwrap(), -0.25);
        assert!(f64::take(&mut r).unwrap().is_nan());
        assert!(bool::take(&mut r).unwrap());
        assert!(!bool::take(&mut r).unwrap());
        // take_len guards against lengths past the payload end.
        assert_eq!(
            r.take_len(1),
            Err(SnapshotError::Truncated { what: "test" })
        );
    }

    #[test]
    fn compounds_round_trip() {
        let value = (vec![(1u32, 0.5f64), (u32::MAX, -2.0)], Some((9usize, true)));
        let bytes = encode(&value);
        assert_eq!(bytes.len(), 4 + 2 * 12 + 1 + 8 + 1);
        assert_eq!(decode(&bytes, "test"), Ok(value));
        assert_eq!(decode(&encode(&None::<u64>), "test"), Ok(None::<u64>));
    }

    #[test]
    fn take_len_bounds_the_count_by_the_element_size() {
        let mut bytes = 2u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 23]);
        // Two 12-byte elements need 24 bytes; 23 remain.
        assert_eq!(
            Reader::new(&bytes, "pairs").take_len(12),
            Err(SnapshotError::Truncated { what: "pairs" })
        );
        assert_eq!(Reader::new(&bytes, "pairs").take_len(11), Ok(2));
        // A count that would overflow `n * min` is still just truncated.
        let huge = u32::MAX.to_le_bytes();
        assert_eq!(
            Reader::new(&huge, "pairs").take_len(usize::MAX),
            Err(SnapshotError::Truncated { what: "pairs" })
        );
    }

    #[test]
    fn a_vec_refuses_a_hostile_count_before_reading_an_element() {
        // Three `u64`s promised, 23 bytes follow: the count alone is
        // refused, so no element was read and no `Vec` sized by it.
        let mut bytes = 3u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 23]);
        let mut r = Reader::new(&bytes, "longs");
        assert_eq!(
            Vec::<u64>::take(&mut r),
            Err(SnapshotError::Truncated { what: "longs" })
        );
        assert_eq!(r.remaining(), 23);
    }

    #[test]
    fn truncation_is_typed_not_a_panic() {
        let mut r = Reader::new(&[1, 2, 3], "header");
        assert_eq!(
            u64::take(&mut r),
            Err(SnapshotError::Truncated { what: "header" })
        );
        // The failed read consumed nothing.
        assert_eq!(r.remaining(), 3);
    }

    #[test]
    fn invalid_bool_is_corrupt() {
        let mut r = Reader::new(&[9], "flags");
        assert!(matches!(
            bool::take(&mut r),
            Err(SnapshotError::Corrupt { .. })
        ));
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let mut r = Reader::new(&[0, 1], "tail");
        u8::take(&mut r).unwrap();
        assert!(matches!(r.finish(), Err(SnapshotError::Corrupt { .. })));
        u8::take(&mut r).unwrap();
        assert_eq!(r.finish(), Ok(()));
        assert!(matches!(
            decode::<u8>(&[0, 1], "tail"),
            Err(SnapshotError::Corrupt { .. })
        ));
    }
}
