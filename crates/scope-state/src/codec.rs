//! Little-endian primitive codecs: a growable [`Writer`] and a bounds-
//! checked [`Reader`] that turns every out-of-bounds read into a typed
//! [`SnapshotError::Truncated`] instead of a panic.

use crate::error::SnapshotError;

/// Append-only byte sink for one section payload.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `f64` as its IEEE-754 bit pattern: exact round-trip, NaNs included.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Collection length prefix (`u32`). Snapshots hold in-memory state, so
    /// a 4-billion-element collection cannot legitimately occur.
    pub fn put_len(&mut self, len: usize) {
        assert!(len <= u32::MAX as usize, "snapshot collection too large");
        self.put_u32(len as u32);
    }

    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
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

    fn need(&self, n: usize) -> Result<(), SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated { what: self.what });
        }
        Ok(())
    }

    pub fn take_u8(&mut self) -> Result<u8, SnapshotError> {
        self.need(1)?;
        let v = self.buf[self.pos];
        self.pos += 1;
        Ok(v)
    }

    pub fn take_u16(&mut self) -> Result<u16, SnapshotError> {
        self.need(2)?;
        let mut b = [0u8; 2];
        b.copy_from_slice(&self.buf[self.pos..self.pos + 2]);
        self.pos += 2;
        Ok(u16::from_le_bytes(b))
    }

    pub fn take_u32(&mut self) -> Result<u32, SnapshotError> {
        self.need(4)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(&self.buf[self.pos..self.pos + 4]);
        self.pos += 4;
        Ok(u32::from_le_bytes(b))
    }

    pub fn take_u64(&mut self) -> Result<u64, SnapshotError> {
        self.need(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.buf[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(u64::from_le_bytes(b))
    }

    pub fn take_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    pub fn take_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(SnapshotError::Corrupt {
                what: format!("{}: invalid bool byte {v}", self.what),
            }),
        }
    }

    /// Collection length prefix for elements of at least `min_elem_bytes`
    /// each. A count the remaining payload cannot hold is `Truncated` here,
    /// before the caller sizes a `Vec` by it.
    pub fn take_len(&mut self, min_elem_bytes: usize) -> Result<usize, SnapshotError> {
        let len = self.take_u32()? as usize;
        if len.saturating_mul(min_elem_bytes) > self.remaining() {
            return Err(SnapshotError::Truncated { what: self.what });
        }
        Ok(len)
    }

    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        self.need(n)?;
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Assert the payload is fully consumed — trailing bytes mean the
    /// writer and reader disagree about the section's shape.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::Corrupt {
                what: format!(
                    "{}: {} trailing bytes after decode",
                    self.what,
                    self.remaining()
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u16(0xBEEF);
        w.put_u32(123_456);
        w.put_u64(u64::MAX - 3);
        w.put_f64(-0.25);
        w.put_f64(f64::NAN);
        w.put_bool(true);
        w.put_bool(false);
        w.put_len(42);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "test");
        assert_eq!(r.take_u8().unwrap(), 7);
        assert_eq!(r.take_u16().unwrap(), 0xBEEF);
        assert_eq!(r.take_u32().unwrap(), 123_456);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.take_f64().unwrap(), -0.25);
        assert!(r.take_f64().unwrap().is_nan());
        assert!(r.take_bool().unwrap());
        assert!(!r.take_bool().unwrap());
        // take_len guards against lengths past the payload end.
        assert_eq!(
            r.take_len(1),
            Err(SnapshotError::Truncated { what: "test" })
        );
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
    fn truncation_is_typed_not_a_panic() {
        let mut r = Reader::new(&[1, 2, 3], "header");
        assert_eq!(
            r.take_u64(),
            Err(SnapshotError::Truncated { what: "header" })
        );
        // The failed read consumed nothing.
        assert_eq!(r.remaining(), 3);
    }

    #[test]
    fn invalid_bool_is_corrupt() {
        let mut r = Reader::new(&[9], "flags");
        assert!(matches!(r.take_bool(), Err(SnapshotError::Corrupt { .. })));
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let mut r = Reader::new(&[0, 1], "tail");
        r.take_u8().unwrap();
        assert!(matches!(r.finish(), Err(SnapshotError::Corrupt { .. })));
        r.take_u8().unwrap();
        assert_eq!(r.finish(), Ok(()));
    }
}
