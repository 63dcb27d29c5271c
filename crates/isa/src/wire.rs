//! A minimal, versioned, little-endian wire format used to persist
//! images and randomization artefacts to disk (no external
//! serialization dependency).

use std::fmt;

/// A wire-format decoding failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    Truncated,
    /// The magic/version header did not match.
    BadMagic {
        /// What was expected.
        expected: [u8; 8],
        /// What was found.
        found: [u8; 8],
    },
    /// A length field exceeded sanity bounds.
    LengthOutOfRange {
        /// The offending length.
        len: u64,
    },
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// An enum discriminant was unknown.
    BadTag {
        /// The offending tag byte.
        tag: u8,
    },
    /// A saved memory page index was out of range, repeated, or below its
    /// predecessor (pages are saved once each, in ascending order).
    BadPageIndex {
        /// The offending page index.
        index: u32,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated input"),
            WireError::BadMagic { expected, found } => write!(
                f,
                "bad magic: expected {:?}, found {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found)
            ),
            WireError::LengthOutOfRange { len } => write!(f, "length field {len} out of range"),
            WireError::BadUtf8 => write!(f, "invalid utf-8 in string field"),
            WireError::BadTag { tag } => write!(f, "unknown tag byte {tag:#04x}"),
            WireError::BadPageIndex { index } => {
                write!(f, "page index {index:#x} out of range, repeated or out of order")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Maximum accepted collection/byte-array length (guards corrupt files).
const MAX_LEN: u64 = 1 << 32;

/// An append-only encoder.
#[derive(Clone, Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an encoder beginning with the 8-byte `magic` header.
    pub fn with_magic(magic: [u8; 8]) -> Writer {
        let mut w = Writer::default();
        w.buf.extend_from_slice(&magic);
        w
    }

    /// Like [`Writer::with_magic`], with room for `capacity` bytes in all
    /// before the buffer has to grow.
    pub fn with_magic_and_capacity(magic: [u8; 8], capacity: usize) -> Writer {
        let mut w = Writer { buf: Vec::with_capacity(capacity.max(8)) };
        w.buf.extend_from_slice(&magic);
        w
    }

    /// Consumes the encoder, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed byte array.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends `v` as is, with no length prefix (e.g. the magic header
    /// of a stream nested inside this one).
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Opens a length-prefixed byte array whose contents the calls that
    /// follow write in place, until [`Writer::end_bytes`] closes it with
    /// the returned mark. The bytes are those [`Writer::bytes`] would
    /// write for the same contents, without building them apart first.
    pub fn begin_bytes(&mut self) -> usize {
        let mark = self.buf.len();
        self.u64(0);
        mark
    }

    /// Closes the byte array opened at `mark`: fills in its length
    /// prefix and returns its contents.
    pub fn end_bytes(&mut self, mark: usize) -> &[u8] {
        let start = mark + 8;
        let len = (self.buf.len() - start) as u64;
        self.buf[mark..start].copy_from_slice(&len.to_le_bytes());
        &self.buf[start..]
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn string(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// A cursor-based decoder.
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a decoder, checking the 8-byte `magic` header.
    ///
    /// # Errors
    ///
    /// [`WireError::BadMagic`] when the header mismatches,
    /// [`WireError::Truncated`] when the input is shorter than a header.
    pub fn with_magic(buf: &'a [u8], magic: [u8; 8]) -> Result<Reader<'a>, WireError> {
        if buf.len() < 8 {
            return Err(WireError::Truncated);
        }
        let mut found = [0u8; 8];
        found.copy_from_slice(&buf[..8]);
        if found != magic {
            return Err(WireError::BadMagic { expected: magic, found });
        }
        Ok(Reader { buf, pos: 8 })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of input.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of input.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of input.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a length-prefixed byte array.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] / [`WireError::LengthOutOfRange`].
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u64()?;
        if len > MAX_LEN {
            return Err(WireError::LengthOutOfRange { len });
        }
        self.take(len as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`WireError::BadUtf8`] plus the byte-array errors.
    pub fn string(&mut self) -> Result<String, WireError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| WireError::BadUtf8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 8] = *b"VCFRTEST";

    #[test]
    fn roundtrip_all_primitives() {
        let mut w = Writer::with_magic(MAGIC);
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX);
        w.bytes(&[1, 2, 3]);
        w.string("héllo");
        let buf = w.into_bytes();

        let mut r = Reader::with_magic(&buf, MAGIC).unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.string().unwrap(), "héllo");
        assert!(r.is_exhausted());
    }

    #[test]
    fn in_place_byte_arrays_match_prebuilt_ones() {
        let mut inner = Writer::with_magic(*b"INNERMAG");
        inner.u32(5);
        inner.string("x");
        let mut w = Writer::with_magic(MAGIC);
        w.u8(1);
        w.bytes(&inner.into_bytes());
        w.u8(2);

        let mut v = Writer::with_magic_and_capacity(MAGIC, 4);
        v.u8(1);
        let mark = v.begin_bytes();
        v.raw(b"INNERMAG");
        v.u32(5);
        v.string("x");
        assert_eq!(v.end_bytes(mark).len(), 8 + 4 + 8 + 1);
        v.u8(2);
        assert_eq!(v.into_bytes(), w.into_bytes());
    }

    #[test]
    fn bad_magic_rejected() {
        let w = Writer::with_magic(MAGIC);
        let buf = w.into_bytes();
        let err = Reader::with_magic(&buf, *b"OTHERMAG").unwrap_err();
        assert!(matches!(err, WireError::BadMagic { .. }));
    }

    #[test]
    fn truncation_detected_everywhere() {
        let mut w = Writer::with_magic(MAGIC);
        w.u64(42);
        let buf = w.into_bytes();
        for cut in 0..buf.len() {
            let r = Reader::with_magic(&buf[..cut], MAGIC);
            match r {
                Ok(mut r) => assert!(r.u64().is_err()),
                Err(e) => assert_eq!(e, WireError::Truncated),
            }
        }
    }

    #[test]
    fn corrupt_length_rejected() {
        let mut w = Writer::with_magic(MAGIC);
        w.u64(u64::MAX); // absurd length prefix
        let buf = w.into_bytes();
        let mut r = Reader::with_magic(&buf, MAGIC).unwrap();
        assert!(matches!(r.bytes(), Err(WireError::LengthOutOfRange { .. })));
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut w = Writer::with_magic(MAGIC);
        w.bytes(&[0xff, 0xfe]);
        let buf = w.into_bytes();
        let mut r = Reader::with_magic(&buf, MAGIC).unwrap();
        assert_eq!(r.string().unwrap_err(), WireError::BadUtf8);
    }
}
