//! The bounds-checked little-endian cursor behind the slice decoders:
//! [`crate::wire`]'s sketch files and delta records and
//! [`crate::frame`]'s envelopes and payloads. A short read is a
//! [`Truncated`] at the offset the read started from, which each format
//! converts into its own typed error.

/// A read ran past the end of the slice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Truncated {
    /// Cursor offset at which the read started.
    pub(crate) at: usize,
}

/// A bounds-checked little-endian cursor over a byte slice.
pub(crate) struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        let at = self.pos;
        let slice = at
            .checked_add(n)
            .and_then(|end| self.bytes.get(at..end))
            .ok_or(Truncated { at })?;
        self.pos = at + n;
        Ok(slice)
    }

    pub(crate) fn array<const N: usize>(&mut self) -> Result<[u8; N], Truncated> {
        self.take(N)?
            .try_into()
            .map_err(|_| Truncated { at: self.pos })
    }

    pub(crate) fn u8(&mut self) -> Result<u8, Truncated> {
        Ok(self.array::<1>()?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, Truncated> {
        Ok(u16::from_le_bytes(self.array::<2>()?))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, Truncated> {
        Ok(u32::from_le_bytes(self.array::<4>()?))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, Truncated> {
        Ok(u64::from_le_bytes(self.array::<8>()?))
    }

    /// Everything not yet read; the cursor ends at the slice's end.
    pub(crate) fn rest(&mut self) -> &'a [u8] {
        let slice = self.bytes.get(self.pos..).unwrap_or(&[]);
        self.pos = self.bytes.len();
        slice
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub(crate) fn is_done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}
