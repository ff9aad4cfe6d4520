//! The little-endian byte codec shared by the three binary formats of a
//! `catd` session: the `CATW` wire ([`crate::wire`]), the `CATC`
//! checkpoint image and the `CATL` trace log ([`crate::checkpoint`]).
//!
//! Encoders append to a `Vec<u8>` that the caller writes out in one go.
//! Decoders walk a bounds-checked slice ([`ByteReader`]): every read is
//! validated against the bytes actually present, so a forged count errors
//! before it allocates. Stream formats `read_exact` a message's fixed-size
//! part first and parse it here. Every format error is
//! [`io::ErrorKind::InvalidData`] ([`bad`]).

use std::io::{self, Read};

use crate::MemGeometry;

/// A format violation: [`io::ErrorKind::InvalidData`] with `message`.
pub(crate) fn bad(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

pub(crate) fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a format header: `magic` then `version`.
pub(crate) fn put_header(buf: &mut Vec<u8>, magic: [u8; 4], version: u16) {
    buf.extend_from_slice(&magic);
    put_u16(buf, version);
}

/// Appends `s` as a u16 length prefix plus its UTF-8 bytes, refusing
/// strings longer than `max` bytes.
pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str, max: u16, what: &str) -> io::Result<()> {
    if s.len() > usize::from(max) {
        return Err(bad(format!("{what} of {} bytes", s.len())));
    }
    put_u16(buf, s.len() as u16);
    buf.extend_from_slice(s.as_bytes());
    Ok(())
}

/// Appends the six [`MemGeometry`] fields in declaration order.
pub(crate) fn put_geometry(buf: &mut Vec<u8>, g: &MemGeometry) {
    for field in [
        g.channels,
        g.ranks_per_channel,
        g.banks_per_rank,
        g.rows_per_bank,
        g.lines_per_row,
        g.line_bytes,
    ] {
        put_u32(buf, field);
    }
}

/// Reads exactly `N` bytes — a stream message's fixed-size part, parsed
/// afterwards with a [`ByteReader`]. A short stream is
/// [`io::ErrorKind::UnexpectedEof`].
pub(crate) fn read_array<const N: usize, R: Read>(r: &mut R) -> io::Result<[u8; N]> {
    let mut out = [0u8; N];
    r.read_exact(&mut out)?;
    Ok(out)
}

/// Cursor over an encoded byte slice. Every read validates against the
/// bytes actually remaining, so a forged count errors before it
/// allocates.
pub(crate) struct ByteReader<'a> {
    buf: &'a [u8],
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf }
    }

    #[cfg(test)]
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len()
    }

    #[inline]
    pub(crate) fn take(&mut self, n: usize, what: &str) -> io::Result<&'a [u8]> {
        if n > self.buf.len() {
            return Err(bad(format!(
                "truncated: {what} needs {n} bytes, {} remain",
                self.buf.len()
            )));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self, what: &str) -> io::Result<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N, what)?);
        Ok(out)
    }

    #[inline]
    pub(crate) fn u8(&mut self, what: &str) -> io::Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    #[inline]
    pub(crate) fn u16(&mut self, what: &str) -> io::Result<u16> {
        self.array(what).map(u16::from_le_bytes)
    }

    #[inline]
    pub(crate) fn u32(&mut self, what: &str) -> io::Result<u32> {
        self.array(what).map(u32::from_le_bytes)
    }

    #[inline]
    pub(crate) fn u64(&mut self, what: &str) -> io::Result<u64> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// Reads a u64 count or capacity, refusing values above `max` and
    /// counts of `elem_bytes`-byte elements that would overrun the bytes
    /// remaining, so a forged field errors before anything is allocated
    /// for it.
    pub(crate) fn bounded(&mut self, max: u64, elem_bytes: u64, what: &str) -> io::Result<usize> {
        let n = self.u64(what)?;
        if n > max || n.saturating_mul(elem_bytes) > self.buf.len() as u64 {
            return Err(bad(format!(
                "{what} of {n} exceeds its bound of {max} or the {} bytes remaining",
                self.buf.len()
            )));
        }
        Ok(n as usize)
    }

    /// Reads a [`bounded`](Self::bounded) u64 word count, then that many
    /// u64 words into `out` (cleared first).
    pub(crate) fn u64s(&mut self, max: u64, what: &str, out: &mut Vec<u64>) -> io::Result<()> {
        let n = self.bounded(max, 8, what)?;
        out.clear();
        out.extend(self.take(n * 8, what)?.chunks_exact(8).map(|w| {
            let mut word = [0u8; 8];
            word.copy_from_slice(w);
            u64::from_le_bytes(word)
        }));
        Ok(())
    }

    /// Reads and checks a [`put_header`] header; `what` names the format
    /// in the error.
    pub(crate) fn header(&mut self, magic: [u8; 4], version: u16, what: &str) -> io::Result<()> {
        let got: [u8; 4] = self.array("magic")?;
        if got != magic {
            return Err(bad(format!("{what}: bad magic {got:02x?}")));
        }
        let got = self.u16("version")?;
        if got != version {
            return Err(bad(format!(
                "{what} version {got}, this build reads {version}"
            )));
        }
        Ok(())
    }

    /// Reads a [`put_str`] length prefix, refusing lengths above `max`.
    /// Stream formats read the prefix with a message's fixed-size part and
    /// the string body with the rest.
    pub(crate) fn str_len(&mut self, max: u16, what: &str) -> io::Result<usize> {
        let len = self.u16(what)?;
        if len > max {
            return Err(bad(format!("{what} of {len} bytes")));
        }
        Ok(usize::from(len))
    }

    /// Reads `len` bytes as a UTF-8 string (the body of a [`put_str`]).
    pub(crate) fn str_body(&mut self, len: usize, what: &str) -> io::Result<&'a str> {
        std::str::from_utf8(self.take(len, what)?)
            .map_err(|e| bad(format!("{what} not UTF-8: {e}")))
    }

    /// Reads a [`put_geometry`] geometry.
    pub(crate) fn geometry(&mut self) -> io::Result<MemGeometry> {
        Ok(MemGeometry {
            channels: self.u32("geometry channels")?,
            ranks_per_channel: self.u32("geometry ranks per channel")?,
            banks_per_rank: self.u32("geometry banks per rank")?,
            rows_per_bank: self.u32("geometry rows per bank")?,
            lines_per_row: self.u32("geometry lines per row")?,
            line_bytes: self.u32("geometry line bytes")?,
        })
    }

    /// Succeeds only if every byte was consumed.
    pub(crate) fn finish(self) -> io::Result<()> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(bad(format!("{} trailing bytes", self.buf.len())))
        }
    }
}
