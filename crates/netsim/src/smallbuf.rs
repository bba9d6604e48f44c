//! Inline small-buffer storage for packet headers.
//!
//! Transport headers in this simulation are tiny (20 bytes for TCP, 16 for
//! DCCP) but extremely numerous: every packet clone — retransmission
//! queues, duplicate attacks, trace capture, simulator forks — used to heap
//! allocate a fresh `Vec<u8>`. [`HeaderBuf`] stores headers up to
//! [`HeaderBuf::INLINE_CAP`] bytes directly in the packet struct, so
//! cloning a packet in the event-loop hot path touches no allocator at all.
//! Longer headers (options-heavy or hostile inputs) spill to a heap `Vec`
//! transparently.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// A byte buffer that stores short contents inline (no heap allocation)
/// and spills long contents to a `Vec<u8>`. Dereferences to `[u8]`, so it
/// is a drop-in replacement for `Vec<u8>` at read sites.
#[derive(Clone)]
pub enum HeaderBuf {
    /// Contents stored inline in the enum itself.
    Inline {
        /// Number of valid bytes in `buf`.
        len: u8,
        /// Backing storage; only `buf[..len]` is meaningful.
        buf: [u8; HeaderBuf::INLINE_CAP],
    },
    /// Contents too long for inline storage.
    Heap(Vec<u8>),
}

impl HeaderBuf {
    /// Maximum byte length stored without heap allocation. Sized to hold
    /// every header format the simulation speaks (TCP: 20 bytes, DCCP: 16
    /// bytes) with room for option-carrying variants.
    pub const INLINE_CAP: usize = 32;

    /// An empty buffer (inline, zero length).
    pub const fn new() -> HeaderBuf {
        HeaderBuf::Inline {
            len: 0,
            buf: [0u8; HeaderBuf::INLINE_CAP],
        }
    }

    /// The contents as a slice.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            HeaderBuf::Inline { len, buf } => &buf[..*len as usize],
            HeaderBuf::Heap(v) => v,
        }
    }

    /// The contents as a mutable slice (length is fixed; headers are
    /// rewritten in place, never resized).
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        match self {
            HeaderBuf::Inline { len, buf } => &mut buf[..*len as usize],
            HeaderBuf::Heap(v) => v,
        }
    }

    /// Copies the contents into a freshly allocated `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Consumes the buffer, yielding a `Vec<u8>` (allocates only for
    /// inline contents; heap contents move for free).
    pub fn into_vec(self) -> Vec<u8> {
        match self {
            HeaderBuf::Inline { len, buf } => buf[..len as usize].to_vec(),
            HeaderBuf::Heap(v) => v,
        }
    }
}

impl Default for HeaderBuf {
    fn default() -> HeaderBuf {
        HeaderBuf::new()
    }
}

impl From<Vec<u8>> for HeaderBuf {
    fn from(v: Vec<u8>) -> HeaderBuf {
        if v.len() <= HeaderBuf::INLINE_CAP {
            let mut buf = [0u8; HeaderBuf::INLINE_CAP];
            buf[..v.len()].copy_from_slice(&v);
            HeaderBuf::Inline {
                len: v.len() as u8,
                buf,
            }
        } else {
            HeaderBuf::Heap(v)
        }
    }
}

impl From<&[u8]> for HeaderBuf {
    fn from(s: &[u8]) -> HeaderBuf {
        if s.len() <= HeaderBuf::INLINE_CAP {
            let mut buf = [0u8; HeaderBuf::INLINE_CAP];
            buf[..s.len()].copy_from_slice(s);
            HeaderBuf::Inline {
                len: s.len() as u8,
                buf,
            }
        } else {
            HeaderBuf::Heap(s.to_vec())
        }
    }
}

impl<const N: usize> From<[u8; N]> for HeaderBuf {
    fn from(a: [u8; N]) -> HeaderBuf {
        HeaderBuf::from(&a[..])
    }
}

impl Deref for HeaderBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl DerefMut for HeaderBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        self.as_mut_slice()
    }
}

impl AsRef<[u8]> for HeaderBuf {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for HeaderBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for HeaderBuf {}

impl fmt::Debug for HeaderBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_contents_stay_inline() {
        let b = HeaderBuf::from(vec![1u8, 2, 3]);
        assert!(matches!(b, HeaderBuf::Inline { len: 3, .. }));
        assert_eq!(&b[..], &[1, 2, 3]);
    }

    #[test]
    fn long_contents_spill_to_heap() {
        let v = vec![7u8; HeaderBuf::INLINE_CAP + 1];
        let b = HeaderBuf::from(v.clone());
        assert!(matches!(b, HeaderBuf::Heap(_)));
        assert_eq!(&b[..], &v[..]);
        assert_eq!(b.into_vec(), v);
    }

    #[test]
    fn boundary_length_is_inline() {
        let v = vec![9u8; HeaderBuf::INLINE_CAP];
        let b = HeaderBuf::from(v.clone());
        assert!(matches!(b, HeaderBuf::Inline { .. }));
        assert_eq!(b.to_vec(), v);
    }

    #[test]
    fn equality_ignores_representation() {
        let inline = HeaderBuf::from(vec![1u8, 2]);
        let heap = HeaderBuf::Heap(vec![1u8, 2]);
        assert_eq!(inline, heap);
        assert_ne!(inline, HeaderBuf::from(vec![1u8, 3]));
    }

    #[test]
    fn mutation_in_place() {
        let mut b = HeaderBuf::from(vec![0u8; 4]);
        b[2] = 0xAB;
        assert_eq!(&b[..], &[0, 0, 0xAB, 0]);
    }

    #[test]
    fn empty_default() {
        let b = HeaderBuf::default();
        assert!(b.is_empty());
        assert_eq!(b.to_vec(), Vec::<u8>::new());
    }
}
