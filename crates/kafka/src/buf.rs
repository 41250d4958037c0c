//! [`Bytes`]: the immutable, cheaply cloneable byte buffer that message keys
//! and values, KV-store entries and changelog records travel in.
//!
//! A shared buffer is one `Arc<[u8]>`: the reference counts and the bytes
//! sit in a single heap allocation, so building one costs one allocation
//! and reading it one pointer hop. Hot paths that encode a message
//! serialize into a reused `Vec<u8>` and copy the finished bytes once with
//! [`Bytes::copy_from_slice`].

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared(Arc<[u8]>),
}

/// An immutable byte buffer. Clones share one allocation (an `Arc` bump)
/// and static slices are borrowed. Every other constructor copies the bytes
/// once into a fresh exact-size allocation, `From<Vec<u8>>` included: the
/// vector's own buffer is freed, because an `Arc<[u8]>` cannot adopt it.
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
}

impl Bytes {
    pub const fn new() -> Self {
        Bytes::from_static(&[])
    }

    pub const fn from_static(bytes: &'static [u8]) -> Self {
        Bytes {
            repr: Repr::Static(bytes),
        }
    }

    /// Copy `data` into one new allocation.
    #[inline]
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes {
            repr: Repr::Shared(Arc::from(data)),
        }
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        match &self.repr {
            Repr::Static(s) => s,
            Repr::Shared(v) => v,
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Copies the vector's contents once (see [`Bytes`]).
    #[inline]
    fn from(v: Vec<u8>) -> Self {
        Bytes::copy_from_slice(&v)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::from_static(s.as_bytes())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            if b.is_ascii_graphic() || b == b' ' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

/// Ordered by contents, like `[u8]`, so an ordered map keyed by `Bytes` can
/// be searched with a borrowed `&[u8]` (see [`Borrow`]).
impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_one_allocation_and_stay_small() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        assert_eq!(b.clone().as_ptr(), b.as_ptr(), "clones share the buffer");
        assert_eq!(&b[..], [1u8, 2, 3]);
        let s = Bytes::copy_from_slice(b"abc");
        assert_eq!(s.clone().as_ptr(), s.as_ptr());
        // A fat `Arc<[u8]>` plus the tag: no wider than a `Vec<u8>`.
        assert!(std::mem::size_of::<Bytes>() <= 24);
    }

    #[test]
    fn equality_and_debug_follow_the_contents() {
        assert_eq!(Bytes::from_static(b"ab"), Bytes::copy_from_slice(b"ab"));
        assert_ne!(Bytes::from("ab"), Bytes::from(String::from("abc")));
        assert_eq!(format!("{:?}", Bytes::from(vec![b'k', 0])), "b\"k\\x00\"");
        assert!(Bytes::default().is_empty());
    }

    #[test]
    fn order_follows_the_contents_and_maps_look_up_by_slice() {
        assert!(Bytes::from_static(b"ab") < Bytes::copy_from_slice(b"b"));
        assert!(Bytes::copy_from_slice(b"a") < Bytes::from_static(b"ab"));
        let mut map = std::collections::BTreeMap::new();
        map.insert(Bytes::copy_from_slice(b"k2"), 2);
        map.insert(Bytes::from_static(b"k1"), 1);
        assert_eq!(map.get(&b"k1"[..]), Some(&1));
        assert_eq!(map.keys().next().map(|k| &k[..]), Some(&b"k1"[..]));
    }
}
