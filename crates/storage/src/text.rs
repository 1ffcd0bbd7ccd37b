//! [`Str`], the one immutable string of values, variable names and
//! relation names.
//!
//! The strings the paper's workloads carry — seat labels, user names,
//! relation names, variable names — are a few bytes long and copied
//! constantly: into tuples, bindings, cached solutions and log records. A
//! `Str` of at most [`INLINE_CAP`] bytes lives inside its own 24 bytes, so
//! building, cloning and dropping one touches no allocator and no shared
//! count. A longer string is one `Arc<str>` of its own; nothing pools or
//! shares strings across constructions (after Neumann & Freitag, *Umbra*,
//! CIDR 2020).

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::mem::ManuallyDrop;
use std::ops::Deref;
use std::sync::Arc;

/// The longest string a [`Str`] keeps inline, in bytes.
pub const INLINE_CAP: usize = 22;

/// Which representation a [`Str`] holds. Its unused byte values are the
/// niche that keeps `Value` and `Option<Value>` at 24 bytes.
#[derive(Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Kind {
    Inline = 0,
    Shared = 1,
}

/// The first 16 bytes: inline text, or a shared string's `Arc`.
#[repr(C)]
union Head {
    bytes: [u8; 16],
    shared: ManuallyDrop<Arc<str>>,
}

/// An immutable UTF-8 string.
///
/// Up to [`INLINE_CAP`] bytes are stored inline and zero-padded; a longer
/// string is an unshared `Arc<str>`. It dereferences to `str`, and its
/// `Eq`, `Ord` and `Hash` agree with `str`'s, so it can key a map probed
/// by `&str`.
///
/// Layout (24 bytes, every byte initialised): bytes 0..22 hold the inline
/// text — or, for a shared string, the `Arc<str>` in bytes 0..16 and zeros
/// after — byte 22 the inline length, byte 23 the kind. Two inline
/// strings therefore compare as three machine words: equal words are
/// equal strings, and big-endian words order as the text does (zero
/// padding puts a prefix first, then the length byte decides).
#[repr(C)]
pub struct Str {
    head: Head,
    tail: [u8; 6],
    len: u8,
    kind: Kind,
}

impl Str {
    /// A string holding `s`: inline when it fits, else a new `Arc`.
    #[inline]
    pub fn new(s: &str) -> Str {
        if s.len() > INLINE_CAP {
            return Str::shared(Arc::from(s));
        }
        let mut buf = [0u8; INLINE_CAP];
        buf[..s.len()].copy_from_slice(s.as_bytes());
        let (head, tail) = buf.split_first_chunk::<16>().expect("22 bytes");
        Str {
            head: Head { bytes: *head },
            tail: tail.try_into().expect("6 bytes"),
            len: s.len() as u8,
            kind: Kind::Inline,
        }
    }

    fn shared(s: Arc<str>) -> Str {
        Str {
            head: Head {
                shared: ManuallyDrop::new(s),
            },
            tail: [0; 6],
            len: 0,
            kind: Kind::Shared,
        }
    }

    /// The text.
    #[inline]
    pub fn as_str(&self) -> &str {
        match self.kind {
            // SAFETY: an inline `Str`'s first `len` bytes are the UTF-8
            // text `new` copied there (`head` then `tail`, contiguous
            // under `repr(C)`).
            Kind::Inline => unsafe {
                let bytes = std::slice::from_raw_parts(
                    (self as *const Str).cast::<u8>(),
                    usize::from(self.len),
                );
                std::str::from_utf8_unchecked(bytes)
            },
            // SAFETY: `kind` says `head` holds the `Arc`.
            Kind::Shared => unsafe { &self.head.shared },
        }
    }

    /// The 24 bytes as three words, in memory order.
    #[inline]
    fn words(&self) -> [u64; 3] {
        // SAFETY: `Str` is 24 bytes, aligned for `u64` (the `Arc` in
        // `head`), and every byte is initialised: inline text is
        // zero-padded, and a shared string's `tail` and `len` are zero.
        unsafe { *(self as *const Str).cast::<[u64; 3]>() }
    }
}

impl Drop for Str {
    fn drop(&mut self) {
        if self.kind == Kind::Shared {
            // SAFETY: `kind` says `head` holds the `Arc`, dropped once here.
            unsafe { ManuallyDrop::drop(&mut self.head.shared) }
        }
    }
}

impl Clone for Str {
    #[inline]
    fn clone(&self) -> Str {
        match self.kind {
            // SAFETY: an inline `Str` owns nothing, so a bitwise copy is
            // a clone.
            Kind::Inline => unsafe { std::ptr::read(self) },
            // SAFETY: `kind` says `head` holds the `Arc`.
            Kind::Shared => Str::shared(Arc::clone(unsafe { &self.head.shared })),
        }
    }
}

impl Deref for Str {
    type Target = str;
    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Str {
    fn as_ref(&self) -> &str {
        self
    }
}

impl Borrow<str> for Str {
    fn borrow(&self) -> &str {
        self
    }
}

impl PartialEq for Str {
    #[inline]
    fn eq(&self, other: &Str) -> bool {
        // Equal words are equal text: the same inline bytes, or the same
        // `Arc`. Otherwise only two shared strings can still be equal —
        // a shared string is longer than any inline one.
        self.words() == other.words()
            || (self.kind == Kind::Shared
                && other.kind == Kind::Shared
                && self.as_str() == other.as_str())
    }
}

impl Eq for Str {}

impl PartialOrd for Str {
    #[inline]
    fn partial_cmp(&self, other: &Str) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Str {
    #[inline]
    fn cmp(&self, other: &Str) -> Ordering {
        if self.kind == Kind::Inline && other.kind == Kind::Inline {
            let (a, b) = (self.words(), other.words());
            for i in 0..3 {
                match u64::from_be(a[i]).cmp(&u64::from_be(b[i])) {
                    Ordering::Equal => continue,
                    unequal => return unequal,
                }
            }
            return Ordering::Equal;
        }
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for Str {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl From<&str> for Str {
    fn from(s: &str) -> Str {
        Str::new(s)
    }
}

impl From<String> for Str {
    fn from(s: String) -> Str {
        Str::new(&s)
    }
}

impl From<&Str> for Str {
    fn from(s: &Str) -> Str {
        s.clone()
    }
}

impl fmt::Display for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdb_workload::rng::StdRng;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash + ?Sized>(t: &T) -> u64 {
        let mut h = DefaultHasher::new();
        t.hash(&mut h);
        h.finish()
    }

    #[test]
    fn sizes_are_pinned() {
        assert_eq!(std::mem::size_of::<Str>(), 24);
        assert_eq!(std::mem::size_of::<Option<Str>>(), 24);
        assert_eq!(std::mem::size_of::<crate::Value>(), 24);
        assert_eq!(std::mem::size_of::<Option<crate::Value>>(), 24);
    }

    #[test]
    fn short_strings_are_inline_and_long_ones_are_not() {
        for n in 0..=40 {
            let text = "é".repeat(n / 2) + &"x".repeat(n % 2);
            let s = Str::new(&text);
            assert_eq!(s.len(), n);
            assert_eq!(s.kind == Kind::Inline, n <= INLINE_CAP, "{n} bytes");
            assert_eq!(&*s, text);
            assert_eq!(&*s.clone(), text);
        }
    }

    /// Text of `len` bytes drawn from a small alphabet with NULs and
    /// multi-byte characters, so that equal texts, shared prefixes and
    /// the 21/22/23-byte boundary all come up often.
    fn draw(rng: &mut StdRng, len: usize) -> String {
        const PIECES: [&str; 6] = ["a", "b", "\0", "é", "✈", "z"];
        let mut s = String::new();
        while s.len() < len {
            let piece = PIECES[rng.next_u64() as usize % PIECES.len()];
            if s.len() + piece.len() <= len {
                s.push_str(piece);
            } else {
                s.push('a');
            }
        }
        s
    }

    #[test]
    fn equality_order_and_hash_agree_with_str() {
        let mut rng = StdRng::seed_from_u64(0x5712_0022);
        let lens: Vec<usize> = (0..=40).chain([21, 22, 23, 21, 22, 23]).collect();
        let mut texts: Vec<String> = Vec::new();
        for _ in 0..40 {
            for &len in &lens {
                texts.push(draw(&mut rng, len));
            }
        }
        // Prefixes across the boundary: a 22-byte text (inline) against
        // itself plus a NUL or a letter (shared) and its 21-byte prefix.
        let base = "seat\0é✈label-12byte";
        assert_eq!(base.len(), INLINE_CAP);
        texts.extend([base, &base[..21]].map(str::to_owned));
        texts.extend(["\0", "q"].map(|tail| format!("{base}{tail}")));
        let strs: Vec<Str> = texts.iter().map(|t| Str::new(t)).collect();
        let mut pairs = 0;
        for _ in 0..20_000 {
            let i = rng.next_u64() as usize % texts.len();
            let j = if rng.next_u64().is_multiple_of(4) {
                i
            } else {
                rng.next_u64() as usize % texts.len()
            };
            let (a, b) = (&strs[i], &strs[j]);
            let (x, y) = (texts[i].as_str(), texts[j].as_str());
            assert_eq!(a == b, x == y, "{x:?} vs {y:?}");
            assert_eq!(a.cmp(b), x.cmp(y), "{x:?} vs {y:?}");
            assert_eq!(a.partial_cmp(b), x.partial_cmp(y), "{x:?} vs {y:?}");
            // A second construction of the same text is a distinct
            // allocation when shared, and still equal.
            assert_eq!(*a == Str::new(y), x == y);
            pairs += usize::from(a.kind != b.kind);
            assert_eq!(hash_of(a), hash_of(x));
        }
        assert!(pairs > 1_000, "mixed inline/shared pairs: {pairs}");
    }

    #[test]
    fn maps_keyed_by_str_answer_str_probes() {
        let long = "a relation name longer than inline";
        let set: std::collections::HashSet<Str> = ["Available", "Bookings", long]
            .into_iter()
            .map(Str::new)
            .collect();
        assert!(set.contains("Bookings") && set.contains(long) && !set.contains("Book"));
        let tree: std::collections::BTreeSet<Str> = set.iter().cloned().collect();
        assert!(tree.contains("Available") && tree.contains(long));
    }

    #[test]
    fn shared_clones_share_and_drop_their_arc() {
        let text = "x".repeat(INLINE_CAP + 1);
        let a = Str::new(&text);
        let b = a.clone();
        // SAFETY (test): both are shared; read their `Arc`s.
        let (pa, pb) = unsafe { (&a.head.shared, &b.head.shared) };
        assert!(Arc::ptr_eq(pa, pb));
        assert_eq!(Arc::strong_count(pa), 2);
        drop(b);
        // SAFETY (test): `a` is still shared.
        assert_eq!(Arc::strong_count(unsafe { &a.head.shared }), 1);
    }
}
