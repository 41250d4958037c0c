//! Znode path type.
//!
//! A [`ZnodePath`] is an absolute, `/`-separated hierarchical name, stored in
//! canonical form: leading slash, no trailing slash, and **no empty interior
//! segments** (`/a//b` and `/a/b/` both canonicalize to `/a/b`). The old
//! `MetadataStore` only trimmed leading/trailing slashes, so `get("/a//b")`
//! and `get("/a/b")` silently addressed different nodes; canonicalizing every
//! segment closes that hole.

/// An absolute, canonicalized znode path.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ZnodePath(String);

impl ZnodePath {
    /// The root path `/`.
    pub fn root() -> Self {
        ZnodePath("/".to_string())
    }

    /// Parse any slash-separated string into canonical form. Empty segments
    /// (doubled, leading, or trailing slashes) are collapsed; an empty or
    /// all-slash input is the root.
    pub fn parse(raw: &str) -> Self {
        let mut out = String::with_capacity(raw.len() + 1);
        for segment in raw.split('/').filter(|s| !s.is_empty()) {
            out.push('/');
            out.push_str(segment);
        }
        if out.is_empty() {
            out.push('/');
        }
        ZnodePath(out)
    }

    /// The canonical string form.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Whether this is the root path.
    pub fn is_root(&self) -> bool {
        self.0 == "/"
    }

    /// The parent path, or `None` for the root.
    pub fn parent(&self) -> Option<ZnodePath> {
        if self.is_root() {
            return None;
        }
        match self.0.rfind('/') {
            Some(0) => Some(ZnodePath::root()),
            Some(i) => Some(ZnodePath(self.0[..i].to_string())),
            None => None,
        }
    }

    /// The final path segment (empty string for the root).
    pub fn basename(&self) -> &str {
        if self.is_root() {
            ""
        } else {
            &self.0[self.0.rfind('/').map_or(0, |i| i + 1)..]
        }
    }

    /// A child of this path. The child name is itself canonicalized, so
    /// nested names (`"a/b"`) extend the path by multiple segments.
    pub fn child(&self, name: &str) -> ZnodePath {
        ZnodePath::parse(&format!("{}/{}", self.0, name))
    }
}

impl std::fmt::Display for ZnodePath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ZnodePath {
    fn from(raw: &str) -> Self {
        ZnodePath::parse(raw)
    }
}

impl From<String> for ZnodePath {
    fn from(raw: String) -> Self {
        ZnodePath::parse(&raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalizes_slashes() {
        assert_eq!(ZnodePath::parse("/a/b").as_str(), "/a/b");
        assert_eq!(ZnodePath::parse("a/b").as_str(), "/a/b");
        assert_eq!(ZnodePath::parse("/a/b/").as_str(), "/a/b");
        // The MetadataStore bug: interior empty segments must collapse too.
        assert_eq!(ZnodePath::parse("/a//b").as_str(), "/a/b");
        assert_eq!(ZnodePath::parse("//a///b//").as_str(), "/a/b");
        assert_eq!(ZnodePath::parse("/a//b"), ZnodePath::parse("a/b"));
    }

    #[test]
    fn empty_and_slashes_are_root() {
        assert_eq!(ZnodePath::parse("").as_str(), "/");
        assert_eq!(ZnodePath::parse("/").as_str(), "/");
        assert_eq!(ZnodePath::parse("///").as_str(), "/");
        assert!(ZnodePath::parse("//").is_root());
    }

    #[test]
    fn parent_chain_reaches_root() {
        let p = ZnodePath::parse("/a/b/c");
        let b = p.parent().unwrap();
        assert_eq!(b.as_str(), "/a/b");
        let a = b.parent().unwrap();
        assert_eq!(a.as_str(), "/a");
        let root = a.parent().unwrap();
        assert!(root.is_root());
        assert_eq!(root.parent(), None);
    }

    #[test]
    fn basename_and_child() {
        assert_eq!(ZnodePath::parse("/a/b").basename(), "b");
        assert_eq!(ZnodePath::root().basename(), "");
        assert_eq!(ZnodePath::parse("/a").child("b").as_str(), "/a/b");
        assert_eq!(ZnodePath::root().child("x").as_str(), "/x");
        assert_eq!(ZnodePath::parse("/a").child("b/c").as_str(), "/a/b/c");
    }
}
