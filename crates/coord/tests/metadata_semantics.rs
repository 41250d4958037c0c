//! Metadata-handoff semantics (§4.2): the planner stores query text and
//! schemas under a path tree and tasks read them back. These tests came from
//! the old `samzasql_samza::coordination::MetadataStore` shim and pin the
//! behaviors its callers relied on, now expressed directly against `Coord`.

use samzasql_coord::{Coord, CoordError};

#[test]
fn set_get_normalizes_paths() {
    let c = Coord::new();
    c.upsert("jobs/q1/query", "SELECT 1").unwrap();
    assert_eq!(c.get("/jobs/q1/query").unwrap(), "SELECT 1");
    assert_eq!(c.get("jobs/q1/query/").unwrap(), "SELECT 1");
    assert!(matches!(c.get("missing"), Err(CoordError::NoNode(_))));
}

#[test]
fn interior_empty_segments_collapse() {
    // The pre-coord standalone store only trimmed edge slashes, so "/a//b"
    // silently addressed a different entry than "/a/b".
    let c = Coord::new();
    c.upsert("/a/b", "v").unwrap();
    assert_eq!(c.get("/a//b").unwrap(), "v");
    c.upsert("/x//y", "w").unwrap();
    assert_eq!(c.get("/x/y").unwrap(), "w");
    assert_eq!(c.children("//x").unwrap(), vec!["y".to_string()]);
}

#[test]
fn children_lists_one_level() {
    let c = Coord::new();
    c.upsert("/jobs/q1/query", "x").unwrap();
    c.upsert("/jobs/q1/schema", "y").unwrap();
    c.upsert("/jobs/q2/query", "z").unwrap();
    c.upsert("/other", "w").unwrap();
    assert_eq!(
        c.children("/jobs").unwrap(),
        vec!["q1".to_string(), "q2".to_string()]
    );
    assert_eq!(
        c.children("/jobs/q1").unwrap(),
        vec!["query".to_string(), "schema".to_string()]
    );
    assert!(matches!(c.children("/jobs/q3"), Err(CoordError::NoNode(_))));
}

#[test]
fn delete_removes_entry() {
    let c = Coord::new();
    c.upsert("/a", "1").unwrap();
    c.upsert("/a/b/c", "2").unwrap();
    assert!(c.exists("/a"));
    c.delete_recursive("/a").unwrap();
    assert!(!c.exists("/a"));
    assert!(!c.exists("/a/b/c"), "the whole subtree goes");
    assert!(matches!(c.get("/a"), Err(CoordError::NoNode(_))));
    c.delete_recursive("/a").unwrap(); // deleting an absent node is a no-op
}

#[test]
fn handles_share_one_tree() {
    // Clones of a Coord are handles onto the same znode tree — the property
    // the shell/task metadata handoff depends on.
    let a = Coord::new();
    let b = a.clone();
    b.upsert("/shared/k", "v").unwrap();
    assert_eq!(a.get("/shared/k").unwrap(), "v");
    a.upsert("/shared/k", "v2").unwrap();
    assert_eq!(b.get("/shared/k").unwrap(), "v2");
}
