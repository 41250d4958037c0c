//! The coordination service: znode tree, sessions, deletion watches.
//!
//! An in-process, thread-safe stand-in for the ZooKeeper ensemble of the
//! paper's deployment (§4.2 stores query text and schemas in ZooKeeper;
//! Samza-style liveness leans on its sessions and ephemeral nodes):
//!
//! * **Znodes** — a hierarchical tree of string-valued nodes addressed by
//!   [`ZnodePath`]s. Metadata nodes are persistent ([`Coord::upsert`]);
//!   liveness nodes are ephemeral ([`Coord::create_ephemeral`]) and are
//!   deleted when the owning session ends.
//! * **Sessions** — clients hold a [`SessionId`] and heartbeat it; a session
//!   whose heartbeat is older than its timeout is expired when the manual
//!   clock advances, deleting all its ephemeral nodes. Expiry is
//!   deterministic: the clock only moves via [`Coord::advance`].
//! * **Deletion watches** — a one-shot callback armed on an existing node
//!   ([`Coord::watch_deleted`]) runs once, when that node is deleted. It is
//!   invoked by the thread that performed the deletion, after that thread
//!   released the service's lock, in deletion order.
//! * **Fault injection** — [`Coord::force_expire`] kills a session now, and
//!   [`Coord::set_drop_heartbeats`] silently discards a client's heartbeats
//!   (the client keeps believing it is alive).

use crate::error::{CoordError, Result};
use crate::path::ZnodePath;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};

/// Identifies a client session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session-{}", self.0)
    }
}

/// Counters exposed by [`Coord::metrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoordMetrics {
    /// Current znode count, including the root.
    pub znodes: usize,
    /// Sessions currently alive.
    pub live_sessions: usize,
    /// Sessions ever created.
    pub sessions_created: u64,
    /// Sessions that ended by expiry (timeout or force).
    pub sessions_expired: u64,
    /// Sessions ended gracefully via close.
    pub sessions_closed: u64,
    /// Deletion watches ever armed.
    pub watches_registered: u64,
    /// Deletion watch callbacks run.
    pub watches_fired: u64,
    /// Ephemeral znodes deleted because their session ended.
    pub ephemerals_reaped: u64,
}

type WatchCallback = Box<dyn FnOnce() + Send>;

struct Znode {
    data: String,
    owner: Option<SessionId>,
    /// Names of direct children. Kept explicitly (rather than derived from a
    /// map prefix scan) because path strings with bytes below `/` would break
    /// a scan's contiguity (`/q-x` sorts between `/q` and `/q/child`).
    children: BTreeSet<String>,
}

impl Znode {
    fn new(data: String, owner: Option<SessionId>) -> Znode {
        Znode {
            data,
            owner,
            children: BTreeSet::new(),
        }
    }
}

struct Session {
    timeout_ms: u64,
    last_heartbeat_ms: u64,
    /// Fault injection: silently discard heartbeats.
    drop_heartbeats: bool,
    /// Paths of ephemeral nodes owned by this session.
    ephemerals: BTreeSet<ZnodePath>,
}

#[derive(Default)]
struct Counters {
    sessions_created: u64,
    sessions_expired: u64,
    sessions_closed: u64,
    watches_registered: u64,
    watches_fired: u64,
    ephemerals_reaped: u64,
}

struct Inner {
    nodes: BTreeMap<ZnodePath, Znode>,
    sessions: BTreeMap<SessionId, Session>,
    /// Armed deletion watches per path, in arming order.
    watches: BTreeMap<ZnodePath, Vec<WatchCallback>>,
    /// Callbacks of fired watches, in deletion order, awaiting delivery.
    queue: VecDeque<WatchCallback>,
    /// The manual clock (ms): moves only in [`Coord::advance`].
    now_ms: u64,
    next_session: u64,
    /// Re-entrancy guard: exactly one thread drains the queue at a time.
    delivering: bool,
    counters: Counters,
}

impl Inner {
    fn node(&self, path: &ZnodePath) -> Result<&Znode> {
        self.nodes
            .get(path)
            .ok_or_else(|| CoordError::NoNode(path.to_string()))
    }

    /// Insert a new node at `path`, creating missing ancestors as empty
    /// persistent nodes (ZooKeeper's `creatingParentsIfNeeded`). Ephemeral
    /// nodes cannot have children.
    fn insert_node(&mut self, path: &ZnodePath, node: Znode) -> Result<()> {
        // Missing ancestors, nearest first; the walk stops at the root.
        let mut missing = Vec::new();
        let mut cursor = path.parent();
        while let Some(p) = cursor {
            if let Some(existing) = self.nodes.get(&p) {
                if existing.owner.is_some() {
                    return Err(CoordError::NoChildrenForEphemerals(p.to_string()));
                }
                break;
            }
            cursor = p.parent();
            missing.push(p);
        }
        for p in missing.into_iter().rev() {
            self.link(p, Znode::new(String::new(), None));
        }
        self.link(path.clone(), node);
        Ok(())
    }

    /// Add `node` at `path` and register it with its parent's child set.
    fn link(&mut self, path: ZnodePath, node: Znode) {
        if let Some(parent) = path.parent() {
            if let Some(parent_node) = self.nodes.get_mut(&parent) {
                parent_node.children.insert(path.basename().to_string());
            }
        }
        self.nodes.insert(path, node);
    }

    /// Remove a node (which must exist and have no children), queuing its
    /// deletion watches.
    fn remove_node(&mut self, path: &ZnodePath) {
        let node = self.nodes.remove(path).expect("caller checked existence");
        if let Some(parent) = path.parent() {
            if let Some(parent_node) = self.nodes.get_mut(&parent) {
                parent_node.children.remove(path.basename());
            }
        }
        if let Some(owner) = node.owner {
            if let Some(session) = self.sessions.get_mut(&owner) {
                session.ephemerals.remove(path);
            }
        }
        if let Some(callbacks) = self.watches.remove(path) {
            self.queue.extend(callbacks);
        }
    }

    /// End a session: delete its ephemerals (in path order, firing their
    /// watches) and drop it.
    fn end_session(&mut self, id: SessionId, expired: bool) {
        let Some(session) = self.sessions.remove(&id) else {
            return;
        };
        for path in &session.ephemerals {
            self.counters.ephemerals_reaped += 1;
            self.remove_node(path);
        }
        if expired {
            self.counters.sessions_expired += 1;
        } else {
            self.counters.sessions_closed += 1;
        }
    }
}

/// Shared handle to the coordination service. Cloning shares the tree.
#[derive(Clone)]
pub struct Coord {
    inner: Arc<Mutex<Inner>>,
}

impl Default for Coord {
    fn default() -> Self {
        Coord::new()
    }
}

impl Coord {
    pub fn new() -> Self {
        let mut nodes = BTreeMap::new();
        nodes.insert(ZnodePath::root(), Znode::new(String::new(), None));
        Coord {
            inner: Arc::new(Mutex::new(Inner {
                nodes,
                sessions: BTreeMap::new(),
                watches: BTreeMap::new(),
                queue: VecDeque::new(),
                now_ms: 0,
                next_session: 0,
                delivering: false,
                counters: Counters::default(),
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("coord lock poisoned")
    }

    /// Run `mutate` under the lock, then deliver the watches it fired.
    fn mutate<T>(&self, mutate: impl FnOnce(&mut Inner) -> Result<T>) -> Result<T> {
        let out = mutate(&mut self.lock());
        self.deliver();
        out
    }

    /// Advance the manual clock by `ms`, expiring sessions whose last
    /// heartbeat is now older than their timeout.
    pub fn advance(&self, ms: u64) {
        let _ = self.mutate(|inner| {
            inner.now_ms += ms;
            let now = inner.now_ms;
            let overdue: Vec<SessionId> = inner
                .sessions
                .iter()
                .filter(|(_, s)| now.saturating_sub(s.last_heartbeat_ms) > s.timeout_ms)
                .map(|(id, _)| *id)
                .collect();
            for id in overdue {
                inner.end_session(id, true);
            }
            Ok(())
        });
    }

    // ---------------------------------------------------------- sessions

    /// Open a session that must heartbeat at least every `timeout_ms` of
    /// clock time.
    pub fn create_session(&self, timeout_ms: u64) -> SessionId {
        let mut inner = self.lock();
        inner.next_session += 1;
        let id = SessionId(inner.next_session);
        inner.counters.sessions_created += 1;
        let session = Session {
            timeout_ms,
            last_heartbeat_ms: inner.now_ms,
            drop_heartbeats: false,
            ephemerals: BTreeSet::new(),
        };
        inner.sessions.insert(id, session);
        id
    }

    /// Refresh a session's liveness. Errs if the session no longer exists
    /// (closed or expired) — the client's cue that its ephemerals are gone.
    pub fn heartbeat(&self, id: SessionId) -> Result<()> {
        let mut inner = self.lock();
        let now = inner.now_ms;
        let session = inner
            .sessions
            .get_mut(&id)
            .ok_or(CoordError::NoSession(id))?;
        if !session.drop_heartbeats {
            session.last_heartbeat_ms = now;
        }
        Ok(())
    }

    /// End a live session now, deleting its ephemerals.
    fn end_session(&self, id: SessionId, expired: bool) -> Result<()> {
        self.mutate(|inner| {
            if !inner.sessions.contains_key(&id) {
                return Err(CoordError::NoSession(id));
            }
            inner.end_session(id, expired);
            Ok(())
        })
    }

    /// Gracefully close a session, deleting its ephemeral nodes. Not counted
    /// as an expiry.
    pub fn close_session(&self, id: SessionId) -> Result<()> {
        self.end_session(id, false)
    }

    /// Whether the session is still alive.
    pub fn session_alive(&self, id: SessionId) -> bool {
        self.lock().sessions.contains_key(&id)
    }

    /// Expire a session immediately, exactly as a timeout would (deletes
    /// ephemerals, fires watches, counts as an expiry).
    pub fn force_expire(&self, id: SessionId) -> Result<()> {
        self.end_session(id, true)
    }

    /// Silently discard (or stop discarding) a session's heartbeats: the
    /// client keeps heartbeating successfully but the service stops seeing
    /// them, so the session expires once the clock advances past its timeout.
    pub fn set_drop_heartbeats(&self, id: SessionId, drop: bool) -> Result<()> {
        let mut inner = self.lock();
        let session = inner
            .sessions
            .get_mut(&id)
            .ok_or(CoordError::NoSession(id))?;
        session.drop_heartbeats = drop;
        Ok(())
    }

    // ------------------------------------------------------------- znodes

    /// Create an ephemeral znode owned by `session`; it is deleted when the
    /// session closes or expires. Missing parents are created as persistent
    /// nodes.
    pub fn create_ephemeral(
        &self,
        session: SessionId,
        path: impl Into<ZnodePath>,
        data: impl Into<String>,
    ) -> Result<()> {
        let path: ZnodePath = path.into();
        if path.is_root() {
            return Err(CoordError::RootReadOnly);
        }
        let mut inner = self.lock();
        if !inner.sessions.contains_key(&session) {
            return Err(CoordError::NoSession(session));
        }
        if inner.nodes.contains_key(&path) {
            return Err(CoordError::NodeExists(path.to_string()));
        }
        inner.insert_node(&path, Znode::new(data.into(), Some(session)))?;
        inner
            .sessions
            .get_mut(&session)
            .expect("session checked above")
            .ephemerals
            .insert(path);
        Ok(())
    }

    /// Create-or-overwrite a znode's data; a created node is persistent and
    /// its missing parents are created too. Writes never fire watches.
    pub fn upsert(&self, path: impl Into<ZnodePath>, data: impl Into<String>) -> Result<()> {
        let path: ZnodePath = path.into();
        if path.is_root() {
            return Err(CoordError::RootReadOnly);
        }
        let mut inner = self.lock();
        match inner.nodes.get_mut(&path) {
            Some(node) => {
                node.data = data.into();
                Ok(())
            }
            None => inner.insert_node(&path, Znode::new(data.into(), None)),
        }
    }

    /// Read a znode's data.
    pub fn get(&self, path: impl Into<ZnodePath>) -> Result<String> {
        let path = path.into();
        Ok(self.lock().node(&path)?.data.clone())
    }

    /// Whether the znode exists.
    pub fn exists(&self, path: impl Into<ZnodePath>) -> bool {
        self.lock().nodes.contains_key(&path.into())
    }

    /// Names of the direct children of a znode, sorted.
    pub fn children(&self, path: impl Into<ZnodePath>) -> Result<Vec<String>> {
        let path = path.into();
        let inner = self.lock();
        Ok(inner.node(&path)?.children.iter().cloned().collect())
    }

    /// Delete a znode and everything under it (deepest first), firing the
    /// deleted nodes' watches. A no-op if the node does not exist.
    pub fn delete_recursive(&self, path: impl Into<ZnodePath>) -> Result<()> {
        let path = path.into();
        if path.is_root() {
            return Err(CoordError::RootReadOnly);
        }
        self.mutate(|inner| {
            let prefix = format!("{}/", path.as_str());
            let mut doomed: Vec<ZnodePath> = inner
                .nodes
                .keys()
                .filter(|p| **p == path || p.as_str().starts_with(&prefix))
                .cloned()
                .collect();
            doomed.reverse(); // children sort after parents
            for p in doomed {
                inner.remove_node(&p);
            }
            Ok(())
        })
    }

    // ------------------------------------------------------------ watches

    /// Arm a one-shot watch that runs `callback` when the node at `path` is
    /// deleted — by [`Coord::delete_recursive`] or by its session ending.
    /// Data writes never fire or consume it. Returns `false`, arming
    /// nothing, if the node does not exist: the check and the arming are
    /// atomic, so a caller that sees `true` is guaranteed its callback.
    ///
    /// The callback runs on the deleting thread with no internal lock held,
    /// so it may call back into the service.
    pub fn watch_deleted(
        &self,
        path: impl Into<ZnodePath>,
        callback: impl FnOnce() + Send + 'static,
    ) -> bool {
        let path: ZnodePath = path.into();
        let mut inner = self.lock();
        if !inner.nodes.contains_key(&path) {
            return false;
        }
        inner.counters.watches_registered += 1;
        inner
            .watches
            .entry(path)
            .or_default()
            .push(Box::new(callback));
        true
    }

    /// Run fired watch callbacks in order. Exactly one thread drains at a
    /// time; callbacks run without internal locks held, so they may freely
    /// call back into the service (nested deletions enqueue and are picked
    /// up by the same drain).
    fn deliver(&self) {
        let mut inner = self.lock();
        if inner.delivering {
            return;
        }
        inner.delivering = true;
        while let Some(callback) = inner.queue.pop_front() {
            inner.counters.watches_fired += 1;
            drop(inner);
            callback();
            inner = self.lock();
        }
        inner.delivering = false;
    }

    // ------------------------------------------------------------ metrics

    /// A point-in-time snapshot of service counters.
    pub fn metrics(&self) -> CoordMetrics {
        let inner = self.lock();
        CoordMetrics {
            znodes: inner.nodes.len(),
            live_sessions: inner.sessions.len(),
            sessions_created: inner.counters.sessions_created,
            sessions_expired: inner.counters.sessions_expired,
            sessions_closed: inner.counters.sessions_closed,
            watches_registered: inner.counters.watches_registered,
            watches_fired: inner.counters.watches_fired,
            ephemerals_reaped: inner.counters.ephemerals_reaped,
        }
    }
}

impl std::fmt::Debug for Coord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("Coord")
            .field("znodes", &inner.nodes.len())
            .field("live_sessions", &inner.sessions.len())
            .field("now_ms", &inner.now_ms)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A callback counting its runs into `fired`.
    fn counter(fired: &Arc<AtomicUsize>) -> impl FnOnce() + Send + 'static {
        let fired = fired.clone();
        move || {
            fired.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn create_get_set_delete_roundtrip() {
        let c = Coord::new();
        c.upsert("/a/b", "v1").unwrap();
        assert_eq!(c.get("/a/b").unwrap(), "v1");
        c.upsert("/a/b", "v2").unwrap();
        assert_eq!(
            c.get("/a//b").unwrap(),
            "v2",
            "normalization: /a//b is /a/b"
        );
        c.delete_recursive("/a/b").unwrap();
        assert!(!c.exists("/a/b"));
        // parent /a was auto-created and survives.
        assert!(c.exists("/a"));
    }

    #[test]
    fn root_is_read_only() {
        let c = Coord::new();
        let s = c.create_session(1_000);
        assert_eq!(c.upsert("/", "x"), Err(CoordError::RootReadOnly));
        assert_eq!(
            c.create_ephemeral(s, "//", "x"),
            Err(CoordError::RootReadOnly)
        );
        assert_eq!(c.delete_recursive("/"), Err(CoordError::RootReadOnly));
    }

    #[test]
    fn ephemeral_needs_session_and_dies_with_it() {
        let c = Coord::new();
        assert_eq!(
            c.create_ephemeral(SessionId(99), "/e", ""),
            Err(CoordError::NoSession(SessionId(99)))
        );
        assert!(!c.exists("/e"));
        let s = c.create_session(1_000);
        c.create_ephemeral(s, "/live/e1", "").unwrap();
        c.create_ephemeral(s, "/live/e2", "").unwrap();
        assert!(matches!(
            c.create_ephemeral(s, "/live/e2", ""),
            Err(CoordError::NodeExists(_))
        ));
        assert_eq!(c.children("/live").unwrap(), vec!["e1", "e2"]);
        c.close_session(s).unwrap();
        assert_eq!(c.children("/live").unwrap(), Vec::<String>::new());
        assert!(!c.session_alive(s));
    }

    #[test]
    fn ephemerals_cannot_have_children() {
        let c = Coord::new();
        let s = c.create_session(1_000);
        c.create_ephemeral(s, "/e", "").unwrap();
        assert!(matches!(
            c.upsert("/e/child", ""),
            Err(CoordError::NoChildrenForEphemerals(_))
        ));
        assert!(matches!(
            c.create_ephemeral(s, "/e/child/grandchild", ""),
            Err(CoordError::NoChildrenForEphemerals(_))
        ));
        assert!(!c.exists("/e/child"), "a refused create leaves no parents");
    }

    #[test]
    fn session_expires_without_heartbeat() {
        let c = Coord::new();
        let s = c.create_session(1_000);
        c.create_ephemeral(s, "/e", "").unwrap();
        c.advance(900);
        c.heartbeat(s).unwrap();
        c.advance(900);
        assert!(c.session_alive(s), "heartbeat kept it alive");
        c.advance(1_001);
        assert!(!c.session_alive(s));
        assert!(!c.exists("/e"), "ephemeral reaped on expiry");
        assert!(matches!(c.heartbeat(s), Err(CoordError::NoSession(_))));
        let m = c.metrics();
        assert_eq!(m.sessions_expired, 1);
        assert_eq!(m.ephemerals_reaped, 1);
    }

    #[test]
    fn dropped_heartbeats_expire_the_session() {
        let c = Coord::new();
        let s = c.create_session(1_000);
        c.set_drop_heartbeats(s, true).unwrap();
        c.advance(600);
        c.heartbeat(s).unwrap(); // client thinks it succeeded
        c.advance(600);
        assert!(!c.session_alive(s), "dropped heartbeats did not refresh");
    }

    #[test]
    fn callback_watch_runs_and_may_rearm() {
        let c = Coord::new();
        c.upsert("/cb", "0").unwrap();
        let fired = Arc::new(AtomicUsize::new(0));
        let count = counter(&fired);
        let c2 = c.clone();
        assert!(c.watch_deleted("/cb", move || {
            count();
            // Nested mutation from inside a callback must not deadlock.
            c2.upsert("/cb-echo", "x").unwrap();
        }));
        c.delete_recursive("/cb").unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        assert!(c.exists("/cb-echo"));
        c.upsert("/cb", "1").unwrap();
        c.delete_recursive("/cb").unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 1, "one-shot");
    }

    #[test]
    fn watch_deleted_on_absent_node_arms_nothing() {
        let c = Coord::new();
        let fired = Arc::new(AtomicUsize::new(0));
        assert!(!c.watch_deleted("/later", counter(&fired)));
        c.upsert("/later", "").unwrap();
        c.delete_recursive("/later").unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 0, "no watch was armed");
        assert_eq!(c.metrics().watches_registered, 0);
    }

    #[test]
    fn writes_neither_fire_nor_consume_a_deletion_watch() {
        let c = Coord::new();
        c.upsert("/w", "0").unwrap();
        let fired = Arc::new(AtomicUsize::new(0));
        assert!(c.watch_deleted("/w", counter(&fired)));
        c.upsert("/w", "1").unwrap();
        c.upsert("/w/child", "").unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 0, "writes do not fire it");
        c.delete_recursive("/w").unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 1, "the delete does, once");
        assert_eq!(c.metrics().watches_fired, 1);
    }

    #[test]
    fn force_expire_reaps_and_counts() {
        let c = Coord::new();
        let s = c.create_session(60_000);
        c.create_ephemeral(s, "/f/e", "").unwrap();
        let fired = Arc::new(AtomicUsize::new(0));
        assert!(c.watch_deleted("/f/e", counter(&fired)));
        c.force_expire(s).unwrap();
        assert!(!c.exists("/f/e"));
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        assert_eq!(c.metrics().sessions_expired, 1);
        assert_eq!(c.force_expire(s), Err(CoordError::NoSession(s)));
    }

    #[test]
    fn upsert_creates_then_bumps() {
        let c = Coord::new();
        c.upsert("/u/v", "1").unwrap();
        assert_eq!(c.get("/u/v").unwrap(), "1");
        c.upsert("/u/v", "2").unwrap();
        assert_eq!(c.get("/u/v").unwrap(), "2");
        assert_eq!(c.metrics().znodes, 3, "root + /u + /u/v");
    }

    #[test]
    fn metrics_snapshot_counts() {
        let c = Coord::new();
        assert_eq!(c.metrics().znodes, 1, "root only");
        c.upsert("/m/a", "").unwrap();
        assert_eq!(c.metrics().znodes, 3, "root + /m + /m/a");
        let _s = c.create_session(1_000);
        assert_eq!(c.metrics().live_sessions, 1);
        assert_eq!(c.metrics().sessions_created, 1);
    }
}
