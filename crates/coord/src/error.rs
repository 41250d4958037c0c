//! Coordination-service error type.

use crate::service::SessionId;
use std::fmt;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CoordError>;

/// Errors surfaced by the coordination service, modeled on ZooKeeper's
/// `KeeperException` codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordError {
    /// The referenced znode does not exist.
    NoNode(String),
    /// A create collided with an existing znode.
    NodeExists(String),
    /// Ephemeral znodes cannot have children.
    NoChildrenForEphemerals(String),
    /// The referenced session does not exist (never created, closed, or
    /// already expired).
    NoSession(SessionId),
    /// The root znode cannot be created, deleted, or written.
    RootReadOnly,
}

impl fmt::Display for CoordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoordError::NoNode(p) => write!(f, "no node: {p}"),
            CoordError::NodeExists(p) => write!(f, "node already exists: {p}"),
            CoordError::NoChildrenForEphemerals(p) => {
                write!(f, "ephemeral nodes cannot have children: {p}")
            }
            CoordError::NoSession(s) => write!(f, "no such session: {s}"),
            CoordError::RootReadOnly => write!(f, "the root znode is read-only"),
        }
    }
}

impl std::error::Error for CoordError {}
