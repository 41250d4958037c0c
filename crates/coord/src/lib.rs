//! # samzasql-coord — in-process coordination service
//!
//! A ZooKeeper-style coordination substrate for the SamzaSQL stack. The
//! paper's deployment (§4.2) leans on ZooKeeper twice: the interactive shell
//! stores streaming-query text and schema references under a well-known path
//! so query workers can re-plan locally, and Samza uses sessions and
//! ephemeral nodes for container liveness. This crate reproduces exactly
//! those semantics, in-process and deterministically:
//!
//! * a hierarchical **znode tree** of string data: persistent metadata nodes
//!   ([`Coord::upsert`], [`Coord::get`], [`Coord::children`],
//!   [`Coord::delete_recursive`]),
//! * **sessions** with heartbeats and timeout-driven expiry on a manual
//!   clock ([`Coord::advance`]) — **ephemeral** znodes
//!   ([`Coord::create_ephemeral`]) die with their session,
//! * a **one-shot deletion watch** ([`Coord::watch_deleted`]), which the
//!   cluster's application masters use to notice a dead container,
//! * **fault injection** ([`Coord::force_expire`],
//!   [`Coord::set_drop_heartbeats`]) and a [`CoordMetrics`] snapshot for
//!   chaos-style tests.
//!
//! The crate is dependency-free (pure `std`) so any layer of the stack can
//! embed it.
//!
//! ```
//! use samzasql_coord::Coord;
//! use std::sync::atomic::{AtomicBool, Ordering};
//! use std::sync::Arc;
//!
//! let coord = Coord::new();
//! let session = coord.create_session(10_000);
//! coord.create_ephemeral(session, "/samza/containers/0", "alive").unwrap();
//! assert_eq!(coord.children("/samza/containers").unwrap(), vec!["0"]);
//!
//! let lost = Arc::new(AtomicBool::new(false));
//! let flag = lost.clone();
//! assert!(coord.watch_deleted("/samza/containers/0", move || flag.store(true, Ordering::SeqCst)));
//! coord.advance(10_001); // no heartbeat: the session expires
//! assert!(coord.children("/samza/containers").unwrap().is_empty());
//! assert!(lost.load(Ordering::SeqCst));
//! ```

mod error;
mod path;
mod service;

pub use error::{CoordError, Result};
pub use path::ZnodePath;
pub use service::{Coord, CoordMetrics, SessionId};
