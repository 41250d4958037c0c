//! `samzasql-obs`: unified observability for the SamzaSQL workspace.
//!
//! One registry, three instrument kinds, and a span tracer:
//!
//! - [`MetricsRegistry`] — thread-safe table of named, labeled
//!   [`Counter`]/[`Gauge`]/[`Histogram`] instruments. Instruments are `Arc`
//!   handles: the hot path updates relaxed atomics, the registry snapshots
//!   them on demand. Each deployment has one registry, owned by its broker;
//!   every owner of instruments mints them from it when it is built.
//! - [`Tracer`] — hierarchical spans with structured events, buffered in a
//!   bounded ring, dumpable as line-JSON. A caller that traces (the
//!   per-layer benchmark replay) builds one over the clock it measures with.
//! - [`TimeSource`] — injected clock ([`MonotonicTime`] in production,
//!   [`ManualTime`] in tests) so no obs test touches `std::time`.
//!
//! Exporters ([`render_text`], [`render_json_lines`], [`render_prometheus`])
//! are deterministic functions of a sorted snapshot. Naming convention:
//! dotted lowercase paths, `<crate>.<component>.<metric>`, e.g.
//! `kafka.broker.messages_in`; identity labels (`job`, `container`, `task`,
//! `op`) go in labels, never in names. See `docs/OBSERVABILITY.md`.

pub mod export;
pub mod instruments;
pub mod registry;
pub mod time;
pub mod trace;

pub use export::{
    json_escape, render_json_lines, render_prometheus, render_text, validate_prometheus,
};
pub use instruments::{
    bucket_index, bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot,
    HISTOGRAM_BUCKETS,
};
pub use registry::{Labels, MetricSnapshot, MetricValue, MetricsRegistry, RegistrySnapshot};
pub use time::{ManualTime, MonotonicTime, Stopwatch, TimeSource};
pub use trace::{Span, SpanRecord, Tracer, DEFAULT_RING_CAPACITY};
