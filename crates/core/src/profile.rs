//! Per-operator profiling and the EXPLAIN ANALYZE renderer.
//!
//! The router records, while it is built, how its operator nodes and scan
//! entries map onto the physical plan's pre-order ([`PlanBinding`]); when
//! profiling is enabled each `process_batch` call is timed and counted into
//! obs instruments, which a task mints in the metrics registry
//! (`MessageRouter::register_profile`).
//! [`registry_totals`] reads those series back, summed across a job's
//! tasks, and [`render_explain_analyze`] replays the plan's
//! `explain_lines()` and annotates every line with rows-in/rows-out, batch
//! counts, selectivity, and share of total operator busy time.

use std::collections::BTreeMap;
use std::sync::Arc;

use samzasql_obs::{Counter, MetricValue, MetricsRegistry, TimeSource};
use samzasql_planner::PhysicalPlan;

/// How the router's construction order maps onto the physical plan's
/// pre-order: one binding per plan node, recorded during `build_plan`.
/// (`build_plan` visits the plan in the same pre-order as
/// `PhysicalPlan::explain_lines`, which is what makes the zip in
/// [`render_explain_analyze`] valid.)
#[derive(Debug, Clone)]
pub enum PlanBinding {
    /// Plan node backed by an operator node (index into the router's node
    /// table). Stream-to-relation joins also own the relation's scan entry.
    Node {
        node: usize,
        relation_entry: Option<usize>,
    },
    /// Plan leaf backed by a scan entry (index into the router's entries).
    Entry(usize),
}

/// Live instruments for one operator node.
#[derive(Debug, Clone, Default)]
pub struct NodeProfile {
    pub rows_in: Counter,
    pub rows_out: Counter,
    pub batches: Counter,
    pub busy_ns: Counter,
}

impl NodeProfile {
    /// Get or create the `core.operator.*` series with the given labels.
    pub fn new(registry: &MetricsRegistry, labels: &[(&str, &str)]) -> Self {
        let counter = |name: &str| registry.counter(&format!("core.operator.{name}"), labels);
        NodeProfile {
            rows_in: counter("rows_in"),
            rows_out: counter("rows_out"),
            batches: counter("batches"),
            busy_ns: counter("busy_ns"),
        }
    }
}

/// Live instruments for one scan entry.
#[derive(Debug, Clone, Default)]
pub struct EntryProfile {
    pub rows: Counter,
    pub bytes: Counter,
    pub tombstones: Counter,
}

impl EntryProfile {
    /// Get or create the `core.scan.*` series with the given labels.
    pub fn new(registry: &MetricsRegistry, labels: &[(&str, &str)]) -> Self {
        let counter = |name: &str| registry.counter(&format!("core.scan.{name}"), labels);
        EntryProfile {
            rows: counter("rows"),
            bytes: counter("bytes"),
            tombstones: counter("tombstones"),
        }
    }
}

/// Profiler attached to a router by `MessageRouter::enable_profiling`.
#[derive(Debug)]
pub struct RouterProfiler {
    pub(crate) clock: Arc<dyn TimeSource>,
    pub(crate) nodes: Vec<NodeProfile>,
    pub(crate) entries: Vec<EntryProfile>,
    /// Per-entry rows, bytes and tombstones decoded in the current batch,
    /// added to `entries` once per batch by `flush_scan_tally`.
    pub(crate) scan_tally: Vec<ScanTally>,
}

/// One scan entry's plain counts for the batch being routed.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ScanTally {
    pub rows: u64,
    pub bytes: u64,
    pub tombstones: u64,
}

impl RouterProfiler {
    pub fn new(clock: Arc<dyn TimeSource>, node_count: usize, entry_count: usize) -> Self {
        RouterProfiler {
            clock,
            nodes: (0..node_count).map(|_| NodeProfile::default()).collect(),
            entries: (0..entry_count).map(|_| EntryProfile::default()).collect(),
            scan_tally: vec![ScanTally::default(); entry_count],
        }
    }

    /// Add the batch's scan counts to the entry instruments (three relaxed
    /// atomic adds per entry that saw a message) and reset them.
    pub(crate) fn flush_scan_tally(&mut self) {
        for (tally, live) in self.scan_tally.iter_mut().zip(&self.entries) {
            let t = std::mem::take(tally);
            if t.rows > 0 {
                live.rows.add(t.rows);
                live.bytes.add(t.bytes);
            }
            if t.tombstones > 0 {
                live.tombstones.add(t.tombstones);
            }
        }
    }
}

/// Point-in-time stats for one operator node.
#[derive(Debug, Clone, Default)]
pub struct NodeStats {
    /// Operator name plus node index, e.g. `filter#1`.
    pub name: String,
    pub rows_in: u64,
    pub rows_out: u64,
    pub batches: u64,
    pub busy_ns: u64,
}

/// Point-in-time stats for one scan entry.
#[derive(Debug, Clone, Default)]
pub struct EntryStats {
    pub topic: String,
    pub rows: u64,
    pub bytes: u64,
    pub tombstones: u64,
}

/// A full profile snapshot of one router, paired with the plan bindings
/// needed to render it against the physical plan.
#[derive(Debug, Clone)]
pub struct RouterProfile {
    pub nodes: Vec<NodeStats>,
    pub entries: Vec<EntryStats>,
    pub bindings: Vec<PlanBinding>,
    /// Index of the bounded-query sort node (sits above the plan root).
    pub sort_node: Option<usize>,
}

impl RouterProfile {
    /// Total operator busy time across all nodes.
    pub fn total_busy_ns(&self) -> u64 {
        self.nodes.iter().map(|n| n.busy_ns).sum()
    }

    /// This profile's bindings and names, with the counts the registry
    /// holds for `job` (see [`registry_totals`]): each node takes the
    /// totals of the `op` label equal to its name, each entry those of the
    /// `topic` label equal to its topic. A node or entry with no series
    /// keeps its own counts.
    pub fn with_registry_totals(mut self, registry: &MetricsRegistry, job: &str) -> Self {
        let (nodes, entries) = registry_totals(registry, Some(job));
        for n in &mut self.nodes {
            if let Some(t) = nodes.iter().find(|t| t.name == n.name) {
                *n = t.clone();
            }
        }
        for e in &mut self.entries {
            if let Some(t) = entries.iter().find(|t| t.topic == e.topic) {
                *e = t.clone();
            }
        }
        self
    }
}

/// Sum the registry's profile series across tasks: `core.operator.*` per
/// `op` label and `core.scan.*` per `topic` label, over the series labeled
/// `job=<job>` (over every job when `job` is `None`). Both lists are sorted
/// by label.
pub fn registry_totals(
    registry: &MetricsRegistry,
    job: Option<&str>,
) -> (Vec<NodeStats>, Vec<EntryStats>) {
    let mut nodes: BTreeMap<String, NodeStats> = BTreeMap::new();
    let mut entries: BTreeMap<String, EntryStats> = BTreeMap::new();
    for e in registry.snapshot_prefix("core.").entries {
        let label = |key: &str| e.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let MetricValue::Counter(v) = e.value else {
            continue;
        };
        if job.is_some_and(|j| label("job").map(String::as_str) != Some(j)) {
            continue;
        }
        let total = match (e.name.rsplit_once('.'), label("op"), label("topic")) {
            (Some(("core.operator", field)), Some(op), _) => {
                let n = nodes.entry(op.clone()).or_insert_with(|| NodeStats {
                    name: op.clone(),
                    ..NodeStats::default()
                });
                match field {
                    "rows_in" => &mut n.rows_in,
                    "rows_out" => &mut n.rows_out,
                    "batches" => &mut n.batches,
                    "busy_ns" => &mut n.busy_ns,
                    _ => continue,
                }
            }
            (Some(("core.scan", field)), _, Some(topic)) => {
                let t = entries.entry(topic.clone()).or_insert_with(|| EntryStats {
                    topic: topic.clone(),
                    ..EntryStats::default()
                });
                match field {
                    "rows" => &mut t.rows,
                    "bytes" => &mut t.bytes,
                    "tombstones" => &mut t.tombstones,
                    _ => continue,
                }
            }
            _ => continue,
        };
        *total += v;
    }
    (
        nodes.into_values().collect(),
        entries.into_values().collect(),
    )
}

fn pct(num: f64, den: f64) -> String {
    if den <= 0.0 {
        "0.0%".to_string()
    } else {
        format!("{:.1}%", 100.0 * num / den)
    }
}

/// Render the physical plan annotated with the profile's per-operator
/// statistics: `rows=IN→OUT batches=B sel=S% time=T%` per operator node,
/// `rows=N bytes=B` per scan leaf. The plan must be the one the profiled
/// router was built from.
pub fn render_explain_analyze(plan: &PhysicalPlan, profile: &RouterProfile) -> String {
    let total_busy = profile.total_busy_ns() as f64;
    let mut out = String::new();
    let mut extra_depth = 0usize;
    if let Some(sort) = profile.sort_node {
        let n = &profile.nodes[sort];
        out.push_str(&format!(
            "SortOp[order/limit]  rows={}\u{2192}{} batches={} time={}\n",
            n.rows_in,
            n.rows_out,
            n.batches,
            pct(n.busy_ns as f64, total_busy),
        ));
        extra_depth = 1;
    }
    let lines = plan.explain_lines();
    for (i, (depth, label)) in lines.iter().enumerate() {
        let pad = "  ".repeat(depth + extra_depth);
        let annotation = match profile.bindings.get(i) {
            Some(PlanBinding::Node {
                node,
                relation_entry,
            }) => {
                let n = &profile.nodes[*node];
                let mut a = format!(
                    "rows={}\u{2192}{} batches={} sel={} time={}",
                    n.rows_in,
                    n.rows_out,
                    n.batches,
                    pct(n.rows_out as f64, n.rows_in as f64),
                    pct(n.busy_ns as f64, total_busy),
                );
                if let Some(e) = relation_entry {
                    let e = &profile.entries[*e];
                    a.push_str(&format!(
                        " rel_rows={} rel_tombstones={}",
                        e.rows, e.tombstones
                    ));
                }
                a
            }
            Some(PlanBinding::Entry(e)) => {
                let e = &profile.entries[*e];
                format!("rows={} bytes={}", e.rows, e.bytes)
            }
            // A plan/binding mismatch would be a router bug; render the
            // bare line rather than panic in a diagnostics path.
            None => String::new(),
        };
        if annotation.is_empty() {
            out.push_str(&format!("{pad}{label}\n"));
        } else {
            out.push_str(&format!("{pad}{label}  {annotation}\n"));
        }
    }
    out
}
