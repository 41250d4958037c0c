//! The shared metrics registry.
//!
//! A registry is a cheap cloneable handle to a table of named, labeled
//! instruments. Owners mint their instruments when they are built:
//! `counter`/`gauge`/`histogram` are get-or-create, so a second owner of
//! the same (name, labels) series — a respawned container, say — gets the
//! live handle back and the series continues.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::instruments::{Counter, Gauge, Histogram, HistogramSnapshot};

/// Sorted `(key, value)` label pairs identifying one instrument series.
pub type Labels = Vec<(String, String)>;

fn normalize(labels: &[(&str, &str)]) -> Labels {
    let mut l: Labels = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    l.sort();
    l
}

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

/// Thread-safe, cloneable registry of instruments keyed by name + labels.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    table: Arc<Mutex<BTreeMap<(String, Labels), Instrument>>>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert(&self, name: &str, labels: &[(&str, &str)], make: Instrument) -> Instrument {
        let key = (name.to_string(), normalize(labels));
        let mut table = self.table.lock().unwrap();
        table.entry(key).or_insert(make).clone()
    }

    /// Get or create a counter series.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.get_or_insert(name, labels, Instrument::Counter(Counter::new())) {
            Instrument::Counter(c) => c,
            other => panic!("metric {name} already registered as a {}", other.kind()),
        }
    }

    /// Get or create a gauge series.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.get_or_insert(name, labels, Instrument::Gauge(Gauge::new())) {
            Instrument::Gauge(g) => g,
            other => panic!("metric {name} already registered as a {}", other.kind()),
        }
    }

    /// Get or create a histogram series.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.get_or_insert(name, labels, Instrument::Histogram(Histogram::new())) {
            Instrument::Histogram(h) => h,
            other => panic!("metric {name} already registered as a {}", other.kind()),
        }
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        self.table.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.table.lock().unwrap().is_empty()
    }

    /// Snapshot every series, sorted by (name, labels).
    pub fn snapshot(&self) -> RegistrySnapshot {
        self.snapshot_prefix("")
    }

    /// Snapshot the series whose name starts with `prefix`.
    pub fn snapshot_prefix(&self, prefix: &str) -> RegistrySnapshot {
        let table = self.table.lock().unwrap();
        let entries = table
            .iter()
            .filter(|((name, _), _)| name.starts_with(prefix))
            .map(|((name, labels), inst)| MetricSnapshot {
                name: name.clone(),
                labels: labels.clone(),
                value: match inst {
                    Instrument::Counter(c) => MetricValue::Counter(c.get()),
                    Instrument::Gauge(g) => MetricValue::Gauge(g.get()),
                    Instrument::Histogram(h) => MetricValue::Histogram(Box::new(h.snapshot())),
                },
            })
            .collect();
        RegistrySnapshot { entries }
    }
}

/// One series' point-in-time value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
    // Boxed: a histogram snapshot carries its bucket array and would bloat
    // every counter/gauge entry in a registry snapshot otherwise.
    Histogram(Box<HistogramSnapshot>),
}

/// One series in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    pub name: String,
    pub labels: Labels,
    pub value: MetricValue,
}

/// Ordered snapshot of a registry (or a prefix of it).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    pub entries: Vec<MetricSnapshot>,
}

impl RegistrySnapshot {
    /// Counter value for an exact (name, labels) series, if present.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let want = normalize(labels);
        self.entries.iter().find_map(|e| {
            if e.name == name && e.labels == want {
                match e.value {
                    MetricValue::Counter(v) => Some(v),
                    _ => None,
                }
            } else {
                None
            }
        })
    }

    /// Sum of all counter series sharing `name` regardless of labels.
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.name == name)
            .map(|e| match e.value {
                MetricValue::Counter(v) => v,
                _ => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_shared_handles() {
        let r = MetricsRegistry::new();
        let a = r.counter("x.count", &[("task", "0")]);
        let b = r.counter("x.count", &[("task", "0")]);
        a.add(2);
        b.inc();
        assert_eq!(r.snapshot().counter("x.count", &[("task", "0")]), Some(3));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn label_order_is_irrelevant() {
        let r = MetricsRegistry::new();
        r.counter("y", &[("a", "1"), ("b", "2")]).inc();
        r.counter("y", &[("b", "2"), ("a", "1")]).inc();
        assert_eq!(r.len(), 1);
        assert_eq!(r.snapshot().counter_sum("y"), 2);
    }

    #[test]
    fn prefix_snapshot_filters() {
        let r = MetricsRegistry::new();
        r.counter("kafka.broker.in", &[]).inc();
        r.counter("samza.task.processed", &[]).inc();
        let s = r.snapshot_prefix("kafka.");
        assert_eq!(s.entries.len(), 1);
        assert_eq!(s.entries[0].name, "kafka.broker.in");
    }
}
