//! Counters, gauges, and bounded histograms, all integer-valued.
//!
//! Metrics live in `BTreeMap`s keyed by name so that every export walks
//! them in lexicographic order — a requirement of the byte-identical
//! replay contract. Every histogram uses the one fixed set of bucket
//! bounds, [`DEFAULT_BOUNDS`], so two registries built from the same
//! event stream are structurally equal.

use std::collections::BTreeMap;

use crate::event::push_json_str;

/// The histogram bounds (upper-inclusive bucket edges, strictly
/// increasing), exponential, suitable for sim-time durations in seconds
/// and for small counts.
pub const DEFAULT_BOUNDS: &[u64] = &[1, 2, 5, 10, 30, 60, 120, 300, 600, 1800, 3600, 7200];

/// A histogram of `u64` observations over [`DEFAULT_BOUNDS`].
///
/// The histogram has `DEFAULT_BOUNDS.len() + 1` buckets: one per
/// upper-inclusive bound plus an overflow bucket. Alongside the buckets
/// it tracks the exact count, sum, min, and max, so summary statistics
/// need no bucket interpolation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Observation counts per bucket; last entry is the overflow bucket.
    counts: [u64; DEFAULT_BOUNDS.len() + 1],
    /// Total number of observations.
    count: u64,
    /// Sum of all observed values.
    sum: u64,
    /// Smallest observed value, if any observation was made.
    min: Option<u64>,
    /// Largest observed value, if any observation was made.
    max: Option<u64>,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let idx = match DEFAULT_BOUNDS.iter().position(|&b| value <= b) {
            Some(i) => i,
            None => DEFAULT_BOUNDS.len(),
        };
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = Some(self.min.map_or(value, |m| m.min(value)));
        self.max = Some(self.max.map_or(value, |m| m.max(value)));
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, or `None` if the histogram is empty.
    pub fn min(&self) -> Option<u64> {
        self.min
    }

    /// Largest observation, or `None` if the histogram is empty.
    pub fn max(&self) -> Option<u64> {
        self.max
    }

    /// Integer mean of the observations, or `None` if empty.
    pub fn mean(&self) -> Option<u64> {
        self.sum.checked_div(self.count)
    }

    /// Per-bucket counts; the final entry is the overflow bucket.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }
}

/// A registry of named counters, gauges, and histograms.
///
/// All three namespaces are independent `BTreeMap`s, so exports walk
/// names in lexicographic order regardless of insertion order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `delta` to the named counter, creating it at zero first.
    pub fn count(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets the named gauge to `value`.
    pub fn gauge(&mut self, name: &str, value: i64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Records `value` into the named histogram, creating it on first
    /// use.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms.entry(name.to_string()).or_default().observe(value);
    }

    /// Reads a counter, returning 0 when it was never incremented.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates counters in lexicographic name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates gauges in lexicographic name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, i64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates histograms in lexicographic name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Encodes the registry as one deterministic JSON object with
    /// `counters`, `gauges`, and `histograms` sections, names in
    /// lexicographic order.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, name);
            out.push(':');
            out.push_str(&value.to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, name);
            out.push(':');
            out.push_str(&value.to_string());
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, hist)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, name);
            out.push_str(":{\"count\":");
            out.push_str(&hist.count().to_string());
            out.push_str(",\"sum\":");
            out.push_str(&hist.sum().to_string());
            out.push_str(",\"min\":");
            match hist.min() {
                Some(v) => out.push_str(&v.to_string()),
                None => out.push_str("null"),
            }
            out.push_str(",\"max\":");
            match hist.max() {
                Some(v) => out.push_str(&v.to_string()),
                None => out.push_str("null"),
            }
            out.push_str(",\"buckets\":[");
            for (j, c) in hist.bucket_counts().iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&c.to_string());
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_upper_inclusive_with_overflow() {
        let mut h = Histogram::default();
        h.observe(0);
        h.observe(1); // upper-inclusive: lands in the first bucket
        h.observe(2);
        h.observe(7200);
        h.observe(7201); // overflow
        assert_eq!(h.bucket_counts(), &[2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 14404);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(7201));
        assert_eq!(h.mean(), Some(2880));
    }

    #[test]
    fn registry_json_is_sorted_and_stable() {
        let mut r = MetricsRegistry::new();
        r.count("z.late", 1);
        r.count("a.early", 2);
        r.gauge("mid", -3);
        r.observe("h", 2);
        let json = r.to_json();
        assert_eq!(
            json,
            "{\"counters\":{\"a.early\":2,\"z.late\":1},\"gauges\":{\"mid\":-3},\
             \"histograms\":{\"h\":{\"count\":1,\"sum\":2,\"min\":2,\"max\":2,\
             \"buckets\":[0,1,0,0,0,0,0,0,0,0,0,0,0]}}}"
        );
        assert_eq!(json, r.clone().to_json());
    }
}
