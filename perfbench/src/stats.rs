//! The benchmark's own arithmetic: quantiles over raw samples, and the
//! attribution of a traced interval to layers.
//!
//! Everything here is pure so the self-tests at the bottom can pin it
//! on known inputs.

use drybell_obs::json::Json;
use drybell_obs::TraceEvent;
use std::collections::BTreeMap;

/// One quantile of a raw sample, with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The quantile level in `[0, 1]`.
    pub q: f64,
    /// The nearest-rank value: the `ceil(q * n)`-th smallest sample
    /// (the smallest sample for `q = 0`).
    pub value: f64,
    /// Samples the value was taken from.
    pub count: usize,
    /// Samples strictly greater than `value`.
    pub beyond: usize,
}

impl Quantile {
    /// The quantile as a JSON object: value, sample count, samples
    /// beyond it.
    pub fn to_json(self) -> Json {
        Json::obj(vec![
            ("q", Json::from(self.q)),
            ("value", Json::from(self.value)),
            ("count", Json::from(self.count)),
            ("beyond", Json::from(self.beyond)),
        ])
    }
}

/// Nearest-rank quantile of `samples` (need not be sorted). `None` for
/// an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> Option<Quantile> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// [`quantile`] over an already ascending sample.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<Quantile> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    let value = sorted[rank - 1];
    // Everything after the last copy of `value` lies beyond it.
    let last_equal = sorted.partition_point(|x| x.total_cmp(&value).is_le());
    Some(Quantile {
        q,
        value,
        count: n,
        beyond: n - last_equal,
    })
}

/// The median (nearest-rank p50) of `samples`, or 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).map_or(0.0, |q| q.value)
}

/// Arithmetic mean, or 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The median over equal segments of a run of each segment's quantile
/// `q`, with the per-segment quantiles it was taken from. This host
/// stalls for tens of ms now and then, and one stall sets a whole run's
/// tail; the median segment is the run's typical tail.
pub fn segment_median(segments: &[Option<Quantile>]) -> Option<(f64, Json)> {
    let values: Vec<f64> = segments.iter().flatten().map(|q| q.value).collect();
    let value = quantile(&values, 0.5)?.value;
    let parts = segments
        .iter()
        .map(|q| q.map_or(Json::Null, Quantile::to_json))
        .collect();
    Some((value, Json::Arr(parts)))
}

/// Every latency sample of a run, kept at 0.1 µs resolution in memory
/// that does not grow with the sample count (so a faster run does not
/// read as a bigger one): one counter per 0.1 µs step up to 20 ms, and
/// samples above that kept as they are.
pub struct Latencies {
    counts: Vec<u32>,
    overflow: Vec<f64>,
    len: usize,
}

impl Latencies {
    /// Width of one step, µs.
    pub const STEP_US: f64 = 0.1;
    const STEPS: usize = 200_000;

    /// An empty recorder.
    pub fn new() -> Latencies {
        Latencies {
            counts: vec![0; Self::STEPS],
            overflow: Vec::new(),
            len: 0,
        }
    }

    /// Record one sample, µs.
    pub fn record_us(&mut self, us: f64) {
        let step = (us.max(0.0) / Self::STEP_US) as usize;
        match self.counts.get_mut(step) {
            Some(c) => *c += 1,
            None => self.overflow.push(us),
        }
        self.len += 1;
    }

    /// Samples recorded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Nearest-rank quantile, as [`quantile`] gives it over the raw
    /// samples; a value below 20 ms is its step's midpoint.
    pub fn quantile(&self, q: f64) -> Option<Quantile> {
        if self.len == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.len as f64).ceil() as usize).clamp(1, self.len);
        let mut seen = 0usize;
        for (step, &c) in self.counts.iter().enumerate() {
            seen += c as usize;
            if seen >= rank {
                return Some(Quantile {
                    q,
                    value: (step as f64 + 0.5) * Self::STEP_US,
                    count: self.len,
                    beyond: self.len - seen,
                });
            }
        }
        let mut over = self.overflow.clone();
        over.sort_by(f64::total_cmp);
        let value = *over.get(rank - seen - 1)?;
        let through = over.partition_point(|x| x.total_cmp(&value).is_le());
        Some(Quantile {
            q,
            value,
            count: self.len,
            beyond: over.len() - through,
        })
    }
}

/// Per-layer self time of one traced interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// Wall time of the root interval, µs.
    pub wall_us: u64,
    /// Self time per layer (the span-name prefix before the first
    /// `/`), µs, over every descendant of the root.
    pub layers: BTreeMap<String, u64>,
    /// `wall_us` minus the summed layer self times: time inside the
    /// root that no layer span covers (the benchmark's own loop). May
    /// be negative by a few µs when concurrent children overlap.
    pub unattributed_us: i64,
    /// Spans under the root.
    pub spans: usize,
}

/// The layer a span belongs to: its name up to the first `/`.
pub fn layer_of(name: &str) -> &str {
    name.split('/').next().unwrap_or(name)
}

/// Attribute the interval `root` to layers: each descendant's self time
/// (its duration minus its direct children's, clamped at zero) goes to
/// its layer, and whatever the layers leave of the root's wall time is
/// `unattributed`. By construction the layer self times plus
/// `unattributed` equal the root's wall time.
pub fn attribute(events: &[TraceEvent], root: u64) -> Option<Attribution> {
    let root_event = events.iter().find(|e| e.id == root)?;
    let mut children: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
    for e in events {
        if let Some(parent) = e.parent {
            children.entry(parent).or_default().push(e);
        }
    }
    let mut layers: BTreeMap<String, u64> = BTreeMap::new();
    let mut spans = 0usize;
    let mut stack: Vec<u64> = vec![root];
    while let Some(id) = stack.pop() {
        for child in children.get(&id).map(Vec::as_slice).unwrap_or(&[]) {
            spans += 1;
            let covered: u64 = children
                .get(&child.id)
                .map_or(0, |cs| cs.iter().map(|c| c.dur_us).sum());
            *layers.entry(layer_of(&child.name).to_string()).or_insert(0) +=
                child.dur_us.saturating_sub(covered);
            stack.push(child.id);
        }
    }
    let attributed: u64 = layers.values().sum();
    Some(Attribution {
        wall_us: root_event.dur_us,
        unattributed_us: root_event.dur_us as i64 - attributed as i64,
        layers,
        spans,
    })
}

/// FNV-1a over the exact bit patterns of a float sequence: equal
/// checksums ⇔ byte-identical values.
pub fn bits_checksum(xs: impl IntoIterator<Item = f64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(id: u64, parent: Option<u64>, name: &str, ts_us: u64, dur_us: u64) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            ts_us,
            dur_us,
            tid: 1,
            id,
            parent,
        }
    }

    #[test]
    fn nearest_rank_quantiles_on_one_to_hundred() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p50 = quantile(&xs, 0.5).unwrap();
        assert_eq!((p50.value, p50.count, p50.beyond), (50.0, 100, 50));
        let p99 = quantile(&xs, 0.99).unwrap();
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        let p95 = quantile(&xs, 0.95).unwrap();
        assert_eq!((p95.value, p95.beyond), (95.0, 5));
        let max = quantile(&xs, 1.0).unwrap();
        assert_eq!((max.value, max.beyond), (100.0, 0));
        let min = quantile(&xs, 0.0).unwrap();
        assert_eq!((min.value, min.beyond), (1.0, 99));
    }

    #[test]
    fn count_beyond_skips_ties() {
        let xs = [1.0, 2.0, 2.0, 2.0, 3.0];
        let p50 = quantile(&xs, 0.5).unwrap();
        assert_eq!((p50.value, p50.beyond), (2.0, 1));
        let p20 = quantile(&xs, 0.2).unwrap();
        assert_eq!((p20.value, p20.beyond), (1.0, 4));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[7.0], 0.99).unwrap().value, 7.0);
    }

    #[test]
    fn latency_recorder_matches_raw_quantiles_to_its_step() {
        // 1000 samples at 10.05, 10.15, ... µs, plus two above 20 ms.
        let mut raw: Vec<f64> = (0..1000).map(|i| 10.05 + 0.1 * f64::from(i)).collect();
        raw.extend([25_000.0, 30_000.0]);
        let mut rec = Latencies::new();
        for &x in raw.iter().rev() {
            rec.record_us(x);
        }
        assert_eq!(rec.len(), 1002);
        for q in [0.0, 0.5, 0.95, 0.99, 0.998] {
            let want = quantile(&raw, q).unwrap();
            let got = rec.quantile(q).unwrap();
            assert!(
                (got.value - want.value).abs() < 1e-6,
                "q {q}: {got:?} vs {want:?}"
            );
            assert_eq!((got.count, got.beyond), (want.count, want.beyond), "q {q}");
        }
        // Ranks inside the overflow come from the raw samples there.
        let top = rec.quantile(1.0).unwrap();
        assert_eq!((top.value, top.beyond, top.count), (30_000.0, 0, 1002));
        let p999 = rec.quantile(0.9985).unwrap();
        assert_eq!((p999.value, p999.beyond), (25_000.0, 1));
        assert!(Latencies::new().quantile(0.5).is_none());
        // A failed operation is recorded as infinitely late.
        rec.record_us(f64::INFINITY);
        let top = rec.quantile(1.0).unwrap();
        assert_eq!((top.value, top.count), (f64::INFINITY, 1003));
        assert_eq!(rec.quantile(0.5).unwrap().beyond, 501);
    }

    #[test]
    fn segment_median_is_robust_to_one_stalled_segment() {
        let q = |v: f64| {
            Some(Quantile {
                q: 0.99,
                value: v,
                count: 100,
                beyond: 1,
            })
        };
        let (value, parts) = segment_median(&[q(1.0), q(50.0), q(1.2), None, q(1.1)]).unwrap();
        assert_eq!(value, 1.1);
        assert_eq!(parts.items().len(), 5);
        assert!(segment_median(&[None]).is_none());
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 100 µs: lf 60 (with a nested nlp child of 25), core 30.
        let events = vec![
            ev(1, None, "bench/root", 0, 100),
            ev(2, Some(1), "lf/exec", 2, 60),
            ev(3, Some(2), "nlp/annotate", 10, 25),
            ev(4, Some(1), "core/fit", 65, 30),
        ];
        let a = attribute(&events, 1).unwrap();
        assert_eq!(a.wall_us, 100);
        assert_eq!(a.layers["lf"], 35);
        assert_eq!(a.layers["nlp"], 25);
        assert_eq!(a.layers["core"], 30);
        assert_eq!(a.spans, 3);
        assert_eq!(a.unattributed_us, 10);
        let total: i64 = a.layers.values().map(|&v| v as i64).sum::<i64>() + a.unattributed_us;
        assert_eq!(total, a.wall_us as i64);
    }

    #[test]
    fn unattributed_is_the_remainder_and_ignores_other_roots() {
        let events = vec![
            ev(1, None, "bench/root", 0, 50),
            ev(2, Some(1), "serving/submit", 0, 5),
            ev(3, Some(1), "serving/wait", 5, 30),
            ev(4, Some(1), "serving/submit", 35, 5),
            // A span on another root (e.g. a generator thread) is not
            // part of this interval's accounting.
            ev(5, None, "dataflow/commit", 0, 40),
            ev(6, Some(5), "dataflow/write", 0, 40),
        ];
        let a = attribute(&events, 1).unwrap();
        assert_eq!(a.layers.len(), 1);
        assert_eq!(a.layers["serving"], 40);
        assert_eq!(a.unattributed_us, 10);
        assert_eq!(a.spans, 3);
        assert!(attribute(&events, 99).is_none());
    }

    #[test]
    fn overlapping_children_clamp_self_time_at_zero() {
        // Two concurrent children that together exceed their parent.
        let events = vec![
            ev(1, None, "bench/root", 0, 100),
            ev(2, Some(1), "lf/exec", 0, 80),
            ev(3, Some(2), "nlp/a", 0, 70),
            ev(4, Some(2), "nlp/b", 0, 70),
        ];
        let a = attribute(&events, 1).unwrap();
        assert_eq!(a.layers["lf"], 0);
        assert_eq!(a.layers["nlp"], 140);
        assert_eq!(a.unattributed_us, 100 - 140);
    }

    #[test]
    fn checksum_sees_every_bit() {
        assert_eq!(bits_checksum([1.0, 2.0]), bits_checksum(vec![1.0, 2.0]));
        assert_ne!(bits_checksum([1.0, 2.0]), bits_checksum([2.0, 1.0]));
        assert_ne!(bits_checksum([0.0]), bits_checksum([-0.0]));
    }
}
