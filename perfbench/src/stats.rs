//! Order statistics and metric records.

/// A latency summary: the median, the highest percentile that still has at
/// least [`TAIL_SAMPLES`] samples beyond it, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median (mean of the two middle samples for an even count).
    pub p50: f64,
    /// Value at [`Summary::tail_pct`]; equals `p50` when there are too few
    /// samples for any percentile above the median.
    pub tail: f64,
    /// The percentile `tail` reports, in percent (e.g. `99.0`).
    pub tail_pct: f64,
    /// Number of samples.
    pub n: usize,
}

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_SAMPLES: usize = 10;

/// The percentiles [`summarize`] considers for the tail, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Median of `values` (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Nearest-rank percentile of already sorted samples: the smallest sample
/// with at least `pct`% of the samples at or below it.
fn nearest_rank(sorted: &[f64], pct: f64) -> f64 {
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Summarises `values`: median, the highest of p99.9/p99/p95/p90/p75 with
/// at least [`TAIL_SAMPLES`] samples strictly beyond its rank, and the
/// count. With too few samples for any of them the tail is the median and
/// `tail_pct` is 50.
pub fn summarize(values: &[f64]) -> Summary {
    let n = values.len();
    let p50 = median(values);
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    for pct in TAIL_CANDIDATES {
        let rank = ((pct / 100.0) * n as f64).ceil() as usize;
        if n > 0 && n.saturating_sub(rank.max(1)) >= TAIL_SAMPLES {
            return Summary {
                p50,
                tail: nearest_rank(&sorted, pct),
                tail_pct: pct,
                n,
            };
        }
    }
    Summary {
        p50,
        tail: p50,
        tail_pct: 50.0,
        n,
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric: value, unit and better-direction, plus an optional
/// note (which percentile a tail metric is, and over how many samples).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub better: Better,
    pub note: Option<String>,
}

/// An ordered metric set.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, better: Better) {
        self.0.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            better,
            note: None,
        });
    }

    /// Pushes a tail percentile, noting which percentile and how many
    /// samples it came from.
    pub fn push_tail(&mut self, name: &str, s: &Summary, unit: &'static str) {
        self.push(name, s.tail, unit, Better::Lower);
        if let Some(m) = self.0.last_mut() {
            m.note = Some(format!("p{} of {} samples", s.tail_pct, s.n));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn small_samples_report_the_median_as_tail() {
        let s = summarize(&[5.0, 1.0, 3.0]);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.tail, 3.0);
        assert_eq!(s.tail_pct, 50.0);
        assert_eq!(s.n, 3);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 100 samples: p99 leaves 1 beyond, p90 leaves exactly 10.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.tail_pct, 90.0);
        assert_eq!(s.tail, 90.0);
        assert_eq!(s.p50, 50.5);
        // 1000 samples: p99 leaves exactly 10.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.tail, 990.0);
        // 20000 samples reach p99.9.
        let v: Vec<f64> = (1..=20_000).map(f64::from).collect();
        assert_eq!(summarize(&v).tail_pct, 99.9);
    }

    #[test]
    fn tail_falls_back_to_p75_then_median() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.tail_pct, s.tail), (75.0, 30.0));
        let v: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(summarize(&v).tail_pct, 50.0);
    }

    #[test]
    fn order_of_samples_does_not_matter() {
        let mut v: Vec<f64> = (1..=200).map(|i| f64::from((i * 37) % 200)).collect();
        let a = summarize(&v);
        v.reverse();
        assert_eq!(a, summarize(&v));
    }

    #[test]
    fn tail_metric_carries_its_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let mut m = Metrics::default();
        m.push_tail("lat", &summarize(&v), "ms");
        assert_eq!(m.0[0].note.as_deref(), Some("p90 of 100 samples"));
        assert_eq!(m.0[0].better, Better::Lower);
    }
}
