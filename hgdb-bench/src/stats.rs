//! Sample summaries and per-operation accounting.

use std::collections::BTreeMap;

/// Median of `values` (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of `values` (`NaN` when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The highest of p75/p90/p99/p99.9 that still has at least ten samples
/// beyond it, as `(percentile, value)`; `None` below forty samples,
/// where no percentile above the median is a tail.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    // Percentiles in tenths of a percent, so the count beyond each is
    // exact: n * (1000 - p) / 1000 >= 10.
    [999, 990, 900, 750]
        .into_iter()
        .find(|p| values.len() * (1000 - p) >= 10_000)
        .map(|p| {
            let q = p as f64 / 1000.0;
            (q * 100.0, quantile(values, q))
        })
}

/// Attempted and failed counts per operation kind.
#[derive(Debug, Default, Clone)]
pub struct Ops {
    kinds: BTreeMap<&'static str, (u64, u64)>,
}

impl Ops {
    /// Counts one attempt of `kind`, failed or not.
    pub fn count(&mut self, kind: &'static str, ok: bool) {
        let entry = self.kinds.entry(kind).or_default();
        entry.0 += 1;
        if !ok {
            entry.1 += 1;
        }
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: &Ops) {
        for (kind, (a, f)) in &other.kinds {
            let entry = self.kinds.entry(kind).or_default();
            entry.0 += a;
            entry.1 += f;
        }
    }

    /// Total `(attempted, failed)`.
    pub fn totals(&self) -> (u64, u64) {
        self.kinds
            .values()
            .fold((0, 0), |(a, f), (da, df)| (a + da, f + df))
    }

    /// One `kind attempted failed` line per kind.
    pub fn table(&self) -> String {
        let mut out = format!("{:<22} {:>10} {:>8}\n", "operation", "attempted", "failed");
        for (kind, (a, f)) in &self.kinds {
            out.push_str(&format!("{kind:<22} {a:>10} {f:>8}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(tail(&[1.0; 39]).is_none());
        assert_eq!(tail(&[1.0; 100]).map(|t| t.0), Some(90.0));
        assert_eq!(tail(&[1.0; 1000]).map(|t| t.0), Some(99.0));
    }

    #[test]
    fn ops_totals() {
        let mut ops = Ops::default();
        ops.count("continue", true);
        ops.count("reverse_continue", false);
        let mut other = Ops::default();
        other.count("continue", true);
        ops.merge(&other);
        assert_eq!(ops.totals(), (3, 1));
    }
}
