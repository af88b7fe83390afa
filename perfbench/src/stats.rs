//! Percentiles under the benchmark's sample-count rule, and medians.

/// Fewest samples that must lie strictly above a percentile's rank before
/// the percentile is reported. Below this the tail is one or two unlucky
/// samples, not a property of the system.
pub const MIN_BEYOND: usize = 10;

/// A reported percentile: its value and the sample it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// Nearest-rank value, in the sample's unit.
    pub value: f64,
    /// Size of the whole sample.
    pub samples: usize,
    /// Samples ranked strictly above the percentile.
    pub beyond: usize,
}

/// The `q`-quantile of an ascending-sorted sample by nearest rank (the
/// smallest element with at least `q · n` of the sample at or below it), or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<Percentile> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.checked_sub(rank)?;
    if beyond < MIN_BEYOND {
        return None;
    }
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond,
    })
}

/// Sorts a sample ascending (total order; a failed request is stored as
/// `f64::INFINITY` so it misses every latency limit).
pub fn sorted(mut sample: Vec<f64>) -> Vec<f64> {
    sample.sort_by(f64::total_cmp);
    sample
}

/// Median of a small set of repetitions (mean of the middle two for an even
/// count). `None` for an empty set.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values.to_vec());
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Arithmetic mean; `None` for an empty sample.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}
