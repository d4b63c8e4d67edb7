//! Order statistics and interval arithmetic shared by every workload.

/// Median of `values` (mean of the middle pair for even counts); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// The samples a percentile must leave above it before it is reported:
/// a tail estimate resting on fewer is noise.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The `p`-th percentile (0 < p < 100) by the nearest-rank rule, reported
/// only when at least [`MIN_TAIL_SAMPLES`] samples lie strictly beyond its
/// rank; `None` otherwise.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} outside (0, 100)");
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    let beyond = sorted.len() - rank;
    (beyond >= MIN_TAIL_SAMPLES).then(|| sorted[rank - 1])
}

/// A half-open time interval `[start, end)` in nanoseconds.
pub type Interval = (u64, u64);

/// Total length of the union of `intervals` clipped to `window`:
/// overlapping intervals (children running in parallel on several workers)
/// count once.
pub fn covered(window: Interval, intervals: &[Interval]) -> u64 {
    let mut clipped: Vec<Interval> = intervals
        .iter()
        .map(|&(s, e)| (s.max(window.0), e.min(window.1)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<Interval> = None;
    for (s, e) in clipped {
        match &mut current {
            Some((_, ce)) if s <= *ce => *ce = (*ce).max(e),
            _ => {
                if let Some((cs, ce)) = current {
                    total += ce - cs;
                }
                current = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// A span's self time: its duration minus the part of it its children
/// cover.
pub fn self_time(span: Interval, children: &[Interval]) -> u64 {
    (span.1 - span.0) - covered(span, children)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p90 of 99 samples: rank 90 leaves 9 beyond — not reportable.
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&ninety_nine, 90.0), None);
        // p90 of 100 samples: rank 90 leaves exactly 10 beyond.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), Some(90.0));
        // The median of 21 samples has 10 beyond; of 19, only 9.
        let twenty_one: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(percentile(&twenty_one, 50.0), Some(11.0));
        let nineteen: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&nineteen, 50.0), None);
        // Order of the input does not matter.
        let mut shuffled = hundred.clone();
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 90.0), Some(90.0));
    }

    #[test]
    fn overlapping_parallel_children_count_once() {
        // Two workers: [10, 50) and [20, 60) overlap on [20, 50).
        let children = [(10, 50), (20, 60), (70, 80)];
        assert_eq!(covered((0, 100), &children), 50 + 10);
        assert_eq!(self_time((0, 100), &children), 40);
    }

    #[test]
    fn children_are_clipped_to_the_span() {
        // A child that started before the span and one that outlives it.
        let children = [(0, 15), (90, 130)];
        assert_eq!(self_time((10, 100), &children), 90 - 5 - 10);
        // Nested and duplicate children add nothing.
        let nested = [(20, 40), (25, 30), (20, 40)];
        assert_eq!(self_time((0, 100), &nested), 80);
        assert_eq!(self_time((0, 100), &[]), 100);
        // Touching intervals merge without double counting.
        assert_eq!(covered((0, 100), &[(10, 20), (20, 30)]), 20);
    }
}
