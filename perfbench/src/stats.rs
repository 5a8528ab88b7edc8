//! Order statistics over raw samples. Every percentile the benchmark
//! prints is an exact nearest-rank value over all samples of a run.

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`: the smallest
/// sample such that at least `p`% of all samples are less than or equal
/// to it. Returns 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Rng;

    /// The definition, checked by counting instead of indexing: the
    /// answer is a sample, at least `p`% of samples are ≤ it, and fewer
    /// than `p`% are strictly below it.
    fn satisfies_nearest_rank(values: &[f64], p: f64, answer: f64) -> bool {
        let n = values.len() as f64;
        let at_or_below = values.iter().filter(|&&v| v <= answer).count() as f64;
        let below = values.iter().filter(|&&v| v < answer).count() as f64;
        values.contains(&answer) && at_or_below >= p / 100.0 * n && below < p / 100.0 * n
    }

    #[test]
    fn percentiles_match_the_sorted_sample_oracle() {
        let mut rng = Rng::new(7);
        for case in 0..400 {
            let n = 1 + (case % 97);
            // Few distinct values in some cases, so ties are exercised.
            let spread = if case % 3 == 0 { 5 } else { 1_000_000 };
            let values: Vec<f64> = (0..n).map(|_| rng.below(spread) as f64).collect();
            for p in [1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
                let got = percentile(&values, p);
                assert!(satisfies_nearest_rank(&values, p, got), "n={n} p={p} got={got}");
            }
        }
    }

    #[test]
    fn small_cases_by_hand() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 99.0), 5.0);
        assert_eq!(percentile(&(1..=100).map(f64::from).collect::<Vec<_>>(), 99.0), 99.0);
    }
}
