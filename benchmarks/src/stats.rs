//! Sample statistics for timed repetitions.

/// Median of `samples` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller times at least one repetition.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The 10th percentile of `samples` by nearest rank: the fastest sample of
/// ten or fewer, the 60th fastest of 600. What slows a repetition on this
/// host — a busy neighbour — only ever adds time, in bursts and in stretches
/// of a minute, so the fast end of a run's samples is the program and the
/// rest is the host; the median moves with the host by a quarter, this by a
/// few percent.
///
/// # Panics
///
/// Panics on an empty slice: every caller times at least one repetition.
pub fn fastest_tenth(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "fastest tenth of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len().div_ceil(10) - 1]
}

/// The highest of the percentiles 99.9 / 99 / 95 / 90 that has at least ten
/// samples beyond it, with its value (nearest-rank); `None` when even the
/// 90th has fewer than ten samples above it (fewer than 100 samples).
pub fn tail_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // Per mille, so the nearest rank is exact integer arithmetic.
    [999usize, 990, 950, 900].into_iter().find_map(|p| {
        let rank = (p * n).div_ceil(1000);
        (rank >= 1 && n - rank >= 10).then(|| (p as f64 / 10.0, v[rank - 1]))
    })
}

/// Relative difference `|a - b| / max(|a|, |b|)`; 0 when both are 0.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs());
    if scale == 0.0 {
        0.0
    } else {
        (a - b).abs() / scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted_samples() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    #[should_panic(expected = "median of no samples")]
    fn median_of_nothing_panics() {
        median(&[]);
    }

    #[test]
    fn fastest_tenth_is_the_minimum_up_to_ten_samples_and_a_rank_beyond() {
        let ramp = |n: usize| (1..=n).rev().map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(fastest_tenth(&[7.0]), 7.0);
        assert_eq!(fastest_tenth(&[5.0, 1.0, 3.0]), 1.0);
        assert_eq!(fastest_tenth(&ramp(10)), 1.0);
        assert_eq!(fastest_tenth(&ramp(11)), 2.0);
        assert_eq!(fastest_tenth(&ramp(600)), 60.0);
    }

    #[test]
    #[should_panic(expected = "fastest tenth of no samples")]
    fn fastest_tenth_of_nothing_panics() {
        fastest_tenth(&[]);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail_percentile(&ramp(5)), None);
        assert_eq!(tail_percentile(&ramp(99)), None, "p90 of 99 leaves only 9 beyond");
        assert_eq!(tail_percentile(&ramp(100)), Some((90.0, 90.0)));
        assert_eq!(tail_percentile(&ramp(200)), Some((95.0, 190.0)));
        assert_eq!(tail_percentile(&ramp(1500)), Some((99.0, 1485.0)));
        assert_eq!(tail_percentile(&ramp(10_000)), Some((99.9, 9990.0)));
    }

    #[test]
    fn rel_diff_is_symmetric_and_zero_safe() {
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
        assert_eq!(rel_diff(10.0, 9.0), rel_diff(9.0, 10.0));
        assert!((rel_diff(10.0, 9.0) - 0.1).abs() < 1e-12);
    }
}
