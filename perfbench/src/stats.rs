//! Order statistics over measured samples.

/// The `p`-quantile (`0 ≤ p ≤ 1`) of `values`, interpolating linearly
/// between closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The median of `groups` group means, sample `i` going to group
/// `i % groups`. Like a median, one stray sample moves it little; unlike
/// a median, each group spans the whole series, so on a box that
/// alternates between a faster and a slower state it weighs each state
/// by its share of the samples instead of jumping to whichever state
/// holds the majority. With at most `groups` samples it is the median.
pub fn median_of_means(values: &[f64], groups: usize) -> f64 {
    let means: Vec<f64> = (0..groups.min(values.len()))
        .map(|g| {
            let group: Vec<f64> = values.iter().skip(g).step_by(groups).copied().collect();
            group.iter().sum::<f64>() / group.len() as f64
        })
        .collect();
    median(&means)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn median_of_means_weighs_both_states_and_resists_outliers() {
        // Six fast then five slow samples: the median is a fast one,
        // every group mean lies between the states.
        let mut v = vec![10.0; 6];
        v.extend([16.0; 5]);
        assert_eq!(median(&v), 10.0);
        let m = median_of_means(&v, 5);
        assert!(m > 10.0 && m < 16.0, "{m}");
        // One huge outlier moves one group only.
        let mut w = vec![10.0; 20];
        w[7] = 1000.0;
        assert_eq!(median_of_means(&w, 5), 10.0);
        // Few samples: the plain median.
        assert_eq!(median_of_means(&[3.0, 1.0, 2.0], 5), 2.0);
        assert_eq!(median_of_means(&[], 5), 0.0);
    }
}
