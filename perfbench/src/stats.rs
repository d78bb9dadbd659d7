//! Order statistics over samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples`, interpolating linearly
/// between closest ranks. `NaN` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Samples a run needs so that at least ten lie beyond percentile `p`.
pub fn samples_for_tail(p: f64) -> usize {
    (10.0 / (1.0 - p) - 1e-6).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
    }

    #[test]
    fn tail_sample_counts() {
        assert_eq!(samples_for_tail(0.75), 40);
        assert_eq!(samples_for_tail(0.9), 100);
        assert_eq!(samples_for_tail(0.99), 1000);
    }
}
