//! Exact order statistics over raw samples.
//!
//! Every timing quantile the benchmark reports comes from the full list of
//! samples through `netprofiler::summary::quantile` — linear interpolation
//! between closest ranks, the method the paper tables use — never from the
//! telemetry recorder's log2 histogram buckets, whose upper bounds can be
//! up to 2× the true value.

pub use netprofiler::summary::quantile;

/// The median of `samples`; panics on an empty list, which only a bug in
/// the benchmark can produce.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).expect("median of a non-empty sample list")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_list_has_no_quantile() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[1.0], f64::NAN), None);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
            assert_eq!(quantile(&[7.5], q), Some(7.5));
        }
    }

    #[test]
    fn order_of_samples_does_not_matter() {
        let a = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&a, 0.5), Some(3.0));
        assert_eq!(quantile(&a, 0.0), Some(1.0));
        assert_eq!(quantile(&a, 1.0), Some(5.0));
        assert_eq!(quantile(&a, 0.25), Some(2.0));
    }

    #[test]
    fn even_count_median_interpolates() {
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    /// The integers 1..=1000 are a discrete uniform distribution whose
    /// interpolated quantiles are known in closed form: 1 + 999·q.
    #[test]
    fn uniform_distribution_quantiles_are_exact() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        for (q, want) in [(0.5, 500.5), (0.9, 900.1), (0.99, 990.01), (0.1, 100.9)] {
            let got = quantile(&samples, q).unwrap();
            assert!((got - want).abs() < 1e-9, "q={q}: got {got}, want {want}");
        }
    }

    /// Samples spread over one log2 bucket [512, 1024): a bucket ceiling
    /// would report 1024 for every quantile, the exact quantile does not.
    #[test]
    fn quantiles_are_not_bucket_ceilings() {
        let samples: Vec<f64> = (512..1024).map(f64::from).collect();
        let p50 = quantile(&samples, 0.5).unwrap();
        assert!((p50 - 767.5).abs() < 1e-9, "p50 {p50}");
        assert_eq!(quantile(&samples, 1.0), Some(1023.0));
    }

    /// Agrees with Python's
    /// `statistics.quantiles(data, n=4, method="inclusive")`.
    #[test]
    fn quartiles_match_the_inclusive_method() {
        let data = [3.0, 6.0, 7.0, 8.0, 8.0, 10.0, 13.0, 15.0, 16.0, 20.0];
        assert_eq!(quantile(&data, 0.25), Some(7.25));
        assert_eq!(quantile(&data, 0.5), Some(9.0));
        assert_eq!(quantile(&data, 0.75), Some(14.5));
    }
}
