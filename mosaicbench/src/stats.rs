//! Order statistics for latency samples and for comparing runs.

/// Samples that must lie beyond a reported tail percentile for it to be
/// trusted (choosing-metrics: "the highest percentile that has at least
/// ten samples beyond it").
pub const MIN_BEYOND: usize = 10;

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

/// Nearest-rank percentile of an ascending slice (`p` in `0..=1`); NaN
/// for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// A tail percentile with its support.
#[derive(Debug, Clone, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
    /// Set when fewer than [`MIN_BEYOND`] samples lie beyond the rank:
    /// the window was too short for this percentile.
    pub warning: Option<String>,
}

/// The fixed percentile `p` of an ascending slice, guarded: the value is
/// always reported, with a warning when its support falls short.
pub fn tail(sorted: &[f64], p: f64) -> Tail {
    let value = percentile(sorted, p);
    let beyond = if sorted.is_empty() {
        0
    } else {
        sorted.len() - 1 - ((sorted.len() - 1) as f64 * p).round() as usize
    };
    let warning = (beyond < MIN_BEYOND).then(|| {
        format!(
            "p{} of {} samples has {beyond} beyond it (< {MIN_BEYOND})",
            p * 100.0,
            sorted.len()
        )
    });
    Tail {
        value,
        beyond,
        warning,
    }
}

/// First quartile, median, third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive
/// method), which is what the driver uses to judge spread. Needs two
/// values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 0.5), 51.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_guard_warns_when_support_falls_short() {
        let many: Vec<f64> = (0..2000).map(f64::from).collect();
        let t = tail(&many, 0.99);
        assert_eq!(t.value, 1979.0);
        assert_eq!(t.beyond, 20);
        assert!(t.warning.is_none());
        let few: Vec<f64> = (0..200).map(f64::from).collect();
        let t = tail(&few, 0.99);
        assert_eq!(t.beyond, 2);
        assert!(t.warning.as_deref().unwrap().contains("2 beyond"));
        // Exactly ten beyond passes the guard.
        let edge: Vec<f64> = (0..101).map(f64::from).collect();
        assert_eq!(tail(&edge, 0.90).beyond, 10);
        assert!(tail(&edge, 0.90).warning.is_none());
        assert!(tail(&[], 0.9).warning.is_some());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
