//! Weighted statistics used by Mosaic's weighted-aggregate rewrite
//! (`COUNT(*)` → `SUM(weight)`, `AVG(x)` → `SUM(w·x)/SUM(w)`; paper §5.3)
//! and by the experiment harnesses.

/// Sum of weights (the weighted `COUNT(*)`).
pub fn weighted_count(weights: &[f64]) -> f64 {
    weights.iter().sum()
}

/// Weighted mean `Σ wx / Σ w` over non-NULL entries; `None` if no mass.
pub fn weighted_mean(values: &[Option<f64>], weights: &[f64]) -> Option<f64> {
    debug_assert_eq!(values.len(), weights.len());
    let mut num = 0.0;
    let mut den = 0.0;
    for (v, w) in values.iter().zip(weights) {
        if let Some(x) = v {
            num += x * w;
            den += w;
        }
    }
    (den > 0.0).then(|| num / den)
}

/// Weighted population variance over non-NULL entries; `None` if no mass.
pub fn weighted_variance(values: &[Option<f64>], weights: &[f64]) -> Option<f64> {
    let mean = weighted_mean(values, weights)?;
    let mut num = 0.0;
    let mut den = 0.0;
    for (v, w) in values.iter().zip(weights) {
        if let Some(x) = v {
            num += w * (x - mean).powi(2);
            den += w;
        }
    }
    (den > 0.0).then(|| num / den)
}

/// Weighted quantile (inverse CDF convention, `q` in `[0,1]`) over non-NULL
/// entries; `None` if no mass.
pub fn weighted_quantile(values: &[Option<f64>], weights: &[f64], q: f64) -> Option<f64> {
    let mut pairs: Vec<(f64, f64)> = values
        .iter()
        .zip(weights)
        .filter_map(|(v, w)| v.map(|x| (x, *w)))
        .filter(|&(_, w)| w > 0.0)
        .collect();
    if pairs.is_empty() {
        return None;
    }
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: f64 = pairs.iter().map(|p| p.1).sum();
    let target = q.clamp(0.0, 1.0) * total;
    let mut acc = 0.0;
    for (v, w) in &pairs {
        acc += w;
        if acc >= target - 1e-12 {
            return Some(*v);
        }
    }
    Some(pairs.last().expect("non-empty").0)
}

/// Kish effective sample size `(Σw)² / Σw²` — a standard diagnostic for how
/// much reweighting has concentrated the sample.
pub fn effective_sample_size(weights: &[f64]) -> f64 {
    let s: f64 = weights.iter().sum();
    let s2: f64 = weights.iter().map(|w| w * w).sum();
    if s2 == 0.0 {
        0.0
    } else {
        s * s / s2
    }
}

/// Scale weights in place so they sum to `target_total`.
pub fn normalize_weights(weights: &mut [f64], target_total: f64) {
    let s: f64 = weights.iter().sum();
    if s > 0.0 {
        let f = target_total / s;
        for w in weights.iter_mut() {
            *w *= f;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_is_weight_sum() {
        assert_eq!(weighted_count(&[1.0, 2.0, 0.5]), 3.5);
    }

    #[test]
    fn mean_ignores_nulls_with_their_weights() {
        let v = [Some(10.0), None, Some(20.0)];
        let w = [1.0, 100.0, 3.0];
        assert_eq!(weighted_mean(&v, &w), Some(70.0 / 4.0));
    }

    #[test]
    fn mean_of_empty_is_none() {
        assert_eq!(weighted_mean(&[None], &[1.0]), None);
        assert_eq!(weighted_mean(&[], &[]), None);
    }

    #[test]
    fn variance_of_constant_is_zero() {
        let v = [Some(5.0), Some(5.0)];
        let w = [2.0, 3.0];
        assert_eq!(weighted_variance(&v, &w), Some(0.0));
    }

    #[test]
    fn quantile_respects_weights() {
        let v = [Some(1.0), Some(2.0), Some(3.0)];
        let w = [8.0, 1.0, 1.0];
        assert_eq!(weighted_quantile(&v, &w, 0.5), Some(1.0));
        assert_eq!(weighted_quantile(&v, &w, 0.95), Some(3.0));
    }

    #[test]
    fn ess_bounds() {
        assert_eq!(effective_sample_size(&[1.0; 10]), 10.0);
        let concentrated = effective_sample_size(&[100.0, 0.001, 0.001]);
        assert!(concentrated < 1.1);
    }

    #[test]
    fn normalize_hits_target() {
        let mut w = vec![1.0, 3.0];
        normalize_weights(&mut w, 100.0);
        assert!((w.iter().sum::<f64>() - 100.0).abs() < 1e-9);
        assert!((w[1] - 75.0).abs() < 1e-9);
    }
}
