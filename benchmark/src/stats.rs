//! The benchmark's arithmetic: percentiles and worsening.
//!
//! Pure functions over plain numbers, unit-tested in
//! `tests/arithmetic.rs`.

/// The `p`-th percentile (`0.0..=1.0`) of `values` by linear
/// interpolation between closest ranks — the same rule as numpy's
/// default. `values` need not be sorted.
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The arithmetic mean of `values` (0 for no samples).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// How many samples lie strictly beyond the `p`-th percentile.
pub fn samples_beyond(values: &[f64], p: f64) -> usize {
    let cut = percentile(values, p);
    values.iter().filter(|&&v| v > cut).count()
}

/// How much worse `now` is than `base` as a share of `base`, for a
/// metric where lower is better (`higher_is_better == false`) or
/// higher is better. Negative means `now` is better.
pub fn worsening(base: f64, now: f64, higher_is_better: bool) -> f64 {
    if base == 0.0 {
        return if now == 0.0 { 0.0 } else { f64::INFINITY };
    }
    if higher_is_better {
        (base - now) / base
    } else {
        (now - base) / base
    }
}
