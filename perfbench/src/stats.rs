//! Order statistics over host-time samples.

/// Median of `xs` (mean of the two middle values for an even count).
/// Sorts `xs` in place; an empty slice has median 0.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}
