//! Order statistics.

/// Nearest-rank percentile (`p` in 0..=100) of `samples`; 0 when empty.
/// Sorts in place.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of `samples` (nearest rank); 0 when empty.
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Samples strictly beyond the nearest-rank p99 (the tail the p99 rests
/// on).
pub fn beyond_p99(n: usize) -> usize {
    n - ((0.99 * n as f64).ceil() as usize).min(n)
}

/// Percentile `p` of every window of `window` consecutive samples (a
/// short last window joins the one before it), median over the windows.
/// With fewer than two full windows, the percentile of all samples.
///
/// A burst of noise on a shared machine moves the tail of the window it
/// falls in; the median over windows keeps it from moving the result.
pub fn windowed(samples: &[f64], window: usize, p: f64) -> f64 {
    let windows = samples.len() / window.max(1);
    if windows < 2 {
        return percentile(&mut samples.to_vec(), p);
    }
    let mut per_window: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                samples.len()
            } else {
                (w + 1) * window
            };
            percentile(&mut samples[w * window..end].to_vec(), p)
        })
        .collect();
    median(&mut per_window)
}
