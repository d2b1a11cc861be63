//! Order statistics and `/metrics` exposition readers.

use privim_serve::metrics::parse_counter;

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `p`% of the samples at or below it (rank `⌈p·n/100⌉`).
///
/// Nearest-rank never interpolates, so the reported p99 is a latency some
/// request actually saw.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile. A tail
/// percentile is only reported when this is at least [`MIN_BEYOND`]: with
/// fewer, one stray sample moves it.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.min(n)
}

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of unsorted values (lower median for even counts, consistent
/// with [`percentile`] at 50).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Sum and count of one endpoint's server-side latency from a `/metrics`
/// exposition: `(privim_latency_us_sum, privim_requests_total)`.
pub fn endpoint_sum_count(exposition: &str, endpoint: &str) -> Option<(u64, u64)> {
    let sum = parse_counter(
        exposition,
        &format!("privim_latency_us_sum{{endpoint=\"{endpoint}\"}}"),
    )?;
    let count = parse_counter(
        exposition,
        &format!("privim_requests_total{{endpoint=\"{endpoint}\"}}"),
    )?;
    Some((sum, count))
}

/// A counter's growth between two scrapes (0 when absent from either).
pub fn counter_delta(before: &str, after: &str, name: &str) -> u64 {
    let a = parse_counter(after, name).unwrap_or(0);
    a.saturating_sub(parse_counter(before, name).unwrap_or(0))
}

/// Mean server-side latency (µs) of `endpoint` over the requests that
/// completed between two scrapes.
pub fn endpoint_mean_us(before: &str, after: &str, endpoint: &str) -> Option<f64> {
    let (s0, c0) = endpoint_sum_count(before, endpoint)?;
    let (s1, c1) = endpoint_sum_count(after, endpoint)?;
    let n = c1.checked_sub(c0)?;
    (n > 0).then(|| s1.saturating_sub(s0) as f64 / n as f64)
}

/// Mean pipelined depth between two scrapes, from the cumulative
/// `privim_pipeline_depth_bucket{le=…}` histogram, counting each
/// observation at its bucket's upper bound (the `+Inf` bucket at twice
/// the last finite bound). An upper estimate; exact for depth-1 traffic.
pub fn pipeline_depth_mean(before: &str, after: &str) -> f64 {
    const BOUNDS: [(&str, f64); 7] = [
        ("1", 1.0),
        ("2", 2.0),
        ("4", 4.0),
        ("8", 8.0),
        ("16", 16.0),
        ("32", 32.0),
        ("+Inf", 64.0),
    ];
    let mut prev_cum = 0u64;
    let (mut total, mut weighted) = (0u64, 0.0);
    for (le, ub) in BOUNDS {
        let cum = counter_delta(
            before,
            after,
            &format!("privim_pipeline_depth_bucket{{le=\"{le}\"}}"),
        );
        let in_bucket = cum.saturating_sub(prev_cum);
        prev_cum = cum;
        total += in_bucket;
        weighted += in_bucket as f64 * ub;
    }
    if total == 0 {
        0.0
    } else {
        weighted / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_index_rule() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples leave exactly 10 beyond p99; 999 leave only 9.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert!(samples_beyond(1000, 99.0) >= MIN_BEYOND);
        assert!(samples_beyond(999, 99.0) < MIN_BEYOND);
        assert_eq!(samples_beyond(2000, 50.0), 1000);
        assert_eq!(samples_beyond(0, 99.0), 0);
    }

    #[test]
    fn median_is_order_free() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    const BEFORE: &str = "\
privim_requests_total{endpoint=\"influence\"} 10
privim_requests_total{endpoint=\"embed\"} 4
privim_latency_us_sum{endpoint=\"influence\"} 1000
privim_latency_us_sum{endpoint=\"embed\"} 400
privim_pipeline_depth_bucket{le=\"1\"} 5
privim_pipeline_depth_bucket{le=\"2\"} 5
privim_pipeline_depth_bucket{le=\"4\"} 5
privim_pipeline_depth_bucket{le=\"8\"} 5
privim_pipeline_depth_bucket{le=\"16\"} 5
privim_pipeline_depth_bucket{le=\"32\"} 5
privim_pipeline_depth_bucket{le=\"+Inf\"} 5
";

    const AFTER: &str = "\
privim_requests_total{endpoint=\"influence\"} 30
privim_requests_total{endpoint=\"embed\"} 4
privim_latency_us_sum{endpoint=\"influence\"} 5000
privim_latency_us_sum{endpoint=\"embed\"} 400
privim_pipeline_depth_bucket{le=\"1\"} 8
privim_pipeline_depth_bucket{le=\"2\"} 9
privim_pipeline_depth_bucket{le=\"4\"} 9
privim_pipeline_depth_bucket{le=\"8\"} 9
privim_pipeline_depth_bucket{le=\"16\"} 9
privim_pipeline_depth_bucket{le=\"32\"} 9
privim_pipeline_depth_bucket{le=\"+Inf\"} 9
";

    #[test]
    fn exposition_sum_and_count() {
        assert_eq!(endpoint_sum_count(AFTER, "influence"), Some((5000, 30)));
        assert_eq!(endpoint_sum_count(AFTER, "seeds"), None);
        // (5000 - 1000) µs over (30 - 10) requests.
        assert_eq!(endpoint_mean_us(BEFORE, AFTER, "influence"), Some(200.0));
        // No embed completed in the window: no mean, not a division by 0.
        assert_eq!(endpoint_mean_us(BEFORE, AFTER, "embed"), None);
        // A prefix of another series name must not match.
        assert_eq!(
            counter_delta(
                BEFORE,
                AFTER,
                "privim_requests_total{endpoint=\"influence\"}"
            ),
            20
        );
    }

    #[test]
    fn pipeline_depth_from_histogram_delta() {
        // 3 new observations at depth 1, 1 at depth 2: (3·1 + 1·2) / 4.
        assert_eq!(pipeline_depth_mean(BEFORE, AFTER), 1.25);
        assert_eq!(pipeline_depth_mean(AFTER, AFTER), 0.0);
    }
}
