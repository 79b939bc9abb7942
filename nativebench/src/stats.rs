//! Order statistics and the delivery digest.

/// Median of `v` (mean of the middle pair for an even count); `None`
/// when empty.
pub fn median(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let h = s.len() / 2;
    Some(if s.len() % 2 == 1 { s[h] } else { (s[h - 1] + s[h]) / 2.0 })
}

/// Nearest-rank `q`-quantile of `v` (0 < q ≤ 1): the smallest value
/// with at least `ceil(q·n)` values at or below it; `None` when empty.
pub fn quantile(v: &[f64], q: f64) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    Some(s[rank - 1])
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Feed `bytes` into a running FNV-1a digest.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.1), Some(2.0));
        assert_eq!(quantile(&v, 0.9), Some(18.0));
        assert_eq!(quantile(&v, 1.0), Some(20.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
