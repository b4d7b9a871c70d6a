//! Small numeric helpers for capacity reports.

/// Nearest-rank percentile of an *unsorted* sample set (the slice is
/// copied and sorted internally). `p` in `[0, 100]`. Returns 0.0 for an
/// empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[lc_des::nearest_rank(p.clamp(0.0, 100.0) / 100.0, v.len())]
}

/// The capacity knee of a goodput-vs-offered-load curve: the point of
/// maximum goodput (first such point on ties, so the answer is
/// deterministic). Returns `(offered, goodput)`; `(0, 0)` for an empty
/// curve.
pub fn knee(curve: &[(f64, f64)]) -> (f64, f64) {
    let mut best = (0.0, 0.0);
    for &(offered, goodput) in curve {
        if goodput > best.1 {
            best = (offered, goodput);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn knee_picks_first_max() {
        let curve = [(1.0, 10.0), (2.0, 20.0), (3.0, 20.0), (4.0, 5.0)];
        assert_eq!(knee(&curve), (2.0, 20.0));
        assert_eq!(knee(&[]), (0.0, 0.0));
    }
}
