//! Pareto dominance over maximize-objectives.
//!
//! The frontier computation is deliberately the O(n²) textbook
//! definition — candidate counts are in the hundreds, and the simple
//! form is what the property tests in `tests/properties.rs` and the
//! artifact gate in `vcu_bench::gates` independently re-implement and
//! cross-check.

/// True if `a` Pareto-dominates `b`: at least as good on every
/// objective (all objectives maximize) and strictly better on at
/// least one.
///
/// # Panics
///
/// If the slices differ in length or any value is NaN — a NaN
/// objective would make dominance non-transitive and the frontier
/// order-dependent, so it is a bug upstream, not a comparison result.
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    assert_eq!(a.len(), b.len(), "objective vectors must align");
    let mut strictly_better = false;
    for (&x, &y) in a.iter().zip(b) {
        assert!(!x.is_nan() && !y.is_nan(), "NaN objective");
        if x < y {
            return false;
        }
        if x > y {
            strictly_better = true;
        }
    }
    strictly_better
}

/// For each point, whether it is on the Pareto frontier (not
/// dominated by any other point). Duplicate points do not dominate
/// each other, so equal-objective candidates are all kept — ties are
/// reported, not silently dropped.
pub fn frontier_flags<P: AsRef<[f64]>>(points: &[P]) -> Vec<bool> {
    (0..points.len())
        .map(|i| {
            !points
                .iter()
                .enumerate()
                .any(|(j, p)| j != i && dominates(p.as_ref(), points[i].as_ref()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_needs_strict_improvement() {
        assert!(dominates(&[1.0, 2.0], &[1.0, 1.0]));
        assert!(
            !dominates(&[1.0, 2.0], &[1.0, 2.0]),
            "equal never dominates"
        );
        assert!(
            !dominates(&[2.0, 0.0], &[1.0, 1.0]),
            "trade-off never dominates"
        );
        assert!(dominates(&[2.0, 2.0], &[1.0, 1.0]));
    }

    #[test]
    fn frontier_keeps_tradeoffs_and_ties() {
        let pts = vec![
            vec![1.0, 4.0], // frontier
            vec![4.0, 1.0], // frontier
            vec![1.0, 4.0], // duplicate of 0: also frontier
            vec![1.0, 1.0], // dominated by everything above
        ];
        assert_eq!(frontier_flags(&pts), vec![true, true, true, false]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_objectives_are_rejected() {
        dominates(&[f64::NAN], &[0.0]);
    }
}
