//! The Harrell–Davis quantile estimator (Harrell & Davis, Biometrika
//! 1982): a weighted mean of all order statistics, with weights from the
//! Beta((n+1)q, (n+1)(1−q)) distribution.
//!
//! A workload's queries come from a catalogue of a few dozen queries whose
//! costs differ by tens of percent from one to the next. A nearest-rank
//! percentile then lands on one of two neighbouring catalogue entries and
//! jumps between them from run to run; this estimator moves smoothly.

/// The `q`-quantile of `sorted` (ascending, non-empty), `0 < q < 1`.
pub fn harrell_davis(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let a = (n as f64 + 1.0) * q;
    let b = (n as f64 + 1.0) * (1.0 - q);
    let mut below = 0.0;
    let mut sum = 0.0;
    for (i, x) in sorted.iter().enumerate() {
        let upto = beta_cdf((i + 1) as f64 / n as f64, a, b);
        sum += (upto - below) * x;
        below = upto;
    }
    sum
}

/// The regularized incomplete beta function I_x(a, b).
fn beta_cdf(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    // The continued fraction converges fast on this side of the mean.
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(x, a, b) / a
    } else {
        1.0 - front * beta_fraction(1.0 - x, b, a) / b
    }
}

/// The continued fraction of I_x(a, b), by the modified Lentz method.
fn beta_fraction(x: f64, a: f64, b: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let guard = |v: f64| if v.abs() < TINY { TINY } else { v };
    let mut c = 1.0;
    let mut d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0));
    let mut h = d;
    for m in 1..10_000 {
        let m = m as f64;
        let even = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
        d = 1.0 / guard(1.0 + even * d);
        c = guard(1.0 + even / c);
        h *= d * c;
        let odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
        d = 1.0 / guard(1.0 + odd * d);
        c = guard(1.0 + odd / c);
        let step = d * c;
        h *= step;
        if (step - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// ln Γ(x) for x > 0 (Lanczos, g = 7, nine terms).
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let t = x + 7.5;
    let series = G[0]
        + G[1..]
            .iter()
            .enumerate()
            .map(|(i, g)| g / (x + i as f64 + 1.0))
            .sum::<f64>();
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        let mut fact = 1.0_f64;
        for n in 1..30 {
            fact *= n as f64;
            assert!((ln_gamma(n as f64 + 1.0) - fact.ln()).abs() < 1e-10, "{n}");
        }
    }

    #[test]
    fn beta_cdf_matches_closed_forms() {
        // I_x(1, b) = 1 − (1 − x)^b and I_x(a, 1) = x^a.
        for x in [0.01, 0.2, 0.5, 0.77, 0.99] {
            assert!((beta_cdf(x, 1.0, 3.5) - (1.0 - (1.0 - x).powf(3.5))).abs() < 1e-12);
            assert!((beta_cdf(x, 4.25, 1.0) - x.powf(4.25)).abs() < 1e-12);
        }
        // Symmetry: I_x(a, b) = 1 − I_{1−x}(b, a), with large parameters.
        let (a, b) = (450.5, 451.5);
        for x in [0.45, 0.499, 0.5, 0.52] {
            assert!((beta_cdf(x, a, b) + beta_cdf(1.0 - x, b, a) - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn harrell_davis_is_a_smooth_quantile() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        // Symmetric samples: the median is the middle value.
        assert!((harrell_davis(&v, 0.5) - 51.0).abs() < 1e-9);
        let p90 = harrell_davis(&v, 0.9);
        assert!((p90 - 91.0).abs() < 0.5, "{p90}");
        // A constant sample set has that constant as every quantile.
        assert!((harrell_davis(&[3.0; 40], 0.9) - 3.0).abs() < 1e-12);
        // Two clusters of equal size: the median lies between them, not
        // on either cluster's edge.
        let mut two: Vec<f64> = (0..50).map(|i| 20.0 + 0.01 * f64::from(i)).collect();
        two.extend((0..50).map(|i| 28.0 + 0.01 * f64::from(i)));
        let m = harrell_davis(&two, 0.5);
        assert!(m > 21.0 && m < 27.0, "{m}");
    }
}
