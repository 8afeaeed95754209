//! Deterministic noise: telemetry must be reproducible from a seed so that
//! nine months of fleet data can be regenerated on demand instead of stored.

// One splitmix64 call per sample keeps window queries cheap.
use obs::hash::splitmix64;

/// Hash a sample coordinate to a 64-bit state.
pub fn coord_hash(seed: u64, dataset: usize, component: u32, step: u64) -> u64 {
    let mut h = seed ^ 0xD6E8_FEB8_6659_FD93;
    h = splitmix64(h ^ (dataset as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    h = splitmix64(h ^ (component as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
    splitmix64(h ^ step)
}

/// Uniform `[0, 1)` from a hash state.
pub fn uniform(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Approximately standard-normal noise from a hash state (Irwin–Hall with
/// four uniforms — plenty for telemetry jitter, and much cheaper than
/// Box–Muller).
pub fn std_normal(h: u64) -> f64 {
    let u1 = uniform(h);
    let u2 = uniform(splitmix64(h ^ 0x1));
    let u3 = uniform(splitmix64(h ^ 0x2));
    let u4 = uniform(splitmix64(h ^ 0x3));
    // Sum of 4 U(0,1) has mean 2, variance 4/12; scale to unit variance.
    (u1 + u2 + u3 + u4 - 2.0) / (4.0f64 / 12.0).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(coord_hash(1, 2, 3, 4), coord_hash(1, 2, 3, 4));
        assert_ne!(coord_hash(1, 2, 3, 4), coord_hash(1, 2, 3, 5));
        assert_ne!(coord_hash(1, 2, 3, 4), coord_hash(2, 2, 3, 4));
    }

    #[test]
    fn uniform_in_range_and_spread() {
        let mut lo = false;
        let mut hi = false;
        for i in 0..1000 {
            let u = uniform(splitmix64(i));
            assert!((0.0..1.0).contains(&u));
            lo |= u < 0.25;
            hi |= u > 0.75;
        }
        assert!(lo && hi, "uniforms must cover the range");
    }

    #[test]
    fn normal_has_roughly_unit_moments() {
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|i| std_normal(splitmix64(i))).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
