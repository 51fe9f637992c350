//! Sample statistics and the FNV-1a digest used for input and
//! transcript fingerprints.

/// A metric as reported: its value, and (when it summarises a sample)
/// the sample's quartiles and size.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// `(q1, median, q3, n)` of the underlying sample, if there is one.
    pub spread: Option<(f64, f64, f64, usize)>,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            spread: None,
        }
    }

    /// A metric whose value is computed from `sample`, which is also
    /// summarised by its quartiles.
    pub fn over(name: impl Into<String>, unit: &'static str, value: f64, sample: &[f64]) -> Metric {
        let mut sorted = sample.to_vec();
        sorted.sort_by(f64::total_cmp);
        let spread = (!sorted.is_empty()).then(|| {
            (
                quantile(&sorted, 0.25),
                quantile(&sorted, 0.5),
                quantile(&sorted, 0.75),
                sorted.len(),
            )
        });
        Metric {
            name: name.into(),
            unit,
            value,
            spread,
        }
    }

    /// The median of `sample`, with its quartiles.
    pub fn median(name: impl Into<String>, unit: &'static str, sample: &[f64]) -> Metric {
        let mut m = Metric::over(name, unit, 0.0, sample);
        m.value = m.spread.map_or(0.0, |(_, med, _, _)| med);
        m
    }
}

/// Linear-interpolated quantile of an ascending sample (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Nearest-rank percentile of an ascending sample (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Sorts a sample in place and returns it (for the percentile helpers).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a round over `bytes`, continuing from `h`.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A well-mixed 64-bit value from `(seed, index)`: the benchmark's only
/// source of per-input seeds.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
