//! Order statistics over timing samples, and the hash of output views.

/// Nearest-rank percentile `pct` (0–100) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Samples strictly above the nearest-rank `pct` percentile position.
pub fn beyond(count: usize, pct: f64) -> usize {
    count - ((pct / 100.0) * count as f64).ceil() as usize
}

/// FNV-1a, for hashing deterministic report views.
pub fn fnv64(data: &[u8], mut hash: u64) -> u64 {
    for &b in data {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
