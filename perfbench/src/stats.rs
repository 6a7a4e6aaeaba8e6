//! Small statistics helpers: medians, nearest-rank percentiles and the
//! process's peak resident memory.

/// Median of `values` (mean of the two middle values for an even count);
/// 0.0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `pct` (0..=100) of `values`; 0.0 when empty.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank percentile `pct` of `n` samples.
pub fn beyond(n: usize, pct: f64) -> usize {
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n.max(1)).min(n)
}

/// `num / den`, or 0.0 when `den` is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MiB (`VmHWM` from
/// `/proc/self/status`); 0.0 where the platform does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Iterations of the calibration kernel (about 5 ms on the reference
/// host).
const CALIBRATION_ITERATIONS: u32 = 600_000;

/// Median time of the calibration kernel on the reference host, in ms.
pub const CALIBRATION_REF_MS: f64 = 5.0;

/// Times one run of a fixed CPU kernel that shares no code with the
/// program under test: xorshift hashing, data-dependent branches and
/// dependent loads over a 64 KiB table, like the allocator's inner loops.
/// Interleaved with the jobs, its median tracks how fast the host is
/// running during the measurement.
pub fn calibration_sample_ms() -> f64 {
    let t = std::time::Instant::now();
    let mut table = vec![0u32; 1 << 14];
    let mask = table.len() - 1;
    let mut x: u32 = 0x9e37_79b9;
    let mut index = 0usize;
    for i in 0..CALIBRATION_ITERATIONS {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        index = (table[index] ^ x) as usize & mask;
        if x & 1 == 0 {
            table[index] = table[index].wrapping_add(i);
        } else {
            table[index] ^= x;
        }
    }
    std::hint::black_box(&table);
    t.elapsed().as_secs_f64() * 1e3
}

/// SplitMix64: derives independent, reproducible sub-seeds from the
/// workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(median(&values), 10.5);
        assert_eq!(percentile(&values, 50.0), 10.0);
        assert_eq!(percentile(&values, 90.0), 18.0);
        assert_eq!(beyond(20, 90.0), 2);
        assert_eq!(beyond(20, 50.0), 10);
    }
}
