//! Small statistics, process and box-calibration helpers.

use std::hint::black_box;
use std::time::Instant;

/// The median of `values` (the mean of the middle pair for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The nearest-rank `pct`-th percentile of `values`; 0 for an empty slice.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The peak resident set of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Derives an independent 64-bit stream seed from the workload seed, so
/// each input family draws from its own stream.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    marketsim::market::SplitMix64::new(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// A repository-independent integer-hash loop; returns its wall time in ms.
/// It moves only with the CPU the process gets, never with the program.
pub fn compute_calibration_ms() -> f64 {
    let start = Instant::now();
    let mut rng = marketsim::market::SplitMix64::new(0xCA11_B7A7);
    let mut acc = 0u64;
    for _ in 0..30_000_000u32 {
        acc ^= rng.next_u64().rotate_left(7);
    }
    black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// A strided pass over a 64 MiB buffer (one read-modify-write per cache
/// line, four passes); returns its wall time in ms. It moves with the
/// box's memory bandwidth. The buffer is allocated and touched before
/// timing starts.
pub fn memory_calibration_ms() -> f64 {
    const WORDS: usize = 8 << 20;
    const STRIDE: usize = 8;
    let mut buffer = vec![1u64; WORDS];
    let start = Instant::now();
    for pass in 0..4u64 {
        for offset in 0..STRIDE {
            let mut index = offset;
            while index < WORDS {
                buffer[index] = buffer[index].wrapping_mul(3).wrapping_add(pass);
                index += STRIDE * 64;
            }
        }
        for word in buffer.iter_mut().step_by(STRIDE) {
            *word = word.wrapping_add(pass);
        }
    }
    black_box(&buffer);
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 99.0), 99.0);
        assert_eq!(percentile(&values, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn derived_seeds_differ_per_stream_and_seed() {
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
        assert_eq!(derive_seed(5, 3), derive_seed(5, 3));
    }
}
