//! Process memory, the noise canary, and order statistics.

use std::hint::black_box;
use std::time::Instant;

/// A `/proc/self/status` field in MiB (`VmHWM` = peak RSS, `VmRSS` = now).
pub fn proc_status_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no {field} in /proc/self/status"))
}

/// Iterations of the canary's dependent xorshift chain (about 0.1 s).
const SPIN_ITERS: u64 = 40_000_000;

/// Milliseconds for a fixed scalar spin loop. It touches no memory, so it
/// moves only when the core itself is shared or throttled: timed at the
/// start and end of a run, it separates a disturbed host from a program
/// change.
pub fn spin_ms() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..SPIN_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Median of `xs` (mean of the middle two for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        len if len % 2 == 1 => v[len / 2],
        len => (v[len / 2 - 1] + v[len / 2]) / 2.0,
    }
}

/// Smallest of `xs`; infinite when empty.
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
    }

    #[test]
    fn process_memory_is_readable() {
        let peak = proc_status_mb("VmHWM").unwrap();
        let now = proc_status_mb("VmRSS").unwrap();
        assert!(peak > 0.0 && now > 0.0 && now <= peak + 1.0);
        assert!(proc_status_mb("NoSuchField").is_err());
    }
}
