//! Host probes: process CPU time, peak resident memory, host speed (a
//! fixed reference kernel), and the order statistics every reported
//! timing goes through.

/// Clock ticks per second behind the `utime`/`stime` fields of
/// `/proc/<pid>/stat` (`USER_HZ`, 100 on every mainstream Linux build):
/// CPU time therefore resolves to 10 ms.
pub const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds this process has consumed, all threads
/// included (exited ones too), from `/proc/self/stat`.
///
/// # Errors
///
/// The file is unreadable or malformed (not Linux).
pub fn cpu_seconds() -> Result<f64, String> {
    let text = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    parse_stat_cpu(&text)
}

/// `utime + stime` of a `/proc/<pid>/stat` line, in seconds. The command
/// name (field 2) may contain spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_cpu(text: &str) -> Result<f64, String> {
    let rest = text
        .rfind(')')
        .map(|i| &text[i + 1..])
        .ok_or("stat line has no `)`")?;
    // After the name: field 3 (state) is index 0, so utime (field 14)
    // is index 11 and stime (field 15) index 12.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("stat field {} is missing or not a number", i + 3))
    };
    Ok((tick(11)? + tick(12)?) as f64 / CLOCK_TICKS_PER_S)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
///
/// # Errors
///
/// `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let text = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    parse_vmhwm_mb(&text)
}

/// The `VmHWM:  <n> kB` line of a `/proc/<pid>/status` file, in MiB.
pub fn parse_vmhwm_mb(text: &str) -> Result<f64, String> {
    let line = text
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("status has no VmHWM line")?;
    let kb: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|n| n.parse().ok())
        .ok_or("VmHWM value is not a number")?;
    Ok(kb as f64 / 1024.0)
}

/// Iterations of the reference kernel in one chunk.
const REFERENCE_ITERS: u64 = 2_500_000;

/// Median seconds of one reference chunk, run between cells, across the
/// runs on the 2-vCPU host that set the bounds: the scale of
/// host-normalised seconds, so that they read close to raw seconds there.
pub const REFERENCE_NOMINAL_S: f64 = 0.026;

/// Runs one chunk of the reference kernel and returns its wall seconds.
///
/// The kernel is fixed work that is not repository code: random reads
/// and writes over an 8 MiB table mixed with integer arithmetic, a rough
/// stand-in for the simulator's memory and ALU demands. Only the host's
/// speed changes its time, so its time measures the contention the host
/// imposes at that moment.
pub fn reference_chunk() -> f64 {
    thread_local! {
        static TABLE: std::cell::RefCell<Vec<u64>> = std::cell::RefCell::new(vec![1; 1 << 20]);
    }
    TABLE.with(|t| {
        let mut table = t.borrow_mut();
        let n = table.len() as u64;
        let start = std::time::Instant::now();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut acc: u64 = 0;
        for i in 0..REFERENCE_ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = (x % n) as usize;
            acc = acc.wrapping_add(table[j]).rotate_left(5) ^ i;
            table[j] = acc;
            if acc & 7 == 0 {
                acc = acc.wrapping_mul(3);
            }
        }
        std::hint::black_box(acc);
        start.elapsed().as_secs_f64()
    })
}

/// Median of `values` (mean of the two middle values for an even
/// count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The percentiles a tail may be reported at, in tenths of a percent,
/// highest last.
const TAIL_PERMILLE: [usize; 5] = [750, 900, 950, 990, 999];

/// The percentile rule: the highest percentile, up to `cap`, that has
/// at least ten samples beyond it, and the sample at that percentile
/// (nearest rank). `None` when even the 75th percentile has fewer than
/// ten samples beyond it (fewer than 40 samples).
pub fn tail(values: &[f64], cap: f64) -> Option<(f64, f64)> {
    let n = values.len();
    // Nearest rank: the smallest sample with at least p% at or below it.
    let rank = |permille: usize| (permille * n).div_ceil(1000).max(1);
    let p = TAIL_PERMILLE
        .iter()
        .copied()
        .rev()
        .find(|&p| p as f64 <= cap * 10.0 && n >= rank(p) + 10)?;
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some((p as f64 / 10.0, v[rank(p) - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_counts_user_and_system_ticks_past_a_tricky_name() {
        // Field 2 holds spaces and a `)`; utime = 250, stime = 50 ticks.
        let line = "4242 (rmt perf) bench)) R 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    250 50 0 0 20 0 3 0 777 1000000 500 18446744073709551615";
        assert_eq!(parse_stat_cpu(line), Ok(3.0));
        assert!(parse_stat_cpu("12 (x) R 1 2").is_err());
        assert!(parse_stat_cpu("no parenthesis").is_err());
    }

    #[test]
    fn live_probes_read_this_process() {
        let before = cpu_seconds().unwrap();
        let mut x = 0u64;
        for i in 0..30_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_seconds().unwrap() >= before, "{x}");
        assert!(peak_rss_mb().unwrap() > 1.0);
    }

    #[test]
    fn vmhwm_is_converted_from_kib() {
        let status = "Name:\tbench\nVmPeak:\t 9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vmhwm_mb(status), Ok(2.0));
        assert!(parse_vmhwm_mb("VmRSS:\t 1 kB\n").is_err());
        assert!(parse_vmhwm_mb("VmHWM:\t lots kB\n").is_err());
    }

    #[test]
    fn reference_chunks_take_time() {
        let t = reference_chunk();
        assert!(t > 0.0 && t < 10.0, "{t}");
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_reports_the_highest_percentile_with_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: p99 leaves 10 beyond, p99.9 only 1.
        assert_eq!(tail(&v, 99.9), Some((99.0, 990.0)));
        // 200 samples: p95 leaves 10 beyond, p99 only 2.
        assert_eq!(tail(&v[..200], 99.0), Some((95.0, 190.0)));
        // 100 samples: p90 exactly 10 beyond.
        assert_eq!(tail(&v[..100], 99.0), Some((90.0, 90.0)));
        // The cap wins even when more samples would allow a higher one.
        assert_eq!(tail(&v, 95.0), Some((95.0, 950.0)));
        // 39 samples: not even p75 has ten beyond.
        assert_eq!(tail(&v[..39], 99.0), None);
        // Order of the input does not matter.
        let rev: Vec<f64> = v.iter().rev().copied().collect();
        assert_eq!(tail(&rev, 99.0), tail(&v, 99.0));
    }
}
