//! Order statistics, process counters read from procfs, and the result
//! record every workload fills in.

use std::io::Read;

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank quantile `q` in (0, 1] of `xs`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// FNV-1a over the bit patterns of `xs`: the digest of one reply's logits.
pub fn digest(xs: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Read a small procfs file into a stack buffer (no heap allocation, so
/// reading it does not disturb the allocation counts around it).
fn read_proc(path: &str, buf: &mut [u8]) -> usize {
    let Ok(mut f) = std::fs::File::open(path) else {
        return 0;
    };
    let mut len = 0;
    while len < buf.len() {
        match f.read(&mut buf[len..]) {
            Ok(0) | Err(_) => break,
            Ok(k) => len += k,
        }
    }
    len
}

/// Minor page faults of this process so far (`/proc/self/stat`, field 10).
pub fn minor_faults() -> u64 {
    let mut buf = [0u8; 1024];
    let len = read_proc("/proc/self/stat", &mut buf);
    let text = std::str::from_utf8(&buf[..len]).unwrap_or("");
    // The command name (field 2) may contain spaces; fields after it are
    // counted from the closing parenthesis. minflt is field 10 overall,
    // the 8th after the name.
    text.rfind(')')
        .and_then(|i| text[i + 1..].split_whitespace().nth(7))
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

/// Host steal so far: clock ticks, summed over all CPUs, in which the
/// hypervisor ran something else while this guest had work (`steal` in
/// the `cpu` line of `/proc/stat`).
pub fn steal_ticks() -> u64 {
    let mut buf = [0u8; 256];
    let len = read_proc("/proc/stat", &mut buf);
    let text = std::str::from_utf8(&buf[..len]).unwrap_or("");
    text.split_whitespace()
        .nth(8)
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

/// Indices, in time order, of the calmer half of a run's sub-windows:
/// the ⌈n/2⌉ with the least host steal (ties keep the earlier window).
pub fn calm_half(steal: &[u64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..steal.len()).collect();
    idx.sort_by_key(|&i| (steal[i], i));
    idx.truncate(steal.len().div_ceil(2));
    idx.sort_unstable();
    idx
}

/// Peak resident set size in MB (`VmHWM` in `/proc/self/status`).
pub fn peak_rss_mb() -> f64 {
    let mut buf = [0u8; 4096];
    let len = read_proc("/proc/self/status", &mut buf);
    let text = std::str::from_utf8(&buf[..len]).unwrap_or("");
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One run's result: metrics by name and unit, plus the tally of checked
/// operations.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Operations attempted (training steps, requests).
    pub attempted: u64,
    /// Operations whose output failed its check.
    pub failed: u64,
    /// Checks other than per-operation ones that failed.
    pub broken: Vec<String>,
}

impl Report {
    /// Record a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Record a failed whole-run check.
    pub fn broken(&mut self, what: impl Into<String>) {
        let what = what.into();
        println!("# CHECK FAILED: {what}");
        self.broken.push(what);
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let mut out = String::new();
        let mut correct = self.failed == 0 && self.broken.is_empty() && self.attempted > 0;
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if !value.is_finite() {
                correct = false;
            }
            let v = if value.is_finite() { *value } else { -1.0 };
            let sep = if i == 0 { "" } else { ", " };
            out.push_str(&format!(
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{out}}}}}",
            self.attempted.max(1),
            self.failed
        )
    }
}
