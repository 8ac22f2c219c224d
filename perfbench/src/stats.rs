//! Order statistics and the result line.

use std::fmt::Write as _;

/// Share of slots dropped at each end before a window's slots are averaged.
pub const SLOT_TRIM: f64 = 0.2;

/// The `p`-quantile (0..=1) of `v` by the nearest-rank rule on a sorted
/// copy; 0 for an empty sample.
pub fn quantile(v: &[u64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_unstable();
    let idx = ((s.len() - 1) as f64 * p).round() as usize;
    s[idx.min(s.len() - 1)] as f64
}

/// Median of a float sample (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Mean of `v` after dropping the lowest and highest `trim` share of it:
/// robust to a few outlying values, yet smooth in how a sample splits
/// between two modes (where a median jumps).
pub fn trimmed_mean(v: &[f64], trim: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let cut = (s.len() as f64 * trim).floor() as usize;
    let kept = &s[cut..s.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Named metrics in report order.
#[derive(Default)]
pub struct Metrics {
    rows: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.rows.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.0 == name).map(|r| r.1)
    }

    /// One human-readable line per metric, for stderr.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.rows {
            let _ = writeln!(out, "  {name:<44} {value:>16.4} {unit}");
        }
        out
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}
