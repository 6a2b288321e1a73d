//! Statistics, the pass/fail tally, and the result line.

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured (no rounding).
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Operations and checks attempted, and the ones that failed: an error,
/// a refusal, or a wrong answer.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Of those, the ones that failed.
    pub failed: u64,
    /// The first few failure descriptions, for stderr.
    pub problems: Vec<String>,
}

impl Tally {
    /// Records one attempt that passed when `ok` holds and failed
    /// otherwise, with `what` describing the failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(what());
            }
        }
    }

    /// Records one failed attempt.
    pub fn fail(&mut self, what: impl Into<String>) {
        let what = what.into();
        self.check(false, || what);
    }

    /// Folds another tally (a client thread's) into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for p in other.problems {
            if self.problems.len() < 20 {
                self.problems.push(p);
            }
        }
    }

    /// `failed ÷ attempted`.
    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between the
/// closest ranks (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The tail quantile a run of `n` samples can support: the 99th
/// percentile when at least ten samples lie beyond it, otherwise the
/// highest quantile that keeps ten samples beyond it, and never below
/// the median.
pub fn tail_quantile(n: usize) -> f64 {
    (1.0 - 10.0 / n.max(1) as f64).clamp(0.5, 0.99)
}

/// Peak resident memory of this process in MB (`VmHWM`), or 0 when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `trace.coverage`: the named layers' summed self times over the
/// untraced `solve_s`, checked to be at least 0.9.
pub fn coverage(metrics: &[Metric], names: &[&str], solve_s: f64, tally: &mut Tally) -> Metric {
    let named: f64 = metrics.iter().filter(|m| names.contains(&m.name)).map(|m| m.value).sum();
    let share = named / solve_s.max(1e-12);
    tally.check(share >= 0.9, || format!("named self times cover only {share:.3} of solve_s"));
    metric("trace.coverage", share, "fraction")
}

/// Renders one finite number as JSON (non-finite values become 0).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_tail_keeps_ten_beyond() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(tail_quantile(12), 0.5);
        assert!((tail_quantile(100) - 0.9).abs() < 1e-12);
        assert_eq!(tail_quantile(5000), 0.99);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut t = Tally::default();
        t.check(true, String::new);
        let line = result_line(&t, &[metric("solve_s", 1.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"solve_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
