//! Exact percentiles, result tags, and the result line.

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Exact nearest-rank `q`-quantile of ascending `sorted` (0 when empty).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// The highest quantile with at least ten of `n` samples beyond it (0
/// when there are fewer than eleven samples).
pub fn supported_quantile(n: usize) -> f64 {
    if n <= 10 {
        0.0
    } else {
        (n - 10) as f64 / n as f64
    }
}

/// Mean of `values` (0 when empty).
pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// A latency distribution summarized from exact samples: sorted copy,
/// median, p99 and the highest percentile the sample count supports.
pub fn describe(label: &str, samples: &[u64]) -> String {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let top = supported_quantile(sorted.len());
    format!(
        "{label}: n={} p50={:.2}us p99={:.2}us p{:.3}={:.2}us max={:.2}us",
        sorted.len(),
        quantile(&sorted, 0.5) as f64 / 1e3,
        quantile(&sorted, 0.99) as f64 / 1e3,
        top * 100.0,
        quantile(&sorted, top) as f64 / 1e3,
        sorted.last().copied().unwrap_or(0) as f64 / 1e3,
    )
}

/// The run's hardware and configuration, printed with every result so
/// single- and multi-core numbers cannot be confused.
pub fn tags(fields: &[(&str, String)]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let mut out = format!("{{\"nproc\": {nproc}, \"cpu\": {}", json_string(&cpu));
    for (key, value) in fields {
        out.push_str(&format!(", {}: {}", json_string(key), json_string(value)));
    }
    out.push('}');
    out
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_order_statistics() {
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile(&sorted, 0.5), 500);
        assert_eq!(quantile(&sorted, 0.99), 990);
        assert_eq!(quantile(&sorted, 1.0), 1000);
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(supported_quantile(1000), 0.99);
        assert_eq!(supported_quantile(10), 0.0);
    }

    #[test]
    fn result_lines_carry_every_metric_with_its_unit() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric::new("a", 1.5, "ms"), Metric::new("b", 2.0, "count")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
    }
}
