//! Summary statistics and the result document. The tree has no serde, so
//! JSON is written by hand.

use std::fmt::Write;

/// The median of `v` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The `q`-quantile of `v` by linear interpolation; 0 when empty.
fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// One reported metric: its value, unit and sample count, and for a
/// median the quartiles of its samples.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    pub quartiles: Option<(f64, f64)>,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric { name: name.into(), value, unit, samples, quartiles: None }
    }

    /// The median of `samples`, as a metric.
    pub fn median_of(name: impl Into<String>, samples: &[f64], unit: &'static str) -> Self {
        Metric {
            quartiles: Some((quantile(samples, 0.25), quantile(samples, 0.75))),
            ..Metric::new(name, median(samples), unit, samples.len())
        }
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}` with
/// each metric as `{"value", "unit"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(&m.name),
                number(m.value),
                escape(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The provenance line printed before the result: where the numbers came
/// from, and every metric's unit and sample count.
pub fn provenance_line(fields: &[(&str, String)], metrics: &[Metric], notes: &[String]) -> String {
    let mut out = String::from("{\"provenance\": {");
    for (i, (k, v)) in fields.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{}\": {v}", escape(k));
    }
    out.push_str("}, \"samples\": {");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"n\": {}, \"unit\": \"{}\"",
            escape(&m.name),
            m.samples,
            escape(m.unit)
        );
        if let Some((p25, p75)) = m.quartiles {
            let _ = write!(out, ", \"p25\": {}, \"p75\": {}", number(p25), number(p75));
        }
        out.push('}');
    }
    out.push_str("}, \"notes\": [");
    let notes: Vec<String> = notes.iter().map(|n| format!("\"{}\"", escape(n))).collect();
    out.push_str(&notes.join(", "));
    out.push_str("]}");
    out
}

/// A JSON string value.
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_interpolate() {
        let m = Metric::median_of("x", &[1.0, 2.0, 3.0, 4.0, 5.0], "ms");
        assert_eq!((m.value, m.quartiles), (3.0, Some((2.0, 4.0))));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 3, 0, &[Metric::new("q1_ms", 1.25, "ms", 3)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"q1_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
