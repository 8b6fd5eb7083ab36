//! Parser for the Prometheus text exposition format — the read side of
//! [`Registry::render`](crate::Registry::render), used by
//! `stkde-serve top` to turn a `/metrics` scrape back into numbers.

/// One sample line: `name{labels} value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (for histograms, includes the `_bucket`/`_sum`/
    /// `_count` suffix).
    pub name: String,
    /// Label pairs in source order, unescaped.
    pub labels: Vec<(String, String)>,
    /// Sample value. `+Inf`/`-Inf`/`NaN` parse to the matching floats.
    pub value: f64,
}

impl Sample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Parse an exposition-format payload. Comment (`#`) and blank lines
/// are skipped; malformed lines are dropped rather than failing the
/// whole scrape (a monitoring client should degrade, not die).
pub fn parse_text(text: &str) -> Vec<Sample> {
    text.lines().filter_map(parse_line).collect()
}

fn parse_line(line: &str) -> Option<Sample> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    let (name, rest) = split_name(line)?;
    let (labels, rest) = if let Some(r) = rest.strip_prefix('{') {
        parse_labels(r)?
    } else {
        (Vec::new(), rest)
    };
    let value = parse_value(rest.trim())?;
    Some(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

fn split_name(line: &str) -> Option<(&str, &str)> {
    let end = line.find(|c: char| c == '{' || c.is_whitespace())?;
    if end == 0 {
        return None;
    }
    Some((&line[..end], &line[end..]))
}

/// Parse `key="value",...}` (the opening brace already consumed),
/// returning the pairs and the remainder after the closing brace.
fn parse_labels(mut rest: &str) -> Option<(Vec<(String, String)>, &str)> {
    let mut labels = Vec::new();
    loop {
        rest = rest.trim_start_matches([',', ' ']);
        if let Some(after) = rest.strip_prefix('}') {
            return Some((labels, after));
        }
        let eq = rest.find('=')?;
        let key = rest[..eq].trim().to_string();
        rest = rest[eq + 1..].strip_prefix('"')?;
        let (value, after) = take_quoted(rest)?;
        labels.push((key, value));
        rest = after;
    }
}

/// Consume an escaped label value up to its closing quote.
fn take_quoted(s: &str) -> Option<(String, &str)> {
    let mut out = String::new();
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((out, &s[i + 1..])),
            '\\' => match chars.next()?.1 {
                'n' => out.push('\n'),
                '\\' => out.push('\\'),
                '"' => out.push('"'),
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

fn parse_value(s: &str) -> Option<f64> {
    // A timestamp may follow the value; take the first token.
    let tok = s.split_whitespace().next()?;
    match tok {
        "+Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        t => t.parse().ok(),
    }
}

/// Parse the `le` label of a histogram bucket (`"+Inf"` included).
pub fn parse_le(s: &str) -> Option<f64> {
    parse_value(s)
}

/// Estimate a quantile from cumulative `(le, count)` histogram buckets
/// (as scraped from `name_bucket` samples), by the same linear
/// interpolation the live [`Histogram`](crate::Histogram) uses.
/// Buckets need not be sorted; `None` if empty or the total count is 0.
pub fn quantile_from_buckets(buckets: &[(f64, u64)], q: f64) -> Option<f64> {
    let mut sorted: Vec<(f64, u64)> = buckets.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = sorted.last()?.1;
    if total == 0 {
        return None;
    }
    let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
    let mut prev_le = 0.0;
    let mut prev_cum = 0u64;
    for &(le, cum) in &sorted {
        if cum >= target {
            if !le.is_finite() {
                return Some(prev_le);
            }
            let in_bucket = cum - prev_cum;
            if in_bucket == 0 {
                return Some(le);
            }
            let frac = (target - prev_cum) as f64 / in_bucket as f64;
            return Some(prev_le + (le - prev_le) * frac);
        }
        prev_le = le;
        prev_cum = cum;
    }
    Some(prev_le)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_plain_labeled_and_special_values() {
        let text = "\
# HELP m help text
# TYPE m counter
m 3
m{a=\"x\"} 4.5
m_bucket{a=\"x\",le=\"+Inf\"} 7
weird{v=\"q\\\"u\\\\o\\nte\"} 1
bad line without value
";
        let samples = parse_text(text);
        assert_eq!(samples.len(), 4);
        assert_eq!(samples[0].name, "m");
        assert_eq!(samples[0].value, 3.0);
        assert_eq!(samples[1].label("a"), Some("x"));
        assert_eq!(samples[2].label("le"), Some("+Inf"));
        assert_eq!(samples[3].label("v"), Some("q\"u\\o\nte"));
    }

    #[test]
    fn quantile_from_buckets_interpolates() {
        // 10 obs ≤ 1, 90 more ≤ 2 (cumulative 100).
        let buckets = [(1.0, 10), (2.0, 100), (f64::INFINITY, 100)];
        let p50 = quantile_from_buckets(&buckets, 0.5).unwrap();
        assert!((1.0..=2.0).contains(&p50), "{p50}");
        // Mass in +Inf → lower bound of the last finite bucket.
        let buckets = [(1.0, 0), (f64::INFINITY, 5)];
        assert_eq!(quantile_from_buckets(&buckets, 0.9), Some(1.0));
        assert_eq!(quantile_from_buckets(&[], 0.5), None);
        assert_eq!(
            quantile_from_buckets(&[(1.0, 0), (f64::INFINITY, 0)], 0.5),
            None
        );
    }

    #[test]
    fn render_parse_roundtrip() {
        use crate::Kind;
        let r = crate::Registry::new();
        r.describe("rt_total", Kind::Counter, "round trip");
        r.counter("rt_total", &[("k", "a\"b\\c")]).add(12);
        let h = r.histogram("rt_seconds", &[]);
        h.observe(0.25);
        h.observe(3.0);
        let samples = parse_text(&r.render());
        let c = samples.iter().find(|s| s.name == "rt_total").unwrap();
        assert_eq!(c.value, 12.0);
        assert_eq!(c.label("k"), Some("a\"b\\c"));
        let count = samples
            .iter()
            .find(|s| s.name == "rt_seconds_count")
            .unwrap();
        assert_eq!(count.value, 2.0);
        let buckets: Vec<(f64, u64)> = samples
            .iter()
            .filter(|s| s.name == "rt_seconds_bucket")
            .map(|s| {
                (
                    s.label("le").unwrap().parse().unwrap_or(f64::INFINITY),
                    s.value as u64,
                )
            })
            .collect();
        let p99 = quantile_from_buckets(&buckets, 0.99).unwrap();
        assert!((2.0..=4.0).contains(&p99), "{p99}");
    }
}
