//! Small self-contained helpers: order statistics, process memory,
//! and just enough JSON to write the result line and read it
//! (and `BENCHMARK.json`) back.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The fast quartile of host timings: the nearest-rank first quartile.
/// A shared host slows a pass by taking its core away for a while and
/// never speeds one up, so the fast quartile tracks the program's own
/// cost and moves far less between runs than the median does.
pub fn fast_quartile(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "quartile of no values");
    v[v.len().div_ceil(4) - 1]
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them, so `--repeat` spreads match what a Python reader of
/// the same runs would compute.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// An exact nearest-rank quantile of sorted samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankQuantile {
    pub value: u64,
    /// Samples strictly above the rank the value was read at.
    pub beyond: usize,
}

/// Nearest-rank `num/den` quantile of `sorted` (ascending): the sample
/// at rank `ceil(n * num / den)`. Refuses (None) when fewer than ten
/// samples lie beyond that rank, since such a tail is one or two
/// requests, not a percentile.
pub fn nearest_rank(sorted: &[u64], num: u64, den: u64) -> Option<RankQuantile> {
    let n = sorted.len() as u64;
    let rank = (n * num).div_ceil(den).max(1);
    let beyond = (n - rank.min(n)) as usize;
    (n > 0 && beyond >= 10).then(|| RankQuantile {
        value: sorted[rank as usize - 1],
        beyond,
    })
}

/// The process's peak resident set (`VmHWM`) less its resident
/// file-backed pages (`RssFile`: the binary and shared libraries), in
/// MB (10^6 bytes): the peak of the memory the simulator allocates.
/// Which file pages are resident varies by ±0.1 MB from one process to
/// the next at the same seed, a fifth of the smallest workload's heap.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux /proc/self/status");
    let kib = |key: &str| -> f64 {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .unwrap_or_else(|| panic!("{key} line in /proc/self/status"))
    };
    (kib("VmHWM:") - kib("RssFile:")) * 1024.0 / 1e6
}

/// A JSON value, restricted to what the benchmark reads and writes.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Parse one JSON document; trailing whitespace only.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing bytes at {}", p.i));
        }
        Ok(v)
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    /// The input from `start` up to the cursor.
    fn text(&self, start: usize) -> Result<&str, String> {
        std::str::from_utf8(&self.s[start..self.i]).map_err(|e| format!("invalid UTF-8: {e}"))
    }

    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(|c| c.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(m));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.eat(b':')?;
                    m.insert(k, self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(m));
                        }
                        _ => return Err(format!("bad object at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(a));
                }
                loop {
                    a.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(a));
                        }
                        _ => return Err(format!("bad array at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.s[self.i..].starts_with(b"true") => {
                self.i += 4;
                Ok(Json::Bool(true))
            }
            Some(b'f') if self.s[self.i..].starts_with(b"false") => {
                self.i += 5;
                Ok(Json::Bool(false))
            }
            Some(_) => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.i += 1;
                }
                self.text(start)?
                    .parse()
                    .ok()
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected string at byte {}", self.i));
        }
        self.i += 1;
        let mut out = String::new();
        loop {
            match self.s.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let c = self.s.get(self.i + 1).copied();
                    self.i += 2;
                    match c {
                        Some(c @ (b'"' | b'\\')) => out.push(c as char),
                        _ => return Err(format!("unsupported escape at byte {}", self.i)),
                    }
                }
                Some(_) => {
                    // Copy up to the next quote or escape; both are
                    // ASCII, so the slice ends on a char boundary.
                    let start = self.i;
                    while self
                        .s
                        .get(self.i)
                        .is_some_and(|c| !matches!(c, b'"' | b'\\'))
                    {
                        self.i += 1;
                    }
                    out.push_str(self.text(start)?);
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }
}

/// Quote `s` as a JSON string (names and units here are plain ASCII).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render a finite number with every digit Rust's shortest round-trip
/// formatting produces.
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    let mut s = String::new();
    write!(s, "{v}").expect("writing to a String");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        assert_eq!(fast_quartile(&v), 3.0);
        assert_eq!(fast_quartile(&[2.0, 1.0, 3.0]), 1.0);
    }

    #[test]
    fn nearest_rank_refuses_thin_tails() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(nearest_rank(&v, 99, 100).map(|q| q.value), Some(990));
        assert_eq!(nearest_rank(&v, 1, 2).map(|q| q.value), Some(500));
        // p999 of 1000 samples has one sample beyond it: refused.
        assert_eq!(nearest_rank(&v, 999, 1000), None);
        let v: Vec<u64> = (1..=10_000).collect();
        let q = nearest_rank(&v, 999, 1000).expect("ten samples beyond");
        assert_eq!((q.value, q.beyond), (9990, 10));
    }

    #[test]
    fn json_round_trips_the_result_shape() {
        let text = r#"{"correct": true, "attempted": 3, "failed": 0,
            "metrics": {"wall_s": {"value": 1.25e0, "unit": "s"}}, "l": [false, "a\"b"]}"#;
        let j = Json::parse(text).expect("parses");
        assert_eq!(j.get("attempted").and_then(Json::as_f64), Some(3.0));
        let wall = j
            .get("metrics")
            .and_then(|m| m.get("wall_s"))
            .expect("metric");
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(json_str("a\"b"), r#""a\"b""#);
        assert!(Json::parse("{\"a\": 1} x").is_err());
    }
}
