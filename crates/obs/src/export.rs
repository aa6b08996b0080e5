//! Exporters and validators.
//!
//! [`chrome_trace`] renders a [`Trace`] as Chrome trace-event JSON
//! (load it at `chrome://tracing` or <https://ui.perfetto.dev>): spans
//! become `"ph":"X"` complete events with microsecond timestamps
//! (3 decimal places, so nanosecond precision survives the round trip)
//! and events become `"ph":"i"` instants.
//!
//! [`validate_chrome_trace`] parses that JSON back — with a small
//! self-contained parser, since the workspace is vendor-free — and
//! checks both structural validity and *well-nestedness*: on every
//! thread lane, span intervals must form a stack (contained or
//! disjoint, never partially overlapping). The obs smoke bench runs
//! every exported trace through it.
//!
//! [`fmt_report`] renders a human summary table of per-span-name
//! aggregates.

use crate::trace::{Record, Trace};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes `s` as the body of a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn push_us(out: &mut String, ns: u64) {
    // Microseconds with 3 decimals: exact nanosecond precision.
    let _ = write!(out, "{}.{:03}", ns / 1000, ns % 1000);
}

/// Renders a trace as Chrome trace-event JSON.
pub fn chrome_trace(trace: &Trace) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for record in &trace.records {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        match record {
            Record::Span(s) => {
                out.push_str("{\"name\":\"");
                out.push_str(&json_escape(s.name));
                out.push_str("\",\"cat\":\"exo\",\"ph\":\"X\",\"ts\":");
                push_us(&mut out, s.start_ns);
                out.push_str(",\"dur\":");
                push_us(&mut out, s.end_ns.saturating_sub(s.start_ns));
                let _ = write!(out, ",\"pid\":1,\"tid\":{}", s.tid);
                if let Some(attr) = &s.attr {
                    out.push_str(",\"args\":{\"attr\":\"");
                    out.push_str(&json_escape(attr));
                    out.push_str("\"}");
                }
                out.push('}');
            }
            Record::Event(e) => {
                out.push_str("{\"name\":\"");
                out.push_str(&json_escape(e.name));
                out.push_str("\",\"cat\":\"exo\",\"ph\":\"i\",\"s\":\"t\",\"ts\":");
                push_us(&mut out, e.ts_ns);
                let _ = write!(out, ",\"pid\":1,\"tid\":{}", e.tid);
                if let Some(detail) = &e.detail {
                    out.push_str(",\"args\":{\"detail\":\"");
                    out.push_str(&json_escape(detail));
                    out.push_str("\"}");
                }
                out.push('}');
            }
        }
    }
    let _ = write!(
        out,
        "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped\":\"{}\"}}}}\n",
        trace.dropped
    );
    out
}

// ---------------------------------------------------------------------
// Minimal JSON parser (validation only — the workspace is vendor-free).
// ---------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

const MAX_DEPTH: u32 = 64;

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn parse_value(&mut self, depth: u32) -> Result<JsonValue, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => Ok(JsonValue::Str(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_lit("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_lit("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(self.err(&format!("unexpected byte `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_lit(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8 in number"))?;
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err(&format!("invalid number `{text}`")))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.bump().ok_or_else(|| self.err("truncated \\u"))?;
                            let v = (d as char)
                                .to_digit(16)
                                .ok_or_else(|| self.err("bad \\u hex digit"))?;
                            code = code * 16 + v;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(self.err("bad escape")),
                },
                Some(c) if c < 0x20 => return Err(self.err("raw control byte in string")),
                Some(c) => {
                    // Re-assemble multi-byte UTF-8 sequences.
                    let len = match c {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    let end = (start + len).min(self.bytes.len());
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid utf-8 in string"))?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_array(&mut self, depth: u32) -> Result<JsonValue, String> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.parse_value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(JsonValue::Arr(items)),
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self, depth: u32) -> Result<JsonValue, String> {
        self.expect_byte(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            let value = self.parse_value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(JsonValue::Obj(members)),
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

/// Parses one JSON document (trailing whitespace allowed).
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.parse_value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after document"));
    }
    Ok(value)
}

// ---------------------------------------------------------------------
// Chrome-trace validation.
// ---------------------------------------------------------------------

/// What [`validate_chrome_trace`] measured while checking.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCheck {
    /// Total trace events.
    pub events: usize,
    /// Complete (`"ph":"X"`) span events.
    pub spans: usize,
    /// Thread lanes seen.
    pub lanes: usize,
    /// Deepest span nesting observed on any lane.
    pub max_depth: usize,
}

/// Half a nanosecond in microseconds: absorbs f64 rounding of the
/// 3-decimal timestamps without masking real overlaps.
const NEST_EPS: f64 = 0.0005;

/// Parses Chrome trace-event JSON and checks structural validity plus
/// per-lane well-nestedness of the span intervals.
pub fn validate_chrome_trace(json: &str) -> Result<TraceCheck, String> {
    let doc = parse_json(json)?;
    let events = match doc.get("traceEvents") {
        Some(JsonValue::Arr(events)) => events,
        _ => return Err("missing `traceEvents` array".to_string()),
    };
    let mut check = TraceCheck::default();
    let mut lanes: BTreeMap<u64, Vec<(f64, f64, String)>> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing string `name`"))?;
        let ph = ev
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing string `ph`"))?;
        let ts = ev
            .get("ts")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("event {i}: missing numeric `ts`"))?;
        let tid = ev
            .get("tid")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("event {i}: missing numeric `tid`"))?;
        ev.get("pid")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("event {i}: missing numeric `pid`"))?;
        if ts < 0.0 {
            return Err(format!("event {i} ({name}): negative ts"));
        }
        check.events += 1;
        if ph == "X" {
            let dur = ev
                .get("dur")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("event {i} ({name}): `X` event without `dur`"))?;
            if dur < 0.0 {
                return Err(format!("event {i} ({name}): negative dur"));
            }
            check.spans += 1;
            lanes
                .entry(tid as u64)
                .or_default()
                .push((ts, ts + dur, name.to_string()));
        }
    }
    check.lanes = lanes.len();
    for (tid, mut spans) in lanes {
        // Sort by start ascending; ties broken longest-first so a parent
        // sharing its child's start timestamp precedes the child.
        spans.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal))
        });
        let mut stack: Vec<(f64, f64, String)> = Vec::new();
        for (start, end, name) in spans {
            while let Some(top) = stack.last() {
                if start >= top.1 - NEST_EPS {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(top) = stack.last() {
                if end > top.1 + NEST_EPS {
                    return Err(format!(
                        "lane {tid}: span `{name}` [{start:.3}, {end:.3}] partially overlaps \
                         `{}` [{:.3}, {:.3}] — not well-nested",
                        top.2, top.0, top.1
                    ));
                }
            }
            stack.push((start, end, name));
            check.max_depth = check.max_depth.max(stack.len());
        }
    }
    Ok(check)
}

// ---------------------------------------------------------------------
// Human report.
// ---------------------------------------------------------------------

#[derive(Default)]
struct SpanAgg {
    count: u64,
    total_ns: u64,
    max_ns: u64,
}

/// Renders a human summary: per-span-name aggregates and per-event-name
/// counts from `trace`.
pub fn fmt_report(trace: &Trace) -> String {
    let mut aggs: BTreeMap<&'static str, SpanAgg> = BTreeMap::new();
    let mut event_counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    for record in &trace.records {
        match record {
            Record::Span(s) => {
                let agg = aggs.entry(s.name).or_default();
                let dur = s.end_ns.saturating_sub(s.start_ns);
                agg.count += 1;
                agg.total_ns += dur;
                agg.max_ns = agg.max_ns.max(dur);
            }
            Record::Event(e) => *event_counts.entry(e.name).or_default() += 1,
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>9} {:>12} {:>12} {:>12}",
        "span", "count", "total_ms", "mean_us", "max_us"
    );
    for (name, agg) in &aggs {
        let _ = writeln!(
            out,
            "{:<28} {:>9} {:>12.3} {:>12.1} {:>12.1}",
            name,
            agg.count,
            agg.total_ns as f64 / 1e6,
            agg.total_ns as f64 / 1e3 / agg.count.max(1) as f64,
            agg.max_ns as f64 / 1e3,
        );
    }
    if !event_counts.is_empty() {
        let _ = writeln!(out, "{:<28} {:>9}", "event", "count");
        for (name, count) in &event_counts {
            let _ = writeln!(out, "{name:<28} {count:>9}");
        }
    }
    if trace.dropped > 0 {
        let _ = writeln!(out, "(dropped {} records at capacity)", trace.dropped);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{EventRecord, SpanRecord};

    fn span(name: &'static str, start: u64, end: u64, tid: u64, depth: u32) -> Record {
        Record::Span(SpanRecord {
            name,
            attr: None,
            start_ns: start,
            end_ns: end,
            tid,
            depth,
        })
    }

    #[test]
    fn chrome_trace_round_trips() {
        let trace = Trace {
            records: vec![
                span("child", 1_500, 2_500, 0, 1),
                span("root", 1_000, 5_000, 0, 0),
                Record::Event(EventRecord {
                    name: "evt",
                    detail: Some("a \"quoted\"\nline".to_string()),
                    ts_ns: 3_000,
                    tid: 0,
                }),
                span("other-lane", 0, 10_000, 1, 0),
            ],
            dropped: 0,
        };
        let json = chrome_trace(&trace);
        let check = match validate_chrome_trace(&json) {
            Ok(check) => check,
            Err(e) => panic!("exported trace failed validation: {e}\n{json}"),
        };
        assert_eq!(check.events, 4);
        assert_eq!(check.spans, 3);
        assert_eq!(check.lanes, 2);
        assert_eq!(check.max_depth, 2);
    }

    #[test]
    fn overlapping_spans_are_rejected() {
        let trace = Trace {
            records: vec![span("a", 0, 2_000, 0, 0), span("b", 1_000, 3_000, 0, 0)],
            dropped: 0,
        };
        let json = chrome_trace(&trace);
        let err = validate_chrome_trace(&json).unwrap_err();
        assert!(err.contains("not well-nested"), "got: {err}");
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("[1, 2,]").is_err());
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_json("\"unterminated").is_err());
    }

    #[test]
    fn parser_accepts_escapes_and_numbers() {
        let v = parse_json(r#"{"s": "a\n\"b\" A", "n": -1.5e2, "l": [true, null]}"#)
            .expect("valid json");
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("a\n\"b\" A"));
        assert_eq!(v.get("n").and_then(JsonValue::as_f64), Some(-150.0));
        assert_eq!(
            v.get("l"),
            Some(&JsonValue::Arr(vec![
                JsonValue::Bool(true),
                JsonValue::Null
            ]))
        );
    }

    #[test]
    fn report_mentions_spans_and_drops() {
        let trace = Trace {
            records: vec![span("x", 0, 2_000, 0, 0), span("x", 0, 4_000, 0, 0)],
            dropped: 3,
        };
        let report = fmt_report(&trace);
        assert!(report.contains('x'));
        assert!(report.contains("dropped 3"));
    }
}
