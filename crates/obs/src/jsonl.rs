//! The JSONL profile log: an append-only event file, one JSON object
//! per line, with monotonic-relative timestamps.
//!
//! Lines are escaped and parsed by [`crate::json`], the same code
//! `mpr-exp`'s disk cache uses; the writer keeps a fixed flat shape and
//! an atomic tmp+rename flush so readers never observe a torn file.
//! Counter values travel as integers; gauge and timer values as
//! decimal numbers (Rust's shortest round-trip formatting).
//!
//! ```text
//! {"t_us":1042,"name":"cell.exec","scope":"v2;dev=titan-v;...","kind":"time","value":0.0123}
//! ```
// mpr-allow-file: determinism -- the log's monotonic-relative origin is observability metadata; it never feeds campaign RNG streams or results

use crate::json::{self, str_json};
use crate::record::{Event, Metric, Recorder};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// A buffering recorder that flushes its events as one JSONL file.
///
/// Events are stamped with microseconds since the recorder's
/// construction. [`Recorder::flush`] (also invoked on drop) writes the
/// whole log write-then-rename, so a crashed run leaves either the
/// previous complete log or none.
#[derive(Debug)]
pub struct JsonlRecorder {
    origin: Instant,
    path: Option<PathBuf>,
    events: Mutex<Vec<Event>>,
}

impl Default for JsonlRecorder {
    fn default() -> Self {
        JsonlRecorder::new()
    }
}

impl JsonlRecorder {
    /// An in-memory recorder (no file; useful for tests and for
    /// rendering a summary without touching disk).
    pub fn new() -> JsonlRecorder {
        JsonlRecorder {
            origin: Instant::now(),
            path: None,
            events: Mutex::new(Vec::new()),
        }
    }

    /// A recorder that flushes to `path`.
    pub fn to_path(path: impl Into<PathBuf>) -> JsonlRecorder {
        JsonlRecorder {
            origin: Instant::now(),
            path: Some(path.into()),
            events: Mutex::new(Vec::new()),
        }
    }

    /// The flush destination, if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// A snapshot of the buffered events, in record order.
    pub fn events(&self) -> Vec<Event> {
        // mpr-allow: panic-hygiene -- a poisoned event buffer means a recording thread already panicked; propagating is the only sound option
        self.events.lock().expect("event buffer").clone()
    }

    /// Serializes the buffered events as JSONL text.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        // mpr-allow: panic-hygiene -- a poisoned event buffer means a recording thread already panicked; propagating is the only sound option
        for ev in self.events.lock().expect("event buffer").iter() {
            serialize_line(&mut out, ev);
        }
        out
    }
}

impl Recorder for JsonlRecorder {
    fn record(&self, name: &str, scope: &str, metric: Metric) {
        let t_us = self.origin.elapsed().as_micros() as u64;
        // mpr-allow: panic-hygiene -- a poisoned event buffer means a recording thread already panicked; propagating is the only sound option
        let mut events = self.events.lock().expect("event buffer");
        // mpr-allow: determinism-taint -- the timestamp IS the telemetry payload; events never feed campaign results, seeds, or cache keys
        events.push(Event {
            t_us,
            name: name.to_string(),
            scope: scope.to_string(),
            metric,
        });
    }

    /// Best effort, like the experiment disk cache: an unwritable
    /// profile path degrades to in-memory telemetry, it never fails
    /// the run.
    fn flush(&self) {
        let Some(path) = &self.path else {
            return;
        };
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() && std::fs::create_dir_all(parent).is_err() {
                return;
            }
        }
        let tmp = path.with_extension("jsonl.tmp");
        if std::fs::write(&tmp, self.to_jsonl()).is_ok() {
            let _ = std::fs::rename(&tmp, path);
        }
    }
}

impl Drop for JsonlRecorder {
    fn drop(&mut self) {
        self.flush();
    }
}

// --- serialization ---------------------------------------------------------

fn serialize_line(out: &mut String, ev: &Event) {
    let (kind, value) = match ev.metric {
        Metric::Count(n) => ("count", n.to_string()),
        Metric::Gauge(v) => ("gauge", num_json(v)),
        Metric::Time(v) => ("time", num_json(v)),
    };
    out.push_str(&format!(
        "{{\"t_us\":{},\"name\":{},\"scope\":{},\"kind\":\"{kind}\",\"value\":{value}}}\n",
        ev.t_us,
        str_json(&ev.name),
        str_json(&ev.scope),
    ));
}

/// Telemetry values are finite by construction (durations, rates);
/// a non-finite stray is clamped to zero rather than emitting invalid
/// JSON.
fn num_json(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

// --- parsing ---------------------------------------------------------------

/// Parses one JSONL event line; `None` on any malformed input: not
/// exactly one JSON object, a missing or unknown field, a field of the
/// wrong type, or an unknown `kind`.
pub fn parse_line(line: &str) -> Option<Event> {
    let value = json::parse(line).ok()?;
    // Five required fields and five members: no unknown keys.
    if value.as_obj()?.len() != 5 {
        return None;
    }
    let raw = value.get("value")?;
    let metric = match value.get("kind")?.as_str()? {
        "count" => Metric::Count(raw.as_u64()?),
        "gauge" => Metric::Gauge(raw.as_num()?),
        "time" => Metric::Time(raw.as_num()?),
        _ => return None,
    };
    Some(Event {
        t_us: value.get("t_us")?.as_u64()?,
        name: value.get("name")?.as_str()?.to_string(),
        scope: value.get("scope")?.as_str()?.to_string(),
        metric,
    })
}

/// Reads a JSONL profile log, skipping blank lines.
///
/// # Errors
///
/// Returns the underlying I/O error, or `InvalidData` naming the first
/// malformed line.
pub fn read_log(path: &Path) -> io::Result<Vec<Event>> {
    let text = std::fs::read_to_string(path)?;
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(line) {
            Some(ev) => events.push(ev),
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}:{}: malformed profile event", path.display(), i + 1),
                ))
            }
        }
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::NULL_RECORDER;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mpr_obs_{tag}_{}.jsonl", std::process::id()))
    }

    #[test]
    fn events_round_trip_through_jsonl_text() {
        let rec = JsonlRecorder::new();
        rec.record("cache.mem_hit", "v2;dev=titan-v", Metric::Count(3));
        rec.record("cell.exec", "v2;dev=titan-v", Metric::Time(0.015625));
        rec.record("beam.strikes_per_s", "", Metric::Gauge(1234.5));
        let text = rec.to_jsonl();
        assert_eq!(text.lines().count(), 3);
        let parsed: Vec<Event> = text.lines().map(|l| parse_line(l).expect(l)).collect();
        assert_eq!(parsed, rec.events());
        assert_eq!(parsed[1].metric, Metric::Time(0.015625));
    }

    #[test]
    fn timestamps_are_monotonic_relative() {
        let rec = JsonlRecorder::new();
        rec.record("a", "", Metric::Count(1));
        rec.record("b", "", Metric::Count(1));
        let events = rec.events();
        assert!(events[0].t_us <= events[1].t_us);
    }

    #[test]
    fn flush_writes_atomically_and_read_log_round_trips() {
        let path = temp_path("flush");
        {
            let rec = JsonlRecorder::to_path(&path);
            rec.record("cell.total", "scope \"quoted\"", Metric::Time(1.5));
            rec.record("plan.requests", "", Metric::Count(42));
            rec.flush();
            assert!(!path.with_extension("jsonl.tmp").exists());
        } // drop flushes again; idempotent
        let events = read_log(&path).expect("read log");
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].scope, "scope \"quoted\"");
        assert_eq!(events[1].metric, Metric::Count(42));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(parse_line("").is_none());
        assert!(parse_line("{").is_none());
        assert!(parse_line("{\"t_us\":1}").is_none());
        assert!(parse_line(
            "{\"t_us\":1,\"name\":\"x\",\"scope\":\"\",\"kind\":\"bogus\",\"value\":1}"
        )
        .is_none());
        assert!(parse_line(
            "{\"t_us\":1,\"name\":\"x\",\"scope\":\"\",\"kind\":\"count\",\"value\":1} extra"
        )
        .is_none());
        let ok = "{\"t_us\":1,\"name\":\"x\",\"scope\":\"\",\"kind\":\"count\",\"value\":1}";
        assert!(parse_line(ok).is_some());

        let path = temp_path("bad");
        std::fs::write(&path, format!("{ok}\nnot json\n")).expect("write");
        let err = read_log(&path).expect_err("malformed line must error");
        assert!(err.to_string().contains(":2:"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_megabyte_of_non_ascii_parses() {
        // String decoding is linear: a 1 MiB scope is one line, not minutes.
        let scope = "é".repeat(512 * 1024);
        let rec = JsonlRecorder::new();
        rec.record("cell.exec", &scope, Metric::Time(0.5));
        let text = rec.to_jsonl();
        let ev = parse_line(text.trim()).expect("a large line parses");
        assert_eq!(ev.scope, scope);
        assert!(parse_line(&text.replace("\"time\"", "\"bogus\"")).is_none());
    }

    #[test]
    fn non_finite_values_are_clamped_not_invalid() {
        let rec = JsonlRecorder::new();
        rec.record("g", "", Metric::Gauge(f64::INFINITY));
        let text = rec.to_jsonl();
        let ev = parse_line(text.trim()).expect("clamped line parses");
        assert_eq!(ev.metric, Metric::Gauge(0.0));
    }

    /// Absolute `to_jsonl` bytes for each metric kind, captured before
    /// the JSON module moved.
    #[test]
    fn jsonl_line_bytes_are_pinned() {
        let rec = JsonlRecorder::new();
        let scope = "v2;dev=\"titan-v\"\\é";
        for (t_us, name, metric) in [
            (7, "cache.mem_hit", Metric::Count(3)),
            (1042, "beam.strikes_per_s", Metric::Gauge(1234.5)),
            (u64::MAX, "cell.exec", Metric::Time(0.015625)),
        ] {
            rec.events.lock().expect("event buffer").push(Event {
                t_us,
                name: name.to_string(),
                scope: scope.to_string(),
                metric,
            });
        }
        assert_eq!(
            rec.to_jsonl(),
            "{\"t_us\":7,\"name\":\"cache.mem_hit\",\"scope\":\"v2;dev=\\\"titan-v\\\"\\\\é\",\"kind\":\"count\",\"value\":3}\n\
             {\"t_us\":1042,\"name\":\"beam.strikes_per_s\",\"scope\":\"v2;dev=\\\"titan-v\\\"\\\\é\",\"kind\":\"gauge\",\"value\":1234.5}\n\
             {\"t_us\":18446744073709551615,\"name\":\"cell.exec\",\"scope\":\"v2;dev=\\\"titan-v\\\"\\\\é\",\"kind\":\"time\",\"value\":0.015625}\n"
        );
    }

    #[test]
    fn null_recorder_interops() {
        // The static default is usable wherever a &dyn Recorder goes.
        let rec: &dyn Recorder = &NULL_RECORDER;
        rec.record("x", "", Metric::Count(1));
        rec.flush();
        assert!(!rec.enabled());
    }
}
