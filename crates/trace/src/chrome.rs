//! Chrome-trace-format (`chrome://tracing` / Perfetto) JSON export.
//!
//! Emits the JSON object form: `{"traceEvents": [...]}` with one object
//! per event. `ts` carries the *virtual* timestamp in microseconds so
//! the rendered timeline matches the deterministic simulation; the host
//! wall-clock stamp rides along in `args.wall_ns` for diagnostics.
//!
//! The writer is hand-rolled (the offline `serde_json` stub is not
//! depended on here) and escapes strings per the JSON grammar.

use crate::event::{ArgValue, Phase, TraceEvent};

/// Serializes `events` into a Chrome-trace JSON document.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 32);
    out.push_str("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_event(&mut out, e);
    }
    out.push_str("]}");
    out
}

fn write_event(out: &mut String, e: &TraceEvent) {
    out.push_str("{\"name\":");
    write_json_string(out, e.name);
    out.push_str(",\"cat\":");
    write_json_string(out, e.cat);
    out.push_str(",\"ph\":\"");
    out.push(e.phase.chrome_ph());
    out.push('"');
    if e.phase == Phase::Instant {
        // Thread-scoped instants render as small arrows on the track.
        out.push_str(",\"s\":\"t\"");
    }
    out.push_str(",\"ts\":");
    out.push_str(&e.sim_us.to_string());
    out.push_str(",\"pid\":");
    out.push_str(&e.pid.to_string());
    out.push_str(",\"tid\":");
    out.push_str(&e.tid.to_string());
    out.push_str(",\"args\":{");
    let mut first = true;
    for (k, v) in e.args.iter().chain(&e.wall_args) {
        if !first {
            out.push(',');
        }
        first = false;
        write_json_string(out, k);
        out.push(':');
        write_arg(out, v);
    }
    if !first {
        out.push(',');
    }
    out.push_str("\"seq\":");
    out.push_str(&e.seq.to_string());
    out.push_str(",\"wall_ns\":");
    out.push_str(&e.wall_ns.to_string());
    out.push_str(",\"canonical\":");
    out.push_str(if e.canonical { "true" } else { "false" });
    out.push_str("}}");
}

fn write_arg(out: &mut String, v: &ArgValue) {
    match v {
        ArgValue::Int(i) => out.push_str(&i.to_string()),
        ArgValue::Uint(u) => out.push_str(&u.to_string()),
        ArgValue::Float(f) => {
            if f.is_finite() {
                out.push_str(&format!("{f}"));
            } else {
                // JSON has no NaN/Inf literals; quote them.
                write_json_string(out, &f.to_string());
            }
        }
        ArgValue::Str(s) => write_json_string(out, s),
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;

    #[test]
    fn exports_minimal_document() {
        let e = TraceEvent::begin("task", "engine").on(1, 2).at_sim(10);
        let json = chrome_trace_json(&[e]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"task\""));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ts\":10"));
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("\"tid\":2"));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn escapes_strings_and_quotes_nonfinite_floats() {
        let e = TraceEvent::instant("i", "c")
            .arg("msg", "a\"b\\c\nd")
            .arg("bad", f64::NAN);
        let json = chrome_trace_json(&[e]);
        assert!(json.contains("a\\\"b\\\\c\\nd"));
        assert!(json.contains("\"bad\":\"NaN\""));
    }

    #[test]
    fn instants_carry_scope() {
        let json = chrome_trace_json(&[TraceEvent::instant("i", "c")]);
        assert!(json.contains("\"ph\":\"i\",\"s\":\"t\""));
    }
}
