//! Chrome trace-event JSON export (the `chrome://tracing` / Perfetto
//! "JSON Array Format").
//!
//! Each [`TraceEvent`] becomes one instant event (`"ph": "i"`) with
//! `ts` in *virtual* microseconds, so the Perfetto timeline is the
//! simulation's timeline. Events attributable to a server are filed
//! under that server's thread lane; ring ids are 64-bit hashes, so the
//! writer assigns dense `tid`s in order of first appearance and names
//! each lane `server <hex id>` via thread-name metadata. Cluster-wide
//! events (flush windows, load checks) share lane 0.
//!
//! The writer is hand-rolled: event names and argument keys are fixed
//! ASCII identifiers, so no string escaping is required, and integers
//! above 2^53 are quoted to survive JSON's double-precision numbers.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::io;
use std::path::Path;

use crate::event::{ArgValue, TraceEvent};

/// Largest integer a JSON number can hold exactly.
const MAX_EXACT_JSON_INT: u64 = (1 << 53) - 1;

/// An argument displays as a JSON value: the one renderer for the
/// Chrome export and the chaos repro's trace tail. An integer above
/// 2^53 is quoted so that readers using doubles keep it exact, and a
/// non-finite float is `null`.
impl fmt::Display for ArgValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ArgValue::Int(i) if i <= MAX_EXACT_JSON_INT => write!(f, "{i}"),
            ArgValue::Int(i) => write!(f, "\"{i}\""),
            ArgValue::Float(x) if x.is_finite() => write!(f, "{x}"),
            ArgValue::Float(_) => f.write_str("null"),
            ArgValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// Render `events` as a complete Chrome trace JSON document.
#[must_use]
pub fn to_chrome_json(events: &[TraceEvent]) -> String {
    // Dense thread ids per server, in order of first appearance; lane 0
    // is reserved for cluster-wide events.
    let mut lanes: BTreeMap<u64, u64> = BTreeMap::new();
    let mut order: Vec<u64> = Vec::new();
    for ev in events {
        if let Some(server) = ev.kind.server() {
            lanes.entry(server).or_insert_with(|| {
                order.push(server);
                order.len() as u64
            });
        }
    }

    let mut out = String::with_capacity(events.len() * 96 + 256);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"clash-sim\"}},\n",
    );
    out.push_str(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"cluster\"}},\n",
    );
    for server in &order {
        let tid = lanes[server];
        let _ = writeln!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"server {server:016x}\"}}}},"
        );
    }
    for (i, ev) in events.iter().enumerate() {
        let tid = ev.kind.server().map_or(0, |s| lanes[&s]);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\
             \"tid\":{tid},\"args\":{{\"seq\":{}",
            ev.kind.name(),
            ev.at.as_micros(),
            ev.seq
        );
        for (k, v) in ev.kind.args() {
            let _ = write!(out, ",\"{k}\":{v}");
        }
        out.push_str("}}");
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

/// Write `events` to `path` as a Perfetto-loadable Chrome trace.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_chrome_trace<P: AsRef<Path>>(path: P, events: &[TraceEvent]) -> io::Result<()> {
    std::fs::write(path, to_chrome_json(events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEventKind;
    use clash_simkernel::time::SimTime;

    fn ev(seq: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_micros(1000 + seq),
            seq,
            kind,
        }
    }

    #[test]
    fn document_shape_and_lane_assignment() {
        let big_id = u64::MAX - 1;
        let events = vec![
            ev(0, TraceEventKind::ServerJoined { server: big_id }),
            ev(
                1,
                TraceEventKind::FlushBegin {
                    flush_seq: 0,
                    probes: 3,
                },
            ),
            ev(2, TraceEventKind::ServerJoined { server: 7 }),
        ];
        let json = to_chrome_json(&events);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        // First-seen server gets lane 1; the next gets lane 2.
        assert!(json.contains(&format!("\"name\":\"server {big_id:016x}\"")));
        assert!(json.contains("\"name\":\"server 0000000000000007\""));
        // Flush window files under the cluster lane.
        assert!(json.contains(
            "\"name\":\"flush_begin\",\"ph\":\"i\",\"s\":\"t\",\"ts\":1001,\"pid\":1,\"tid\":0"
        ));
        // The wide id is quoted so JSON doubles cannot round it.
        assert!(json.contains(&format!("\"server\":\"{big_id}\"")));
        // Small ints stay numeric.
        assert!(json.contains("\"server\":7"));
    }

    #[test]
    fn json_is_balanced_and_comma_separated() {
        let events: Vec<TraceEvent> = (0..5)
            .map(|i| ev(i, TraceEventKind::ServerCrashed { server: i }))
            .collect();
        let json = to_chrome_json(&events);
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "braces balance"
        );
        assert_eq!(
            json.matches("\"ph\":\"i\"").count(),
            5,
            "one instant event per trace event"
        );
        // No trailing comma before the closing bracket.
        assert!(!json.contains(",\n]"));
    }

    #[test]
    fn empty_trace_is_still_valid_shape() {
        let json = to_chrome_json(&[]);
        assert!(json.contains("process_name"));
        assert!(json.trim_end().ends_with("]}"));
    }
}
