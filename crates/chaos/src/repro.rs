//! Replayable repro files (`chaos_repro.json`).
//!
//! A repro carries everything needed to re-run a shrunk failing
//! schedule — the seed, the cell options, the minimal event list — plus
//! two write-only annotations for humans: the violation that fired and
//! the flight-recorder ring tail from the failing replay. Replay needs
//! only seed + options + events; the trace tail is evidence, not input.
//!
//! The workspace deliberately has no serde (vendored crates only), so
//! the format is written by hand and read back by a minimal JSON value
//! parser. The parser accepts general JSON (it has to skip the trace
//! tail), but only the fields named here are interpreted.

use clash_obs::TraceEvent;
use clash_workload::FaultKind;

use crate::engine::{CampaignFailure, ChaosOptions, ScheduleOutcome, Violation};
use crate::schedule::ChaosSchedule;

/// Format marker written into (and required from) every repro file.
pub const REPRO_FORMAT: &str = "clash-chaos-repro-v2";

/// A parsed repro: everything needed to replay the minimal schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosRepro {
    /// Seed of the campaign the failure came from (provenance only).
    pub campaign_seed: u64,
    /// Index of the failing schedule within that campaign (provenance).
    pub schedule_index: u64,
    /// The cell options the failure reproduces under.
    pub options: ChaosOptions,
    /// The violation the minimal schedule reproduces.
    pub violation: Violation,
    /// The minimal failing schedule (seed + events).
    pub schedule: ChaosSchedule,
}

impl ChaosRepro {
    /// Replays the repro's minimal schedule under its recorded options.
    #[must_use]
    pub fn replay(&self) -> ScheduleOutcome {
        crate::engine::run_schedule(&self.options, &self.schedule)
    }
}

/// Renders a shrunk campaign failure as a `chaos_repro.json` document.
#[must_use]
pub fn render_repro(
    options: &ChaosOptions,
    campaign_seed: u64,
    failure: &CampaignFailure,
) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n");
    out.push_str(&format!("  \"format\": \"{REPRO_FORMAT}\",\n"));
    out.push_str(&format!("  \"campaign_seed\": {campaign_seed},\n"));
    out.push_str(&format!(
        "  \"schedule_index\": {},\n",
        failure.schedule_index
    ));
    out.push_str(&format!("  \"seed\": {},\n", failure.minimal.seed));
    out.push_str("  \"options\": {\n");
    out.push_str(&format!("    \"servers\": {},\n", options.servers));
    out.push_str(&format!("    \"sources\": {},\n", options.sources));
    out.push_str(&format!("    \"replication\": {},\n", options.replication));
    out.push_str(&format!(
        "    \"inject_merge_reseed_bug\": {}\n",
        options.inject_merge_reseed_bug
    ));
    out.push_str("  },\n");
    out.push_str("  \"violation\": {\n");
    out.push_str(&format!(
        "    \"invariant\": \"{}\",\n",
        escape(&failure.violation.invariant)
    ));
    out.push_str(&format!(
        "    \"detail\": \"{}\",\n",
        escape(&failure.violation.detail)
    ));
    match failure.violation.event_index {
        Some(i) => out.push_str(&format!("    \"event_index\": {i}\n")),
        None => out.push_str("    \"event_index\": null\n"),
    }
    out.push_str("  },\n");
    out.push_str("  \"shrunk_from_events\": ");
    out.push_str(&failure.schedule.events.len().to_string());
    out.push_str(",\n  \"events\": [\n");
    for (i, event) in failure.minimal.events.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&render_event(*event));
        out.push_str(if i + 1 < failure.minimal.events.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str("  \"trace_tail\": [\n");
    for (i, ev) in failure.trace_tail.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&render_trace_event(ev));
        out.push_str(if i + 1 < failure.trace_tail.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

fn render_event(event: FaultKind) -> String {
    let mut s = format!("{{\"kind\": \"{}\"", event.label());
    for (name, value) in event.params() {
        s.push_str(&format!(", \"{name}\": {value}"));
    }
    s.push('}');
    s
}

fn render_trace_event(ev: &TraceEvent) -> String {
    let mut s = format!(
        "{{\"at_us\": {}, \"seq\": {}, \"name\": \"{}\"",
        ev.at.as_micros(),
        ev.seq,
        ev.kind.name()
    );
    // `ArgValue`'s `Display` is the Chrome export's JSON rendering.
    for (name, value) in ev.kind.args() {
        s.push_str(&format!(", \"{name}\": {value}"));
    }
    s.push('}');
    s
}

/// Parses a `chaos_repro.json` document back into a replayable repro.
///
/// # Errors
///
/// Returns a description of the first structural problem: not JSON, a
/// missing/mistyped field, an unknown event kind, or a format-marker
/// mismatch.
pub fn parse_repro(text: &str) -> Result<ChaosRepro, String> {
    let value = Json::parse(text)?;
    let root = value.as_object("repro root")?;
    let format = get(root, "format")?.as_str("format")?;
    if format != REPRO_FORMAT {
        return Err(format!(
            "unsupported repro format {format:?} (expected {REPRO_FORMAT:?})"
        ));
    }
    let options_obj = get(root, "options")?.as_object("options")?;
    let options = ChaosOptions {
        servers: get(options_obj, "servers")?.as_u64("servers")? as usize,
        sources: get(options_obj, "sources")?.as_u64("sources")? as usize,
        replication: get(options_obj, "replication")?.as_u64("replication")? as usize,
        inject_merge_reseed_bug: get(options_obj, "inject_merge_reseed_bug")?
            .as_bool("inject_merge_reseed_bug")?,
    };
    let violation_obj = get(root, "violation")?.as_object("violation")?;
    let violation = Violation {
        invariant: get(violation_obj, "invariant")?
            .as_str("invariant")?
            .to_string(),
        detail: get(violation_obj, "detail")?.as_str("detail")?.to_string(),
        event_index: match get(violation_obj, "event_index")? {
            Json::Null => None,
            other => Some(other.as_u64("event_index")? as usize),
        },
    };
    let mut events = Vec::new();
    for (i, entry) in get(root, "events")?.as_array("events")?.iter().enumerate() {
        let obj = entry.as_object("event")?;
        let kind = get(obj, "kind")?.as_str("event kind")?;
        let params: Vec<(String, u64)> = obj
            .iter()
            .filter(|(name, _)| name != "kind")
            .map(|(name, value)| Ok((name.clone(), value.as_u64(name)?)))
            .collect::<Result<_, String>>()?;
        events.push(
            FaultKind::from_parts(kind, &params)
                .ok_or_else(|| format!("event {i}: unknown or incomplete kind {kind:?}"))?,
        );
    }
    Ok(ChaosRepro {
        campaign_seed: get(root, "campaign_seed")?.as_u64("campaign_seed")?,
        schedule_index: get(root, "schedule_index")?.as_u64("schedule_index")?,
        options,
        violation,
        schedule: ChaosSchedule {
            seed: get(root, "seed")?.as_u64("seed")?,
            events,
        },
    })
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn get<'a>(obj: &'a [(String, Json)], name: &str) -> Result<&'a Json, String> {
    obj.iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field {name:?}"))
}

/// A minimal JSON value: just enough to read repro files back.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    /// All numbers are kept as f64 except unsigned integers, which stay
    /// exact — seeds are full-range u64 and must not round-trip through
    /// a double.
    U64(u64),
    F64(f64),
    Str(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }

    fn as_object(&self, what: &str) -> Result<&[(String, Json)], String> {
        match self {
            Json::Object(fields) => Ok(fields),
            other => Err(format!("{what}: expected object, got {other:?}")),
        }
    }

    fn as_array(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Array(items) => Ok(items),
            other => Err(format!("{what}: expected array, got {other:?}")),
        }
    }

    fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("{what}: expected string, got {other:?}")),
        }
    }

    fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Json::U64(v) => Ok(*v),
            other => Err(format!("{what}: expected unsigned integer, got {other:?}")),
        }
    }

    fn as_bool(&self, what: &str) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("{what}: expected bool, got {other:?}")),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, got {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let name = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((name, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, got {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, got {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {:?}", other.map(|c| c as char))),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input came from a
                    // &str, so boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| "invalid utf-8")?;
                    let c = s.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "bad number")?;
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::U64(v));
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clash_obs::TraceEventKind;
    use clash_simkernel::time::SimTime;

    fn sample_failure() -> CampaignFailure {
        CampaignFailure {
            schedule_index: 3,
            schedule: ChaosSchedule {
                seed: u64::MAX - 7,
                events: vec![
                    FaultKind::CrashBurst { victims: 2 },
                    FaultKind::LoadChecks { count: 1 },
                    FaultKind::PartitionStorm { islands: 2 },
                    FaultKind::Heal,
                ],
            },
            minimal: ChaosSchedule {
                seed: u64::MAX - 7,
                events: vec![
                    FaultKind::CrashBurst { victims: 2 },
                    FaultKind::FlashCrowd {
                        prefix_bits: 0b101 << 61,
                        prefix_depth: 3,
                        sources: 40,
                    },
                ],
            },
            violation: Violation {
                invariant: "replica_placement".to_string(),
                detail: "group \"10*\" has 0 of 2 replicas\nafter merge".to_string(),
                event_index: Some(1),
            },
            shrink_replays: 9,
            trace_tail: vec![TraceEvent {
                at: SimTime::from_micros(1234),
                seq: 9,
                kind: TraceEventKind::RecoveryDeferred {
                    failed: 42,
                    group_bits: 0b10,
                    group_depth: 2,
                },
            }],
        }
    }

    #[test]
    fn repro_round_trips() {
        let options = ChaosOptions {
            inject_merge_reseed_bug: true,
            ..ChaosOptions::default()
        };
        let failure = sample_failure();
        let text = render_repro(&options, 42, &failure);
        let repro = parse_repro(&text).expect("parses");
        assert_eq!(repro.campaign_seed, 42);
        assert_eq!(repro.schedule_index, 3);
        assert_eq!(repro.options, options);
        assert_eq!(repro.violation, failure.violation);
        assert_eq!(repro.schedule, failure.minimal);
    }

    #[test]
    fn full_range_seeds_survive_the_round_trip() {
        let options = ChaosOptions::default();
        let mut failure = sample_failure();
        failure.minimal.seed = u64::MAX;
        let text = render_repro(&options, u64::MAX - 1, &failure);
        let repro = parse_repro(&text).expect("parses");
        assert_eq!(
            repro.schedule.seed,
            u64::MAX,
            "seeds must not round through f64"
        );
        assert_eq!(repro.campaign_seed, u64::MAX - 1);
    }

    #[test]
    fn quiescence_violation_round_trips_as_null_index() {
        let options = ChaosOptions::default();
        let mut failure = sample_failure();
        failure.violation.event_index = None;
        let text = render_repro(&options, 1, &failure);
        assert!(text.contains("\"event_index\": null"));
        let repro = parse_repro(&text).expect("parses");
        assert_eq!(repro.violation.event_index, None);
    }

    #[test]
    fn wide_trace_integers_are_quoted_and_still_round_trip() {
        let options = ChaosOptions::default();
        let mut failure = sample_failure();
        failure.trace_tail.push(TraceEvent {
            at: SimTime::from_micros(1300),
            seq: 10,
            kind: TraceEventKind::LocateProbe {
                key: 1 << 60,
                depth: 4,
                server: 7,
                accepted: true,
                hop: 1,
            },
        });
        let text = render_repro(&options, 5, &failure);
        assert!(
            text.contains(&format!("\"key\": \"{}\"", 1u64 << 60)),
            "a key above 2^53 must be quoted: {text}"
        );
        assert!(text.contains("\"server\": 7"), "small ints stay numeric");
        let repro = parse_repro(&text).expect("parses");
        assert_eq!(repro.schedule, failure.minimal);
        assert_eq!(repro.violation, failure.violation);
    }

    #[test]
    fn malformed_documents_are_rejected_with_context() {
        assert!(parse_repro("").is_err());
        assert!(parse_repro("{}").unwrap_err().contains("format"));
        assert!(parse_repro("{\"format\": \"something-else\"}")
            .unwrap_err()
            .contains("unsupported repro format"));
        let options = ChaosOptions::default();
        let good = render_repro(&options, 1, &sample_failure());
        let bad = good.replace("crash_burst", "meteor_strike");
        assert!(parse_repro(&bad).unwrap_err().contains("meteor_strike"));
        let v1 = good.replace(REPRO_FORMAT, "clash-chaos-repro-v1");
        assert!(parse_repro(&v1)
            .unwrap_err()
            .contains("(expected \"clash-chaos-repro-v2\")"));
    }
}
