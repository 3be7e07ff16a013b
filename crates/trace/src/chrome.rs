//! Chrome `trace_event` JSON export (Perfetto-loadable).
//!
//! The exporter goes through the canonical [`tlbdown_sweep::Json`]
//! writer — the same float and escaping policy as every other artifact
//! in the repo — so a trace renders byte-identically across replays and
//! thread counts and round-trips through the strict parser. Timestamps
//! are raw simulated cycles written as integers: Perfetto displays them
//! on a relative scale, and integers keep the bytes stable.
//!
//! Layout: each reconstructed shootdown becomes a complete (`"ph":"X"`)
//! slice on its initiator's track, with one child slice per stage
//! window plus the final sync poll; every other record becomes an
//! instant (`"ph":"i"`) on the core it happened on.

use tlbdown_sweep::Json;

use crate::event::TraceEvent;
use crate::span::{analyze, Phase};
use crate::Trace;

/// Schema version stamped into `otherData`.
pub(crate) const CHROME_SCHEMA_VERSION: u64 = 1;

fn base_event(name: &str, ph: &str, ts: u64, tid: u32) -> Json {
    Json::obj()
        .with("name", Json::Str(name.to_string()))
        .with("ph", Json::Str(ph.to_string()))
        .with("ts", Json::U64(ts))
        .with("pid", Json::U64(0))
        .with("tid", Json::U64(tid as u64))
}

fn complete_event(name: &str, ts: u64, dur: u64, tid: u32, args: Json) -> Json {
    base_event(name, "X", ts, tid)
        .with("dur", Json::U64(dur))
        .with("args", args)
}

fn op_args(op: u64) -> Json {
    Json::obj().with("op", Json::U64(op))
}

/// Event-specific `args` for an instant record.
fn instant_args(rec: &crate::event::TraceRecord) -> Json {
    let mut args = Json::obj().with("seq", Json::U64(rec.seq));
    if let Some(op) = rec.op {
        args = args.with("op", Json::U64(op));
    }
    match rec.ev {
        TraceEvent::IpiSend { to } | TraceEvent::CsqEnqueue { to } => {
            args = args.with("to", Json::U64(to.index() as u64));
        }
        TraceEvent::IpiAck { kind, by } => {
            args = args
                .with("kind", Json::Str(kind.label().to_string()))
                .with("by", Json::U64(by.index() as u64));
        }
        TraceEvent::Invlpg { va, user } => {
            args = args
                .with("va", Json::U64(va))
                .with("user", Json::Bool(user));
        }
        TraceEvent::FullFlush { user } => {
            args = args.with("user", Json::Bool(user));
        }
        TraceEvent::PageWalk { va } | TraceEvent::AtomicRmw { va } => {
            args = args.with("va", Json::U64(va));
        }
        TraceEvent::CachelineTransfer { cost } => {
            args = args.with("cost", Json::U64(cost.as_u64()));
        }
        TraceEvent::RoutedTransfer {
            from,
            to,
            hops,
            cost,
        } => {
            args = args
                .with("from", Json::U64(from.index() as u64))
                .with("to", Json::U64(to.index() as u64))
                .with("hops", Json::U64(hops))
                .with("cost", Json::U64(cost.as_u64()));
        }
        TraceEvent::CsqDrain { n } | TraceEvent::InContextFlush { n } => {
            args = args.with("n", Json::U64(n));
        }
        TraceEvent::Skip { kind } => {
            args = args.with("kind", Json::Str(kind.label().to_string()));
        }
        TraceEvent::Perturb { kind } => {
            args = args.with("kind", Json::Str(kind.label().to_string()));
        }
        TraceEvent::MmOp { kind, pages } => {
            args = args
                .with("kind", Json::Str(kind.to_string()))
                .with("pages", Json::U64(pages));
        }
        TraceEvent::EngineDispatch { kind } => {
            args = args.with("kind", Json::Str(kind.to_string()));
        }
        _ => {}
    }
    args
}

/// Export `trace` as a Chrome `trace_event` document.
pub fn to_chrome_json(trace: &Trace) -> Json {
    let analysis = analyze(trace);
    let mut events: Vec<Json> = Vec::new();
    for span in &analysis.spans {
        let tid = span.initiator.0;
        events.push(complete_event(
            "shootdown",
            span.start.as_u64(),
            span.end_to_end(),
            tid,
            op_args(span.op)
                .with("ipis", Json::U64(span.ipis))
                .with("acks", Json::U64(span.acks.len() as u64))
                .with("local_only", Json::Bool(span.is_local_only())),
        ));
        // Child slices: one per stage window, then the sync poll.
        let done_at = span.end.as_u64() - span.phases[Phase::Sync.idx()];
        for (i, (kind, at)) in span.marks.iter().enumerate() {
            let end = span
                .marks
                .get(i + 1)
                .map(|m| m.1.as_u64())
                .unwrap_or(done_at);
            events.push(complete_event(
                kind.label(),
                at.as_u64(),
                end.saturating_sub(at.as_u64()),
                tid,
                op_args(span.op),
            ));
        }
        if span.phases[Phase::Sync.idx()] > 0 {
            events.push(complete_event(
                "sync",
                done_at,
                span.phases[Phase::Sync.idx()],
                tid,
                op_args(span.op),
            ));
        }
    }
    for rec in &trace.records {
        if matches!(
            rec.ev,
            TraceEvent::SdPhase { .. } | TraceEvent::SdDone { .. }
        ) {
            continue; // rendered as slices above
        }
        events.push(
            base_event(rec.ev.name(), "i", rec.at.as_u64(), rec.core.0)
                .with("s", Json::Str("t".to_string()))
                .with("args", instant_args(rec)),
        );
    }
    Json::obj()
        .with("traceEvents", Json::Arr(events))
        .with("displayTimeUnit", Json::Str("ns".to_string()))
        .with(
            "otherData",
            Json::obj()
                .with("schema_version", Json::U64(CHROME_SCHEMA_VERSION))
                .with("clock", Json::Str("sim_cycles".to_string()))
                .with(
                    "dropped",
                    Json::Arr(trace.dropped.iter().map(|d| Json::U64(*d)).collect()),
                )
                .with("incomplete_spans", Json::U64(analysis.incomplete)),
        )
}

/// Validate that `doc` is a structurally well-formed Chrome
/// `trace_event` document. Returns the event count.
pub fn validate_chrome(doc: &Json) -> Result<u64, String> {
    let events = doc
        .get("traceEvents")
        .ok_or("missing traceEvents")?
        .as_arr()
        .ok_or("traceEvents is not an array")?;
    for (i, ev) in events.iter().enumerate() {
        let ctx = |field: &str| format!("traceEvents[{i}]: bad or missing {field}");
        ev.get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("name"))?;
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("ph"))?;
        if !matches!(ph, "X" | "i" | "M" | "B" | "E") {
            return Err(format!("traceEvents[{i}]: unsupported ph {ph:?}"));
        }
        ev.get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| ctx("ts"))?;
        ev.get("pid")
            .and_then(Json::as_f64)
            .ok_or_else(|| ctx("pid"))?;
        ev.get("tid")
            .and_then(Json::as_f64)
            .ok_or_else(|| ctx("tid"))?;
        if ph == "X" {
            ev.get("dur")
                .and_then(Json::as_f64)
                .ok_or_else(|| ctx("dur"))?;
        }
    }
    Ok(events.len() as u64)
}

#[cfg(test)]
mod tests {
    use tlbdown_types::{CoreId, Cycles};

    use super::*;
    use crate::event::{SdPhaseKind, TraceRecord};

    fn small_trace() -> Trace {
        let mk = |seq: u64, at: u64, core: u32, op: Option<u64>, ev: TraceEvent| TraceRecord {
            seq,
            at: Cycles::new(at),
            dispatch: seq,
            core: CoreId(core),
            op,
            ev,
        };
        Trace {
            records: vec![
                mk(
                    0,
                    100,
                    0,
                    Some(1),
                    TraceEvent::SdPhase {
                        phase: SdPhaseKind::Prep,
                    },
                ),
                mk(1, 150, 0, Some(1), TraceEvent::IpiSend { to: CoreId(1) }),
                mk(
                    2,
                    160,
                    0,
                    Some(1),
                    TraceEvent::SdPhase {
                        phase: SdPhaseKind::Wait,
                    },
                ),
                mk(3, 300, 1, None, TraceEvent::IpiDeliver),
                mk(
                    4,
                    400,
                    1,
                    Some(1),
                    TraceEvent::IpiAck {
                        kind: crate::event::AckKind::Late,
                        by: CoreId(1),
                    },
                ),
                mk(
                    5,
                    450,
                    0,
                    Some(1),
                    TraceEvent::SdDone {
                        sync: Cycles::new(30),
                    },
                ),
            ],
            dropped: vec![0, 0],
        }
    }

    #[test]
    fn export_is_valid_and_round_trips() {
        let doc = to_chrome_json(&small_trace());
        let n = validate_chrome(&doc).expect("valid chrome trace");
        assert!(n >= 5);
        let rendered = doc.render();
        let back = Json::parse(&rendered).expect("strict parse");
        assert_eq!(back.render(), rendered, "byte round-trip");
        // And the pretty form parses back to the same bytes.
        let pretty = doc.render_pretty();
        assert_eq!(Json::parse(&pretty).unwrap().render(), rendered);
    }

    #[test]
    fn span_slices_cover_the_whole_operation() {
        let doc = to_chrome_json(&small_trace());
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let root = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("shootdown"))
            .expect("root slice");
        let dur = root.get("dur").and_then(Json::as_u64).unwrap();
        // prep 100..160, wait 160..450, sync 450..480.
        assert_eq!(dur, 380);
        let child_total: u64 = events
            .iter()
            .filter(|e| {
                matches!(
                    e.get("name").and_then(Json::as_str),
                    Some("prep" | "wait" | "sync")
                )
            })
            .map(|e| e.get("dur").and_then(Json::as_u64).unwrap())
            .sum();
        assert_eq!(child_total, dur, "children partition the root slice");
    }

    #[test]
    fn validation_rejects_malformed_documents() {
        assert!(validate_chrome(&Json::obj()).is_err());
        let bad = Json::obj().with(
            "traceEvents",
            Json::Arr(vec![Json::obj().with("name", Json::U64(3))]),
        );
        assert!(validate_chrome(&bad).is_err());
        let bad_ph = Json::obj().with(
            "traceEvents",
            Json::Arr(vec![Json::obj()
                .with("name", Json::Str("x".into()))
                .with("ph", Json::Str("Q".into()))
                .with("ts", Json::U64(0))
                .with("pid", Json::U64(0))
                .with("tid", Json::U64(0))]),
        );
        assert!(validate_chrome(&bad_ph).is_err());
    }
}
