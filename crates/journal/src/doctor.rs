//! `\doctor` — incident and live-journal analysis.
//!
//! Turns a frozen [`Incident`] (or the live flight recorder) into a
//! plain-language report: what failed, which source was involved, how
//! the cache behaved, and what the retry/breaker timeline looked like
//! in the moments before. The analyzer is pure — string in, string
//! out — so the REPL command, the `doctor` CLI, and the end-to-end
//! chaos test all share one implementation.

use aql_trace::json::Json;

use crate::attr::Ledger;
use crate::incident::{ErrorClass, Incident, IncidentKind};
use crate::{Journal, Tag};

/// What the analyzer pins a report on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// The failed statement's class — or, for a statement that did not
    /// fail, the class whose signature its window carries (a retried
    /// read, a breaker trip).
    Error(ErrorClass),
    /// No failure — the statement was just slow.
    SlowQuery,
    /// Nothing to diagnose: no incident, no error, and no fault
    /// signatures (retries, breaker events, load errors) in the
    /// window. A clean session's `\doctor;` lands here.
    Healthy,
    /// Nothing matched (an error dump written before incidents carried
    /// a class lands here); the report still shows the evidence.
    Unknown,
}

impl FaultClass {
    /// Stable report name.
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::Error(class) => class.name(),
            FaultClass::SlowQuery => "slow-query",
            FaultClass::Healthy => "healthy",
            FaultClass::Unknown => "unknown",
        }
    }
}

/// Classify a report. A failed statement's class is the one its error
/// value named (`error`, from the incident record or the ring's
/// `StmtEnd` label); only a statement that did not fail is read off the
/// event window: a breaker trip, a repaired read, a slow query, or
/// nothing at all.
pub fn classify(
    kind: Option<IncidentKind>,
    error: Option<FaultClass>,
    events: &Journal,
) -> FaultClass {
    if let Some(class) = error {
        return class;
    }
    let has = |tags: &[Tag]| events.events.iter().any(|e| tags.contains(&e.tag));
    if kind == Some(IncidentKind::BreakerTrip) || has(&[Tag::BreakerTrip, Tag::BreakerFastFail]) {
        return FaultClass::Error(ErrorClass::Unavailable);
    }
    if kind == Some(IncidentKind::Slow) {
        return FaultClass::SlowQuery;
    }
    if has(&[Tag::Retry]) {
        return FaultClass::Error(ErrorClass::TransientIo);
    }
    // A live-journal diagnosis whose window carries no fault signature
    // at all is a healthy session, not an unrecognized fault.
    if kind.is_none() && !has(FAULT_SIGNATURES) {
        return FaultClass::Healthy;
    }
    FaultClass::Unknown
}

/// The class of the statement that ended last in a live window, if it
/// failed: its `StmtEnd` label (`ok` is no class).
fn last_outcome(events: &Journal) -> Option<FaultClass> {
    let end = events.events.iter().rev().find(|e| e.tag == Tag::StmtEnd)?;
    ErrorClass::from_name(&end.label_str()).map(FaultClass::Error)
}

/// The kinds that mark a window as other than healthy; the timeline
/// lists exactly these.
const FAULT_SIGNATURES: &[Tag] = &[
    Tag::Retry,
    Tag::ChecksumMismatch,
    Tag::BreakerTrip,
    Tag::BreakerProbe,
    Tag::BreakerFastFail,
    Tag::CacheLoadError,
    Tag::SlowQuery,
];

/// The source label most implicated in the failure: the label on the
/// most recent load-error / retry / breaker event, falling back to the
/// attribution row with the most load errors or retries.
pub fn failing_source(events: &Journal, attribution: Option<&Ledger>) -> Option<String> {
    let from_events = events
        .events
        .iter()
        .rev()
        .find(|e| {
            matches!(
                e.tag,
                Tag::CacheLoadError
                    | Tag::Retry
                    | Tag::ChecksumMismatch
                    | Tag::BreakerTrip
                    | Tag::BreakerFastFail
            ) && e.label != 0
        })
        .map(|e| e.label_str());
    if from_events.is_some() {
        return from_events;
    }
    attribution.and_then(|l| {
        l.sources
            .iter()
            .filter(|(_, c)| c.load_errors + c.retries > 0)
            .max_by_key(|(_, c)| c.load_errors + c.retries)
            .map(|(label, _)| label.clone())
    })
}

fn push_timeline(out: &mut String, events: &Journal) {
    let interesting: Vec<_> =
        events.events.iter().filter(|e| FAULT_SIGNATURES.contains(&e.tag)).collect();
    if interesting.is_empty() {
        out.push_str("timeline: no retries or breaker events recorded\n");
        return;
    }
    out.push_str("timeline:\n");
    let t0 = interesting.first().map(|e| e.t_us).unwrap_or(0);
    for e in interesting {
        let dt = e.t_us.saturating_sub(t0);
        let label = e.label_str();
        let what = match e.tag {
            Tag::Retry => format!("retry attempt {} on `{label}`", e.a),
            Tag::ChecksumMismatch => format!("checksum MISMATCH on a chunk of `{label}`"),
            Tag::BreakerTrip => format!("breaker TRIPPED open for `{label}`"),
            Tag::BreakerProbe => format!("breaker half-open probe on `{label}`"),
            Tag::BreakerFastFail => format!("fast-fail: breaker open for `{label}`"),
            Tag::CacheLoadError => format!("chunk load error on `{label}`"),
            Tag::SlowQuery => format!("slow-query threshold crossed ({:.1} ms)", e.b as f64 / 1e6),
            _ => continue,
        };
        out.push_str(&format!("  +{:>8} us  {what}\n", dt));
    }
}

/// The class an incident's error had: the record's `class`; `unknown`
/// for an error dump that carries none.
fn incident_class(inc: &Incident) -> Option<FaultClass> {
    let failed = inc.error.is_some();
    failed.then(|| inc.class.map_or(FaultClass::Unknown, FaultClass::Error))
}

/// Analyze a loaded incident file into a human-readable report.
pub fn diagnose(inc: &Incident) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "incident: {} (statement #{}, kind `{}`, hash {}, {:.3} ms)\n",
        inc.kind.name(),
        inc.seq,
        inc.stmt_kind,
        inc.stmt_hash,
        inc.dur_ns as f64 / 1e6
    ));
    if let Some(err) = &inc.error {
        out.push_str(&format!("error: {err}\n"));
    }
    out.push_str(&body(&inc.events, inc.attribution.as_ref(), Some(inc.kind), incident_class(inc)));
    if !inc.metrics_delta.is_empty() {
        out.push_str("metrics moved during the statement:\n");
        for (series, delta) in inc.metrics_delta.iter().take(12) {
            out.push_str(&format!("  {series}: +{delta}\n"));
        }
        if inc.metrics_delta.len() > 12 {
            out.push_str(&format!("  … {} more series\n", inc.metrics_delta.len() - 12));
        }
    }
    out
}

/// Analyze the live flight recorder (no incident file), with an
/// optional attribution ledger from the last statement.
pub fn diagnose_live(journal: &Journal, attribution: Option<&Ledger>) -> String {
    let mut out = format!(
        "live journal: {} events across {} thread(s)\n",
        journal.events.len(),
        {
            let mut threads: Vec<u64> = journal.events.iter().map(|e| e.thread).collect();
            threads.sort_unstable();
            threads.dedup();
            threads.len().max(1)
        }
    );
    out.push_str(&body(journal, attribution, None, last_outcome(journal)));
    out
}

/// Machine-readable counterpart of [`diagnose`]: one JSON object with
/// stable keys for scripts and the doctor CLI's `--json` mode. Keys
/// are part of the tool's contract — new keys may be added, existing
/// ones are never renamed or removed.
pub fn diagnose_json(inc: &Incident) -> String {
    let mut obj = vec![
        ("schema_version".to_string(), Json::Num(1.0)),
        ("incident_kind".to_string(), Json::Str(inc.kind.name().to_string())),
        ("seq".to_string(), Json::Num(inc.seq as f64)),
        ("stmt_kind".to_string(), Json::Str(inc.stmt_kind.clone())),
        ("stmt_hash".to_string(), Json::Str(inc.stmt_hash.clone())),
        ("dur_ns".to_string(), Json::Num(inc.dur_ns as f64)),
        ("error".to_string(), inc.error.clone().map(Json::Str).unwrap_or(Json::Null)),
    ];
    obj.extend(json_analysis(
        &inc.events,
        inc.attribution.as_ref(),
        Some(inc.kind),
        incident_class(inc),
    ));
    obj.push((
        "metrics_delta".to_string(),
        Json::Obj(
            inc.metrics_delta
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                .collect(),
        ),
    ));
    Json::Obj(obj).write()
}

/// Machine-readable counterpart of [`diagnose_live`]: same analysis
/// keys as [`diagnose_json`], minus the incident metadata.
pub fn diagnose_live_json(journal: &Journal, attribution: Option<&Ledger>) -> String {
    let mut obj = vec![
        ("schema_version".to_string(), Json::Num(1.0)),
        ("incident_kind".to_string(), Json::Null),
        ("events".to_string(), Json::Num(journal.events.len() as f64)),
    ];
    obj.extend(json_analysis(journal, attribution, None, last_outcome(journal)));
    Json::Obj(obj).write()
}

/// Analysis keys shared by [`diagnose_json`] and
/// [`diagnose_live_json`]: fault class, failing/dominant source,
/// the governor's peak, and the diagnosis sentence.
fn json_analysis(
    events: &Journal,
    attribution: Option<&Ledger>,
    kind: Option<IncidentKind>,
    error: Option<FaultClass>,
) -> Vec<(String, Json)> {
    let class = classify(kind, error, events);
    let source = failing_source(events, attribution);
    let dominant = dominant_source(attribution, &Ledger::fold(&events.events));
    let subject = subject_for(source.as_deref());
    let mut out = vec![
        ("fault_class".to_string(), Json::Str(class.name().to_string())),
        ("failing_source".to_string(), source.map(Json::Str).unwrap_or(Json::Null)),
        (
            "dominant_source".to_string(),
            match &dominant {
                Some((label, bytes)) => Json::Obj(vec![
                    ("label".to_string(), Json::Str(label.clone())),
                    ("bytes".to_string(), Json::Num(*bytes as f64)),
                ]),
                None => Json::Null,
            },
        ),
        (
            "governor".to_string(),
            match attribution {
                Some(l) => Json::Obj(vec![
                    ("peak_bytes".to_string(), Json::Num(l.governor_peak_bytes as f64)),
                ]),
                None => Json::Null,
            },
        ),
    ];
    out.push(("diagnosis".to_string(), Json::Str(advice_for(class, error.is_some(), &subject, events))));
    out
}

/// Dominant cost source: prefer the statement's own attribution
/// ledger, fall back to the one the event window folds to.
fn dominant_source(attribution: Option<&Ledger>, folded: &Ledger) -> Option<(String, u64)> {
    let of = |l: &Ledger| l.dominant_source().map(|(s, c)| (s.to_string(), c.total_bytes()));
    attribution.and_then(of).or_else(|| of(folded))
}

/// The `diagnosis: …` sentence for a classified fault. `subject` is
/// either ``source `<label>` `` or "the statement". A checksum mismatch
/// in the window of a statement that did not fail — a retry read clean
/// bytes — is named too: it is a flaky read path worth knowing about.
fn advice_for(class: FaultClass, failed: bool, subject: &str, events: &Journal) -> String {
    use ErrorClass::*;
    let mut advice = match class {
        FaultClass::Error(TransientIo) => format!(
            "diagnosis: {subject} hit transient I/O faults; retries were spent before the \
             outcome. If this recurs, raise the retry budget or investigate the backing store."
        ),
        FaultClass::Error(Corruption) => format!(
            "diagnosis: {subject} returned corrupt data (checksum mismatch). Retries cannot \
             fix corruption — verify the file on disk (`aqf`/NetCDF) and restore from a good copy."
        ),
        FaultClass::Error(ResourceExhausted) => format!(
            "diagnosis: {subject} exhausted a budget of the statement's `Limits` (`max_elems` \
             or `max_steps`). Raise the limit, or narrow the subslab so less is materialized."
        ),
        FaultClass::Error(Unavailable) => format!(
            "diagnosis: {subject} is unavailable — its reads fail persistently, or its circuit \
             breaker opened after repeated failures and calls fast-fail until the cooldown \
             elapses; check the backing store's health."
        ),
        FaultClass::Error(Deadline) => format!(
            "diagnosis: {subject} exceeded its deadline. Narrow the subslab, raise the limit, \
             or check whether cold reads (see the cost source above) dominated the wall time."
        ),
        FaultClass::Error(Cancelled) => {
            "diagnosis: the statement was cancelled or interrupted before completing.".to_string()
        }
        FaultClass::Error(Unsound) => {
            "diagnosis: the rewrite-soundness gate rejected an optimizer rule's output; the \
             error above names the rule. The storage layer is not involved."
                .to_string()
        }
        FaultClass::Error(TooDeep) => {
            "diagnosis: the statement, or a value it read, nests too deep for this thread's \
             stack; flatten it, or run it on a thread with more. The storage layer is not involved."
                .to_string()
        }
        FaultClass::Error(Error) => {
            "diagnosis: the statement failed with an ordinary error (the program, the request \
             or an extension — see the message above), not a storage, resource or limits fault."
                .to_string()
        }
        FaultClass::SlowQuery => format!(
            "diagnosis: no failure — {subject} was just slow. The dominant cost source above \
             shows where the bytes went; read a narrower subslab, or bind the source with a \
             larger cache budget."
        ),
        FaultClass::Healthy => {
            "diagnosis: nothing wrong — no errors, retries or breaker events recorded. The \
             session is healthy; there is nothing to diagnose."
                .to_string()
        }
        FaultClass::Unknown => format!(
            "diagnosis: no specific fault signature recognized for {subject}; inspect the \
             timeline and metrics deltas above."
        ),
    };
    if !failed && events.events.iter().any(|e| e.tag == Tag::ChecksumMismatch) {
        advice.push_str(
            " A chunk payload failed checksum verification on the way and a retry read clean \
             bytes; if that recurs, verify the file on disk.",
        );
    }
    advice
}

/// ``source `<label>` `` when a failing source is known, else "the
/// statement".
fn subject_for(source: Option<&str>) -> String {
    source
        .filter(|s| !s.is_empty())
        .map(|s| format!("source `{s}`"))
        .unwrap_or_else(|| "the statement".to_string())
}

fn body(
    events: &Journal,
    attribution: Option<&Ledger>,
    kind: Option<IncidentKind>,
    error: Option<FaultClass>,
) -> String {
    let mut out = String::new();

    // The statement's own ledger, or failing that the same fold run
    // over the event window.
    let folded = Ledger::fold(&events.events);
    match dominant_source(attribution, &folded) {
        Some((label, bytes)) => out.push_str(&format!(
            "dominant cost source: `{label}` ({bytes} B moved)\n"
        )),
        None => out.push_str("dominant cost source: none (no chunk bytes moved)\n"),
    }

    // Cache behavior per source.
    let (ledger, how) = match attribution {
        Some(l) => (l, "attributed"),
        None => (&folded, "from events"),
    };
    if !ledger.sources.is_empty() {
        out.push_str(&format!("cache behavior ({how}):\n"));
        for (label, c) in &ledger.sources {
            let shown = if label.is_empty() { "(unlabeled)" } else { label };
            let total = c.hits + c.chunks_loaded;
            let rate = if total > 0 { c.hits as f64 / total as f64 * 100.0 } else { 0.0 };
            out.push_str(&format!(
                "  {shown}: {:.0}% hit rate ({} hits / {} loads), {} B read, {} B prefetched, \
                 {} evictions, {} load errors, {} retries\n",
                rate,
                c.hits,
                c.chunks_loaded,
                c.bytes_read,
                c.prefetched_bytes,
                c.evictions,
                c.load_errors,
                c.retries
            ));
        }
    }
    if attribution.is_some() {
        out.push_str(&format!("governor: peak {} B in use\n", ledger.governor_peak_bytes));
    }

    push_timeline(&mut out, events);

    // Plain-language diagnosis.
    let class = classify(kind, error, events);
    let source = failing_source(events, attribution);
    out.push_str(&format!("fault class: {}\n", class.name()));
    let subject = subject_for(source.as_deref());
    out.push_str(&advice_for(class, error.is_some(), &subject, events));
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::SourceCounts;
    use crate::{intern, Record};

    fn ev(tag: Tag, label: u16, a: u64, b: u64, t_us: u64) -> Record {
        Record { thread: 1, epoch: t_us, t_us, tag, label, a, b }
    }

    /// An incident whose statement failed with `error` (message and
    /// class), or did not fail.
    fn incident_with(
        kind: IncidentKind,
        error: Option<(&str, ErrorClass)>,
        events: Vec<Record>,
        ledger: Option<Ledger>,
    ) -> Incident {
        Incident {
            kind,
            seq: 3,
            stmt_hash: "deadbeefdeadbeef".to_string(),
            stmt_kind: "query".to_string(),
            dur_ns: 2_000_000,
            error: error.map(|(message, _)| message.to_string()),
            class: error.map(|(_, class)| class),
            events: Journal { events },
            attribution: ledger,
            metrics_delta: vec![("aql_store_chunk_retries_total".to_string(), 2)],
        }
    }

    #[test]
    fn classifies_transient_io_with_failing_source() {
        let l = intern("netcdf:grid");
        let inc = incident_with(
            IncidentKind::Error,
            Some(("storage: chunk read failed after 3 attempts: injected transient fault", ErrorClass::TransientIo)),
            vec![ev(Tag::Retry, l, 1, 0, 10), ev(Tag::Retry, l, 2, 0, 20)],
            None,
        );
        let report = diagnose(&inc);
        assert!(report.contains("fault class: transient-io"), "{report}");
        assert!(report.contains("netcdf:grid"), "{report}");
        assert!(report.contains("retry attempt 2"), "{report}");
    }

    #[test]
    fn diagnose_json_golden() {
        let l = intern("netcdf:grid");
        let inc = incident_with(
            IncidentKind::Error,
            Some(("storage: chunk read failed after 3 attempts: injected transient fault", ErrorClass::TransientIo)),
            vec![ev(Tag::Retry, l, 1, 0, 10), ev(Tag::Retry, l, 2, 0, 20)],
            None,
        );
        let got = diagnose_json(&inc);
        let want = concat!(
            "{\"schema_version\":1,",
            "\"incident_kind\":\"error\",",
            "\"seq\":3,",
            "\"stmt_kind\":\"query\",",
            "\"stmt_hash\":\"deadbeefdeadbeef\",",
            "\"dur_ns\":2000000,",
            "\"error\":\"storage: chunk read failed after 3 attempts: injected transient fault\",",
            "\"fault_class\":\"transient-io\",",
            "\"failing_source\":\"netcdf:grid\",",
            "\"dominant_source\":null,",
            "\"governor\":null,",
            "\"diagnosis\":\"diagnosis: source `netcdf:grid` hit transient I/O faults; ",
            "retries were spent before the outcome. If this recurs, raise the retry ",
            "budget or investigate the backing store.\",",
            "\"metrics_delta\":{\"aql_store_chunk_retries_total\":2}}",
        );
        assert_eq!(got, want);
        // And it must be strict JSON our own parser accepts.
        let parsed = Json::parse(&got).expect("diagnose_json emits parseable JSON");
        assert_eq!(parsed.get("fault_class").and_then(Json::as_str), Some("transient-io"));
    }

    #[test]
    fn diagnose_json_reports_dominant_source_and_governor_from_ledger() {
        let counts = SourceCounts {
            chunks_loaded: 4,
            bytes_read: 4096,
            ..SourceCounts::default()
        };
        let ledger = Ledger {
            sources: vec![("aqf:sst".to_string(), counts)],
            governor_peak_bytes: 1 << 20,
            ..Ledger::default()
        };
        let inc = incident_with(IncidentKind::Slow, None, vec![], Some(ledger));
        let parsed = Json::parse(&diagnose_json(&inc)).expect("parseable");
        let dom = parsed.get("dominant_source").expect("dominant_source key");
        assert_eq!(dom.get("label").and_then(Json::as_str), Some("aqf:sst"));
        assert_eq!(dom.get("bytes").and_then(Json::as_u64), Some(4096));
        let gov = parsed.get("governor").expect("governor key");
        assert_eq!(gov.get("peak_bytes").and_then(Json::as_u64), Some(1 << 20));
        assert_eq!(parsed.get("fault_class").and_then(Json::as_str), Some("slow-query"));
        assert_eq!(parsed.get("error"), Some(&Json::Null));
    }

    #[test]
    fn diagnose_live_json_has_stable_shape() {
        let journal = Journal { events: vec![] };
        let parsed = Json::parse(&diagnose_live_json(&journal, None)).expect("parseable");
        assert_eq!(parsed.get("schema_version").and_then(Json::as_u64), Some(1));
        assert_eq!(parsed.get("incident_kind"), Some(&Json::Null));
        assert_eq!(parsed.get("events").and_then(Json::as_u64), Some(0));
        assert_eq!(parsed.get("fault_class").and_then(Json::as_str), Some("healthy"));
    }

    #[test]
    fn classifies_corruption_over_transient() {
        let inc = incident_with(
            IncidentKind::Error,
            Some(("storage: chunk checksum mismatch at chunk 4", ErrorClass::Corruption)),
            vec![ev(Tag::Retry, intern("aqf:blob"), 1, 0, 10)],
            None,
        );
        let report = diagnose(&inc);
        assert!(report.contains("fault class: corruption"), "{report}");
        assert!(report.contains("verify the file on disk"), "{report}");
    }

    #[test]
    fn classifies_breaker_and_limits() {
        let l = intern("remote:s3");
        let trip = incident_with(
            IncidentKind::BreakerTrip,
            None,
            vec![ev(Tag::BreakerTrip, l, 0, 0, 10)],
            None,
        );
        assert!(diagnose(&trip).contains("fault class: unavailable"));
        assert!(diagnose(&trip).contains("remote:s3"));

        let limit = incident_with(
            IncidentKind::ResourceExhausted,
            Some((
                "resource limit exceeded: 4096 elements requested, limit 1024",
                ErrorClass::ResourceExhausted,
            )),
            vec![],
            None,
        );
        let report = diagnose(&limit);
        assert!(report.contains("fault class: resource-exhausted"), "{report}");
        assert!(report.contains("`max_elems`"), "{report}");
    }

    #[test]
    fn slow_incidents_report_dominant_source_from_attribution() {
        let mut ledger = Ledger::default();
        ledger.sources.push((
            "netcdf:tas".to_string(),
            SourceCounts { hits: 5, chunks_loaded: 20, bytes_read: 1 << 20, ..Default::default() },
        ));
        ledger.sources.push((
            "mem:small".to_string(),
            SourceCounts { hits: 100, chunks_loaded: 1, bytes_read: 64, ..Default::default() },
        ));
        let inc = incident_with(IncidentKind::Slow, None, vec![], Some(ledger));
        let report = diagnose(&inc);
        assert!(report.contains("fault class: slow-query"), "{report}");
        assert!(
            report.contains("dominant cost source: `netcdf:tas`"),
            "{report}"
        );
        assert!(report.contains("20% hit rate"), "{report}");
        assert!(
            report.contains(
                "shows where the bytes went; read a narrower subslab, or bind the source with a \
                 larger cache budget."
            ),
            "{report}"
        );
    }

    #[test]
    fn live_diagnosis_reconstructs_cache_rows_from_events() {
        let l = intern("t_doc:live");
        let journal = Journal {
            events: vec![
                ev(Tag::CacheHit, l, 9, 0, 1),
                ev(Tag::CacheMiss, l, 4096, 0, 2),
                ev(Tag::CacheWarm, l, 8192, 0, 3),
            ],
        };
        let report = diagnose_live(&journal, None);
        assert!(report.contains("live journal: 3 events"), "{report}");
        assert!(report.contains("t_doc:live"), "{report}");
        assert!(report.contains("9 hits / 2 loads"), "{report}");
        assert!(report.contains("4096 B read, 8192 B prefetched"), "{report}");
        assert!(report.contains("dominant cost source: `t_doc:live` (12288 B moved)"), "{report}");
    }

    #[test]
    fn repaired_checksum_mismatch_is_visible_but_not_a_failure() {
        let l = intern("t_doc:flaky");
        let window = vec![ev(Tag::ChecksumMismatch, l, 0, 0, 10), ev(Tag::Retry, l, 2, 0, 20)];
        // The retry read clean bytes: the statement succeeded, and the
        // live report says what happened on the way.
        let report = diagnose_live(&Journal { events: window.clone() }, None);
        assert!(report.contains("checksum MISMATCH on a chunk of `t_doc:flaky`"), "{report}");
        assert!(report.contains("fault class: transient-io"), "{report}");
        assert!(report.contains("failed checksum verification"), "{report}");
        // The same window under a statement that failed: the class is
        // the error's, and nothing claims a retry read clean bytes.
        let inc = incident_with(
            IncidentKind::Error,
            Some(("storage: circuit open for `t_doc:flaky`", ErrorClass::Unavailable)),
            window,
            None,
        );
        let report = diagnose(&inc);
        assert!(report.contains("fault class: unavailable"), "{report}");
        assert!(!report.contains("read clean bytes"), "{report}");
    }

    #[test]
    fn an_error_is_classified_by_its_class_never_by_its_words() {
        // Messages that spell another class's vocabulary, and a window
        // that carries another class's signature.
        let window = vec![ev(Tag::Retry, intern("t_doc:words"), 2, 0, 10)];
        for message in [
            "type error: unbound variable `deadline`",
            "type error: unbound variable `interrupt`",
            "type error: unbound variable `checksum`",
            "type error: unbound variable `corrupt`",
            "type error: unbound variable `budget`",
        ] {
            let inc = incident_with(
                IncidentKind::Error,
                Some((message, ErrorClass::Error)),
                window.clone(),
                None,
            );
            let report = diagnose(&inc);
            assert!(report.contains("fault class: error\n"), "{message}: {report}");
            assert!(report.contains("ordinary error"), "{report}");
        }
        // A dump written before incidents carried a class.
        let mut old = incident_with(IncidentKind::Error, Some(("boom", ErrorClass::Error)), vec![], None);
        old.class = None;
        assert!(diagnose(&old).contains("fault class: unknown"));
    }

    #[test]
    fn a_live_window_takes_the_class_of_the_statement_that_ended_last() {
        let l = intern("t_doc:live-class");
        let end = |outcome: &str, t| ev(Tag::StmtEnd, intern(outcome), 1, 500, t);
        let failed = Journal { events: vec![ev(Tag::Retry, l, 2, 0, 1), end("deadline", 2)] };
        assert!(diagnose_live(&failed, None).contains("fault class: deadline"));
        // An `ok` ending is no class: the window speaks.
        let repaired = Journal { events: vec![ev(Tag::Retry, l, 2, 0, 1), end("ok", 2)] };
        assert!(diagnose_live(&repaired, None).contains("fault class: transient-io"));
        let clean = Journal { events: vec![end("deadline", 1), end("ok", 2)] };
        assert!(diagnose_live(&clean, None).contains("fault class: healthy"));
    }

    #[test]
    fn empty_journal_still_produces_a_report() {
        let report = diagnose_live(&Journal::default(), None);
        assert!(report.contains("dominant cost source: none"), "{report}");
        assert!(report.contains("timeline: no retries"), "{report}");
    }

    #[test]
    fn clean_session_is_diagnosed_healthy() {
        // A live window with only healthy traffic — cache hits and
        // warm loads, no retries/breakers/errors — must say "nothing
        // wrong", not "unrecognized fault".
        let l = intern("nc:clean");
        let journal = Journal {
            events: vec![
                ev(Tag::CacheHit, l, 40, 0, 1),
                ev(Tag::CacheWarm, l, 4096, 0, 2),
                ev(Tag::CacheHit, l, 12, 0, 3),
            ],
        };
        let report = diagnose_live(&journal, None);
        assert!(report.contains("fault class: healthy"), "{report}");
        assert!(report.contains("nothing wrong"), "{report}");
        assert!(report.contains("nothing to diagnose"), "{report}");
        // The empty journal is healthy too.
        let empty = diagnose_live(&Journal::default(), None);
        assert!(empty.contains("fault class: healthy"), "{empty}");

        // One retry in the window and the session is no longer clean.
        let journal = Journal { events: vec![ev(Tag::Retry, l, 1, 0, 1)] };
        let report = diagnose_live(&journal, None);
        assert!(!report.contains("fault class: healthy"), "{report}");
    }
}
