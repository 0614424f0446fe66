//! Incident dump pipeline.
//!
//! When a statement errs, exhausts its resource budget, trips a
//! circuit breaker, or crosses the slow-query threshold, the session
//! freezes the flight recorder's recent window plus the statement's
//! attribution ledger and the process metrics deltas into one
//! self-contained JSON file. The file carries everything `\doctor`
//! needs — no live process required.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use aql_trace::json::Json;

use crate::attr::Ledger;
use crate::Journal;

/// Incident file schema version. Bump on breaking layout changes.
pub const SCHEMA_VERSION: u64 = 1;

/// The class of a failed statement, the one vocabulary every view of a
/// failure speaks (DESIGN.md §12): the error value names it
/// (`LangError::class` → `EvalError::class` → `StoreError::error_class`);
/// the ring's `StmtEnd` label, the incident's `class` and `\doctor`
/// carry the name unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// A retryable read failure that outlasted its retry budget.
    TransientIo,
    /// Bytes that contradict their own metadata or checksum.
    Corruption,
    /// The source cannot be read: a persistent I/O failure, or its
    /// circuit breaker is open.
    Unavailable,
    /// A governor, element or step budget was exhausted.
    ResourceExhausted,
    /// The statement's deadline expired.
    Deadline,
    /// The statement was cancelled.
    Cancelled,
    /// The rewrite-soundness gate rejected the statement.
    Unsound,
    /// Any other failure: the program, the request or an extension.
    Error,
}

impl ErrorClass {
    /// Every class, in declaration order.
    pub const ALL: [ErrorClass; 8] = {
        use ErrorClass::*;
        [TransientIo, Corruption, Unavailable, ResourceExhausted, Deadline, Cancelled, Unsound, Error]
    };

    /// Stable name: the `StmtEnd` label, the incident's `class`, the
    /// doctor's `fault class:` line.
    pub fn name(self) -> &'static str {
        match self {
            ErrorClass::TransientIo => "transient-io",
            ErrorClass::Corruption => "corruption",
            ErrorClass::Unavailable => "unavailable",
            ErrorClass::ResourceExhausted => "resource-exhausted",
            ErrorClass::Deadline => "deadline",
            ErrorClass::Cancelled => "cancelled",
            ErrorClass::Unsound => "unsound",
            ErrorClass::Error => "error",
        }
    }

    /// Parse a name; `None` for anything else (`ok` included).
    pub fn from_name(name: &str) -> Option<ErrorClass> {
        ErrorClass::ALL.into_iter().find(|c| c.name() == name)
    }
}

/// Why an incident was dumped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncidentKind {
    /// The statement returned an error.
    Error,
    /// The statement failed on a governor/limits resource budget.
    ResourceExhausted,
    /// A circuit breaker tripped open during the statement.
    BreakerTrip,
    /// The statement crossed the slow-query threshold.
    Slow,
}

impl IncidentKind {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            IncidentKind::Error => "error",
            IncidentKind::ResourceExhausted => "resource_exhausted",
            IncidentKind::BreakerTrip => "breaker_trip",
            IncidentKind::Slow => "slow",
        }
    }

    /// Parse a wire name.
    pub fn from_name(name: &str) -> Option<IncidentKind> {
        use IncidentKind::*;
        [Error, ResourceExhausted, BreakerTrip, Slow].into_iter().find(|k| k.name() == name)
    }
}

/// One self-contained incident dump.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// Why the dump fired.
    pub kind: IncidentKind,
    /// Session statement sequence number.
    pub seq: u64,
    /// FNV-1a statement hash, rendered `{:016x}` (matches the slow
    /// log's `stmt_hash`).
    pub stmt_hash: String,
    /// Statement kind (`query`, `let`, …).
    pub stmt_kind: String,
    /// Statement wall time in nanoseconds.
    pub dur_ns: u64,
    /// The error message, when the outcome was an error.
    pub error: Option<String>,
    /// The error's class, when the outcome was an error (`None` also
    /// for a dump written before the member existed).
    pub class: Option<ErrorClass>,
    /// The flight recorder's last-N-events window at dump time.
    pub events: Journal,
    /// The statement's resource attribution ledger.
    pub attribution: Option<Ledger>,
    /// Process metrics that moved during the statement:
    /// `(series, delta)` pairs from the `aql-metrics` snapshot.
    pub metrics_delta: Vec<(String, u64)>,
}

impl Incident {
    /// The incident as a JSON value.
    pub fn to_json_value(&self) -> Json {
        Json::Obj(vec![
            (
                "schema_version".to_string(),
                Json::Num(SCHEMA_VERSION as f64),
            ),
            ("kind".to_string(), Json::Str(self.kind.name().to_string())),
            ("seq".to_string(), Json::Num(self.seq as f64)),
            ("stmt_hash".to_string(), Json::Str(self.stmt_hash.clone())),
            ("stmt_kind".to_string(), Json::Str(self.stmt_kind.clone())),
            ("dur_ns".to_string(), Json::Num(self.dur_ns as f64)),
            (
                "error".to_string(),
                match &self.error {
                    Some(e) => Json::Str(e.clone()),
                    None => Json::Null,
                },
            ),
            (
                "class".to_string(),
                match self.class {
                    Some(c) => Json::Str(c.name().to_string()),
                    None => Json::Null,
                },
            ),
            ("events".to_string(), self.events.to_json_value()),
            (
                "attribution".to_string(),
                match &self.attribution {
                    Some(l) => l.to_json_value(),
                    None => Json::Null,
                },
            ),
            (
                "metrics_delta".to_string(),
                Json::Obj(
                    self.metrics_delta
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Serialize to a JSON string.
    pub fn to_json(&self) -> String {
        self.to_json_value().write()
    }

    /// Rebuild an incident from [`Incident::to_json_value`] output.
    pub fn from_json_value(j: &Json) -> Result<Incident, String> {
        let version = j
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("incident: missing schema_version")?;
        if version > SCHEMA_VERSION {
            return Err(format!(
                "incident: schema_version {version} is newer than supported {SCHEMA_VERSION}"
            ));
        }
        let kind = j
            .get("kind")
            .and_then(Json::as_str)
            .and_then(IncidentKind::from_name)
            .ok_or("incident: bad kind")?;
        let events = match j.get("events") {
            Some(ev) => Journal::from_json_value(ev)?,
            None => Journal::default(),
        };
        let attribution = match j.get("attribution") {
            Some(Json::Null) | None => None,
            Some(a) => Some(Ledger::from_json_value(a)?),
        };
        let mut metrics_delta = Vec::new();
        if let Some(Json::Obj(fields)) = j.get("metrics_delta") {
            for (k, v) in fields {
                metrics_delta.push((k.clone(), v.as_u64().unwrap_or(0)));
            }
        }
        let text = |key: &str| j.get(key).and_then(Json::as_str).map(str::to_string);
        Ok(Incident {
            kind,
            seq: j.get("seq").and_then(Json::as_u64).unwrap_or(0),
            stmt_hash: text("stmt_hash").unwrap_or_default(),
            stmt_kind: text("stmt_kind").unwrap_or_default(),
            dur_ns: j.get("dur_ns").and_then(Json::as_u64).unwrap_or(0),
            error: text("error"),
            class: text("class").as_deref().and_then(ErrorClass::from_name),
            events,
            attribution,
            metrics_delta,
        })
    }

    /// Parse an incident from a JSON string.
    pub fn from_json(text: &str) -> Result<Incident, String> {
        Incident::from_json_value(&Json::parse(text)?)
    }

    /// Load an incident file from disk.
    pub fn load(path: &Path) -> Result<Incident, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("incident: read {}: {e}", path.display()))?;
        Incident::from_json(&text)
    }

    /// The incident's canonical file name:
    /// `incident-<seq>-<stmt_hash>-<kind>.json`.
    pub fn file_name(&self) -> String {
        format!(
            "incident-{:06}-{}-{}.json",
            self.seq,
            self.stmt_hash,
            self.kind.name()
        )
    }

    /// Write the incident into `dir` (created if missing), returning
    /// the file path.
    pub fn write_to(&self, dir: &Path) -> Result<PathBuf, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("incident: mkdir {}: {e}", dir.display()))?;
        let path = dir.join(self.file_name());
        let mut file = std::fs::File::create(&path)
            .map_err(|e| format!("incident: create {}: {e}", path.display()))?;
        file.write_all(self.to_json().as_bytes())
            .map_err(|e| format!("incident: write {}: {e}", path.display()))?;
        Ok(path)
    }
}

/// List incident files in `dir`, newest first (by file name, which
/// sorts by statement sequence). Missing directory → empty list.
pub fn list_incidents(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| {
                    p.extension().and_then(|x| x.to_str()) == Some("json")
                        && p.file_name()
                            .and_then(|n| n.to_str())
                            .is_some_and(|n| n.starts_with("incident-"))
                })
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files.reverse();
    files
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{Ledger, SourceCounts};
    use crate::{Record, Tag};

    fn sample() -> Incident {
        let mut ledger = Ledger::default();
        ledger.sources.push((
            "netcdf:tas".to_string(),
            SourceCounts { chunks_loaded: 2, bytes_read: 8192, retries: 3, ..Default::default() },
        ));
        Incident {
            kind: IncidentKind::Error,
            seq: 7,
            stmt_hash: "00c0ffee00c0ffee".to_string(),
            stmt_kind: "query".to_string(),
            dur_ns: 1_000_000,
            error: Some("storage: injected transient fault".to_string()),
            class: Some(ErrorClass::TransientIo),
            events: Journal {
                events: vec![Record {
                    thread: 1,
                    epoch: 1,
                    t_us: 5,
                    tag: Tag::Retry,
                    label: crate::intern("netcdf:tas"),
                    a: 1,
                    b: 0,
                }],
            },
            attribution: Some(ledger),
            metrics_delta: vec![("aql_store_chunk_retries_total".to_string(), 3)],
        }
    }

    #[test]
    fn classes_round_trip_and_a_dump_without_one_still_loads() {
        for c in ErrorClass::ALL {
            assert_eq!(ErrorClass::from_name(c.name()), Some(c));
        }
        assert_eq!(ErrorClass::from_name("ok"), None);
        let old = sample().to_json().replacen("\"class\":\"transient-io\",", "", 1);
        assert_eq!(Incident::from_json(&old).expect("parse").class, None);
    }

    #[test]
    fn kinds_round_trip() {
        for k in [
            IncidentKind::Error,
            IncidentKind::ResourceExhausted,
            IncidentKind::BreakerTrip,
            IncidentKind::Slow,
        ] {
            assert_eq!(IncidentKind::from_name(k.name()), Some(k));
        }
        assert_eq!(IncidentKind::from_name("nope"), None);
    }

    #[test]
    fn json_round_trips() {
        let inc = sample();
        let back = Incident::from_json(&inc.to_json()).expect("parse");
        assert_eq!(back, inc);
    }

    #[test]
    fn newer_schema_versions_are_rejected() {
        let text = sample()
            .to_json()
            .replacen("\"schema_version\":1", "\"schema_version\":999", 1);
        let err = Incident::from_json(&text).expect_err("must reject");
        assert!(err.contains("newer than supported"), "{err}");
    }

    #[test]
    fn write_load_and_list() {
        let dir = std::env::temp_dir().join(format!(
            "aql-incident-test-{}-{}",
            std::process::id(),
            "write_load_and_list"
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let inc = sample();
        let path = inc.write_to(&dir).expect("write");
        assert!(path.file_name().is_some_and(|n| n
            .to_str()
            .is_some_and(|n| n.starts_with("incident-000007-") && n.ends_with("-error.json"))));
        let back = Incident::load(&path).expect("load");
        assert_eq!(back, inc);
        let mut slow = sample();
        slow.kind = IncidentKind::Slow;
        slow.seq = 9;
        slow.write_to(&dir).expect("write slow");
        let listed = list_incidents(&dir);
        assert_eq!(listed.len(), 2);
        assert!(listed[0]
            .file_name()
            .is_some_and(|n| n.to_str().is_some_and(|n| n.contains("-000009-"))));
        assert!(list_incidents(&dir.join("missing")).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
