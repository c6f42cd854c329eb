//! The serve wire protocol: line-delimited JSON over stdin/stdout.
//!
//! One request per line in, one response per line out. Responses carry
//! the request's `id` and may complete out of order (cache hits overtake
//! queued recomputes); clients correlate by id. The environment has no
//! network stack to depend on, so the daemon speaks over its standard
//! streams — composable with `socat`/`nc -U` where a socket is wanted.
//!
//! Requests:
//!
//! ```json
//! {"id":1,"op":"discover","gpu":"T1000","mode":"fast"}
//! {"id":2,"op":"discover","gpu":"A100","scenario":"mig:2g.10gb","tlb":true}
//! {"id":3,"op":"stats"}
//! {"id":4,"op":"shutdown"}
//! ```
//!
//! A malformed line (bad JSON, missing/unknown `op`, unknown preset or
//! scenario or element) is answered with a structured error response —
//! never a panic, never a silent drop:
//!
//! ```json
//! {"id":1,"ok":false,"cached":false,"latency_ns":0,"error":{"code":"unknown_preset","message":"..."}}
//! ```
//!
//! A successful `discover` response embeds the canonical report bytes as
//! a JSON string — exactly what `mt4g --gpu … -q` prints (sans trailing
//! newline), whether the answer came from the cache (`"cached":true`) or
//! a fresh recompute.

use serde::{Deserialize, Serialize};

use mt4g_sim::device::CacheKind;
use mt4g_sim::scenario::Scenario;

use crate::suite::{DiscoveryConfig, JobSpec, Selection};

/// One request line. Every field is optional at the serde layer so that
/// field-level validation (and its error codes) stays in
/// [`Request::to_spec`] rather than being a parse failure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    #[serde(default)]
    pub id: u64,
    /// Operation: `discover`, `stats`, or `shutdown`.
    #[serde(default)]
    pub op: String,
    /// Preset name or alias (required for `discover`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub gpu: Option<String>,
    /// Scenario spec (`bare-metal` default, `mig:<profile>`, `hostile`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub scenario: Option<String>,
    /// `fast` (default) or `thorough` discovery configuration.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub mode: Option<String>,
    /// Also run the TLB-reach unit.
    #[serde(default)]
    pub tlb: bool,
    /// Also run the shared-L2 contention unit.
    #[serde(default)]
    pub contention: bool,
    /// Also run the replacement-policy unit.
    #[serde(default)]
    pub policy: bool,
    /// Restrict discovery to one element (CLI `--only` spellings).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub only: Option<String>,
}

/// A structured error: a stable machine-readable code plus a
/// human-readable message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ErrorBody {
    /// Stable error code: `bad_request`, `unknown_preset`,
    /// `bad_scenario`, `bad_element`, `queue_full`, or `internal`.
    pub code: String,
    /// Human-readable detail.
    pub message: String,
}

impl ErrorBody {
    /// Builds an error body from a code and message.
    pub fn new(code: &str, message: impl std::fmt::Display) -> ErrorBody {
        ErrorBody {
            code: code.to_string(),
            message: message.to_string(),
        }
    }
}

/// Aggregate serve-side counters, answered to a `stats` request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct ServeStats {
    /// Request lines received (all ops, including malformed lines).
    pub requests: u64,
    /// Discover requests answered from the cache.
    pub hits: u64,
    /// Discover requests that required a recompute.
    pub misses: u64,
    /// Discover requests coalesced onto an in-flight recompute of the
    /// same cell instead of spawning a duplicate.
    pub coalesced: u64,
    /// Discover requests rejected because the admission queue was full.
    pub rejected: u64,
    /// Lines answered with a `bad_request`-class error.
    pub bad_requests: u64,
    /// Entries currently stored in the result cache.
    pub cache_entries: u64,
    /// The result cache's entry-count bound.
    pub cache_capacity: u64,
    /// Entries evicted from the result cache since startup.
    pub cache_evictions: u64,
    /// Worker threads executing recomputes.
    pub workers: u64,
    /// Admission bound on in-flight (queued + running) jobs.
    pub queue_capacity: u64,
}

/// One response line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Response {
    /// The request's correlation id (0 when the line was too malformed
    /// to carry one).
    #[serde(default)]
    pub id: u64,
    /// Whether the request succeeded.
    #[serde(default)]
    pub ok: bool,
    /// Whether a `discover` answer came from the result cache.
    #[serde(default)]
    pub cached: bool,
    /// Whether the answer was coalesced onto another in-flight request
    /// for the same cell (one recompute served both).
    #[serde(default)]
    pub coalesced: bool,
    /// Service latency (admission to response construction), ns.
    #[serde(default)]
    pub latency_ns: u64,
    /// The answered cell's plan fingerprint (discover responses).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub fingerprint: Option<String>,
    /// The canonical report bytes (discover responses) — byte-identical
    /// to a cold batch run of the same cell.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub report: Option<String>,
    /// The error (when `ok` is false).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub error: Option<ErrorBody>,
    /// Counters (stats responses).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub stats: Option<ServeStats>,
}

impl Response {
    /// A successful discover response.
    pub fn report(id: u64, cached: bool, latency_ns: u64, fingerprint: &str, bytes: &str) -> Self {
        Response {
            id,
            ok: true,
            cached,
            latency_ns,
            fingerprint: Some(fingerprint.to_string()),
            report: Some(bytes.to_string()),
            ..Response::default()
        }
    }

    /// An error response.
    pub fn error(id: u64, error: ErrorBody) -> Self {
        Response {
            id,
            ok: false,
            error: Some(error),
            ..Response::default()
        }
    }

    /// A stats response.
    pub fn stats(id: u64, stats: ServeStats) -> Self {
        Response {
            id,
            ok: true,
            stats: Some(stats),
            ..Response::default()
        }
    }

    /// An acknowledgement without a payload (shutdown).
    pub fn ack(id: u64) -> Self {
        Response {
            id,
            ok: true,
            ..Response::default()
        }
    }
}

/// Parses one request line. Syntax errors come back as `bad_request`.
pub fn parse_request(line: &str) -> Result<Request, ErrorBody> {
    serde_json::from_str(line)
        .map_err(|e| ErrorBody::new("bad_request", format!("not a request: {e}")))
}

/// Best-effort id recovery from a line that failed to parse as a
/// [`Request`], so even malformed-request errors correlate when the
/// client at least sent `"id"`.
pub fn salvage_id(line: &str) -> u64 {
    use serde::Value;
    match serde_json::from_str_value(line) {
        Ok(Value::Object(fields)) => fields
            .iter()
            .find(|(k, _)| k == "id")
            .and_then(|(_, v)| match v {
                Value::U64(n) => Some(*n),
                Value::I64(n) if *n >= 0 => Some(*n as u64),
                _ => None,
            })
            .unwrap_or(0),
        _ => 0,
    }
}

impl Request {
    /// Validates a `discover` request into a [`JobSpec`], mapping each
    /// failure mode to its stable error code. `job_threads` becomes the
    /// per-job unit fan-out (the serve worker pool supplies inter-job
    /// parallelism, so workers default this to 1).
    pub fn to_spec(&self, job_threads: usize) -> Result<JobSpec, ErrorBody> {
        let Some(gpu) = self.gpu.as_deref() else {
            return Err(ErrorBody::new(
                "bad_request",
                "discover needs a \"gpu\" field",
            ));
        };
        let scenario = match self.scenario.as_deref() {
            None => Scenario::BareMetal,
            Some(s) => Scenario::parse(s).map_err(|e| ErrorBody::new("bad_scenario", e))?,
        };
        let mut cfg = match self.mode.as_deref() {
            None | Some("fast") => DiscoveryConfig::fast(),
            Some("thorough") => DiscoveryConfig::thorough(),
            Some(other) => {
                return Err(ErrorBody::new(
                    "bad_request",
                    format!("unknown mode '{other}' (expected 'fast' or 'thorough')"),
                ))
            }
        };
        cfg.measure_tlb = self.tlb;
        cfg.measure_contention = self.contention;
        cfg.measure_policy = self.policy;
        cfg.jobs = job_threads;
        if let Some(only) = self.only.as_deref() {
            match CacheKind::parse(only) {
                Some(kind) => cfg.only = Some(vec![kind]),
                None => {
                    return Err(ErrorBody::new(
                        "bad_element",
                        format!("unknown element '{only}'"),
                    ))
                }
            }
        }
        Ok(JobSpec {
            gpu: gpu.to_string(),
            scenario,
            cfg,
            selection: Selection::Full,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_through_json() {
        let req = Request {
            id: 7,
            op: "discover".into(),
            gpu: Some("A100".into()),
            scenario: Some("mig:2g.10gb".into()),
            mode: Some("fast".into()),
            tlb: true,
            contention: false,
            policy: true,
            only: None,
        };
        let json = serde_json::to_string(&req).unwrap();
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn minimal_request_defaults_are_lenient() {
        let req = parse_request(r#"{"op":"discover","gpu":"T1000"}"#).unwrap();
        assert_eq!(req.id, 0);
        assert!(!req.tlb);
        let spec = req.to_spec(1).unwrap();
        assert_eq!(spec.gpu, "T1000");
        assert_eq!(spec.scenario, Scenario::BareMetal);
        // Fields the protocol does not define are ignored, so a client
        // that still sends an arrival `offset_us` keeps parsing.
        let extra = r#"{"op":"discover","gpu":"T1000","offset_us":1500}"#;
        assert_eq!(parse_request(extra).unwrap(), req);
    }

    #[test]
    fn malformed_lines_become_bad_request_errors() {
        assert_eq!(parse_request("not json").unwrap_err().code, "bad_request");
        assert_eq!(parse_request("[1,2,3]").unwrap_err().code, "bad_request");
    }

    #[test]
    fn salvage_id_recovers_what_it_can() {
        assert_eq!(salvage_id(r#"{"id": 42, "op": 13}"#), 42);
        assert_eq!(salvage_id("not json"), 0);
        assert_eq!(salvage_id(r#"{"id": "seven"}"#), 0);
    }

    #[test]
    fn to_spec_maps_each_failure_to_its_code() {
        let base = Request {
            op: "discover".into(),
            gpu: Some("T1000".into()),
            ..Request::default()
        };
        assert_eq!(
            Request {
                gpu: None,
                ..base.clone()
            }
            .to_spec(1)
            .unwrap_err()
            .code,
            "bad_request"
        );
        assert_eq!(
            Request {
                scenario: Some("adversarial".into()),
                ..base.clone()
            }
            .to_spec(1)
            .unwrap_err()
            .code,
            "bad_scenario"
        );
        assert_eq!(
            Request {
                mode: Some("warp-speed".into()),
                ..base.clone()
            }
            .to_spec(1)
            .unwrap_err()
            .code,
            "bad_request"
        );
        assert_eq!(
            Request {
                only: Some("l9".into()),
                ..base
            }
            .to_spec(1)
            .unwrap_err()
            .code,
            "bad_element"
        );
    }
}
