//! The JSON request protocol: a `POST /run` body names a program, a
//! run spec, and optional report attachments.
//!
//! ```json
//! {
//!   "source": "fn main(n) { ... }",
//!   "ir": true,
//!   "mode": "heartbeat",
//!   "substrate": "sim",
//!   "cores": 4,
//!   "linux": false,
//!   "workers": 2,
//!   "heartbeat": 3000,
//!   "policy": "heartbeat/uniform",
//!   "heartbeat_source": "signal",
//!   "tier": "fast",
//!   "seed": 123,
//!   "step_limit": 200000000,
//!   "sets": { "n": 1000 },
//!   "include": ["trace", "profile", "metrics"]
//! }
//! ```
//!
//! Only `source` is required: everything else defaults to a
//! single-core simulator run of a TPAL-assembly program with the
//! service defaults. Integer fields accept either JSON numbers or
//! decimal strings (`"seed": "18446744073709551615"`), since u64 values
//! beyond 2⁵³ cannot travel exactly as JSON numbers through an f64
//! reader.

use tpal_core::tier::ExecTier;
use tpal_sched::{HeartbeatSource, Policy};
use tpal_trace::json::{escape, parse, Json};

use crate::engine::RunInclude;
use crate::spec::{ProgramSrc, RunSpec, Substrate};

/// A parsed `POST /run` request.
#[derive(Debug, Clone)]
pub struct RunRequest {
    /// The submitted program.
    pub src: ProgramSrc,
    /// The run configuration (canonicalized).
    pub spec: RunSpec,
    /// Requested report attachments.
    pub include: RunInclude,
}

/// Parses a `POST /run` JSON body.
///
/// # Errors
///
/// A description of the malformation: bad JSON, missing `source`,
/// unknown substrate/tier/policy names, or out-of-range integers.
pub fn parse_run_request(body: &str) -> Result<RunRequest, String> {
    let doc = parse(body).map_err(|e| format!("request body: {e}"))?;
    if !matches!(doc, Json::Obj(_)) {
        return Err("request body must be a JSON object".to_owned());
    }
    let source = doc
        .get("source")
        .and_then(Json::as_str)
        .ok_or_else(|| "request needs a string `source` field".to_owned())?
        .to_owned();
    let ir = match doc.get("ir") {
        None | Some(Json::Bool(false)) => false,
        Some(Json::Bool(true)) => true,
        Some(_) => return Err("`ir` must be a boolean".to_owned()),
    };
    let mode = match doc.get("mode") {
        None => "heartbeat".to_owned(),
        Some(Json::Str(s)) => s.clone(),
        Some(_) => return Err("`mode` must be a string".to_owned()),
    };
    let src = ProgramSrc { source, ir, mode };

    let substrate = match doc.get("substrate").and_then(Json::as_str) {
        None | Some("sim") => Substrate::Sim {
            cores: opt_u64(&doc, "cores")?.unwrap_or(1) as usize,
            linux: doc.get("linux") == Some(&Json::Bool(true)),
        },
        Some("rt") => Substrate::Rt {
            workers: opt_u64(&doc, "workers")?.unwrap_or(2) as usize,
        },
        Some(other) => return Err(format!("unknown substrate `{other}` (sim|rt)")),
    };
    let policy = match doc.get("policy").and_then(Json::as_str) {
        Some(label) => Policy::parse(label).map_err(|e| format!("`policy`: {e}"))?,
        None => match substrate {
            Substrate::Sim { .. } => Policy::default(),
            Substrate::Rt { .. } => Policy::parse("heartbeat/sequence").expect("static label"),
        },
    };
    let source = match doc.get("heartbeat_source") {
        None => HeartbeatSource::LocalTimer,
        Some(Json::Str(label)) => {
            if matches!(substrate, Substrate::Sim { .. }) {
                return Err(
                    "`heartbeat_source` needs the rt substrate (the simulator models \
                     delivery through `linux`)"
                        .to_owned(),
                );
            }
            HeartbeatSource::parse(label).ok_or_else(|| {
                format!("unknown heartbeat_source `{label}` (ping|local-timer|signal)")
            })?
        }
        Some(_) => return Err("`heartbeat_source` must be a string".to_owned()),
    };
    let tier = match doc.get("tier").and_then(Json::as_str) {
        Some(label) => {
            ExecTier::parse(label).ok_or_else(|| format!("unknown tier `{label}` (ref|fast)"))?
        }
        None => ExecTier::default(),
    };
    let mut sets = Vec::new();
    match doc.get("sets") {
        None => {}
        Some(Json::Obj(m)) => {
            for (name, v) in m {
                let v = match v {
                    Json::Num(n) if n.fract() == 0.0 => *n as i64,
                    Json::Str(s) => s.parse::<i64>().map_err(|e| format!("set `{name}`: {e}"))?,
                    _ => return Err(format!("set `{name}` must be an integer")),
                };
                sets.push((name.clone(), v));
            }
        }
        Some(_) => return Err("`sets` must be an object of integers".to_owned()),
    }
    let mut spec = RunSpec {
        substrate,
        heartbeat: opt_u64(&doc, "heartbeat")?,
        policy,
        source,
        tier,
        seed: opt_u64(&doc, "seed")?.unwrap_or(0xDEC0DE),
        step_limit: opt_u64(&doc, "step_limit")?,
        sets,
    };
    spec.canonicalize();

    let mut include = RunInclude::default();
    match doc.get("include") {
        None => {}
        Some(Json::Arr(items)) => {
            for item in items {
                match item.as_str() {
                    Some("trace") => include.trace = true,
                    Some("profile") => include.profile = true,
                    Some("metrics") => include.metrics = true,
                    _ => return Err("`include` entries must be trace|profile|metrics".to_owned()),
                }
            }
        }
        Some(_) => return Err("`include` must be an array of strings".to_owned()),
    }
    Ok(RunRequest { src, spec, include })
}

/// Reads an optional non-negative integer field, accepting either a
/// JSON number (if integral) or a decimal string.
fn opt_u64(doc: &Json, key: &str) -> Result<Option<u64>, String> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(Some(*n as u64)),
        Some(Json::Str(s)) => s
            .parse::<u64>()
            .map(Some)
            .map_err(|e| format!("`{key}`: {e}")),
        Some(_) => Err(format!("`{key}` must be a non-negative integer")),
    }
}

/// Renders the standard error body.
pub fn error_body(msg: &str) -> String {
    format!("{{\"error\":\"{}\",\"ok\":false}}", escape(msg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_request_defaults() {
        let req = parse_run_request(r#"{"source": "main: [.]\n    halt"}"#).unwrap();
        assert!(!req.src.ir);
        assert_eq!(
            req.spec.substrate,
            Substrate::Sim {
                cores: 1,
                linux: false
            }
        );
        assert_eq!(req.spec.seed, 0xDEC0DE);
        assert!(req.spec.heartbeat.is_none());
        assert_eq!(req.spec.source, HeartbeatSource::LocalTimer);
        assert!(!req.include.trace);
    }

    #[test]
    fn full_request_round_trips() {
        let req = parse_run_request(
            r#"{
                "source": "fn main(n) { return n; }",
                "ir": true,
                "mode": "serial",
                "substrate": "rt",
                "workers": 3,
                "heartbeat": 250,
                "policy": "eager/uniform",
                "heartbeat_source": "signal",
                "tier": "decoded",
                "seed": "18446744073709551615",
                "sets": { "n": 7, "m": "-3" }
            }"#,
        )
        .unwrap();
        assert!(req.src.ir);
        assert_eq!(req.src.mode, "serial");
        assert_eq!(req.spec.substrate, Substrate::Rt { workers: 3 });
        assert_eq!(req.spec.heartbeat, Some(250));
        assert_eq!(req.spec.policy.label(), "eager/uniform");
        assert_eq!(req.spec.source, HeartbeatSource::TimerSignal);
        // `decoded` is a former fast-tier name, still accepted.
        assert_eq!(req.spec.tier, ExecTier::Fast);
        assert_eq!(req.spec.seed, u64::MAX);
        assert_eq!(
            req.spec.sets,
            vec![("m".to_owned(), -3), ("n".to_owned(), 7)],
            "sets are canonicalized (sorted)"
        );
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for bad in [
            "",
            "[]",
            "{}",
            r#"{"source": 5}"#,
            r#"{"source": "x", "substrate": "gpu"}"#,
            r#"{"source": "x", "tier": "jit"}"#,
            r#"{"source": "x", "sets": {"n": 1.5}}"#,
            r#"{"source": "x", "include": ["flamegraph"]}"#,
            r#"{"source": "x", "substrate": "rt", "heartbeat_source": "smoke"}"#,
            r#"{"source": "x", "substrate": "rt", "heartbeat_source": 7}"#,
            r#"{"source": "x", "substrate": "sim", "heartbeat_source": "signal"}"#,
        ] {
            assert!(parse_run_request(bad).is_err(), "{bad:?} should fail");
        }
    }
}
