//! The NDJSON request protocol: what one input line means.
//!
//! Batch files and socket connections speak the same protocol, one JSON
//! object per line: a job (see [`JobSpec`]), `{"cancel": "<id>"}`,
//! `{"metrics"}`, `{"dump"}` or `{"shutdown": true}`. [`classify`] turns
//! a line into a [`Request`] or into the rendered `status: error` result
//! line that answers it.

use std::time::Instant;

use ultra_obs::flight::FlightLevel;

use crate::json::{parse_object, Json};
use crate::obs::JobPhase;
use crate::spec::JobSpec;
use crate::{elapsed_us, error_line, Server};

/// What one protocol line asked for.
#[derive(Debug)]
pub enum Request {
    /// A job to enqueue (boxed: a spec is far larger than the other
    /// requests).
    Job(Box<JobSpec>),
    /// A blank line, comment, or control line already acted on.
    Control,
    /// A `{"shutdown": true}` request (socket mode drains and exits; in
    /// a batch the end of file is the shutdown, so it is a no-op there).
    Shutdown,
    /// A `{"metrics"}` request for the Prometheus exposition.
    Metrics,
    /// A `{"dump"}` request for the flight recorder's contents.
    Dump,
}

/// Parses one protocol line, applying `{"cancel": ...}` control lines to
/// the server immediately. `Err` carries a rendered error result line.
fn parse_line(server: &Server, line: &str, lineno: usize) -> Result<Request, String> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(Request::Control);
    }
    // Bare control literals — accepted before JSON parsing because the
    // brace-only shorthand is not a valid JSON object.
    if trimmed == "{\"metrics\"}" {
        return Ok(Request::Metrics);
    }
    if trimmed == "{\"dump\"}" {
        return Ok(Request::Dump);
    }
    let fallback_id = format!("job-{lineno}");
    let obj = match parse_object(trimmed) {
        Ok(obj) => obj,
        Err(e) => return Err(error_line(&fallback_id, &format!("parse error: {e}"))),
    };
    if let Some(target) = obj.get("cancel") {
        return match target.as_str() {
            Some(id) => {
                server.cancel(id);
                Ok(Request::Control)
            }
            None => Err(error_line(&fallback_id, "field `cancel` must be a job id")),
        };
    }
    if obj.get("metrics") == Some(&Json::Bool(true)) {
        return Ok(Request::Metrics);
    }
    if obj.get("dump") == Some(&Json::Bool(true)) {
        return Ok(Request::Dump);
    }
    if obj.get("shutdown") == Some(&Json::Bool(true)) {
        return Ok(Request::Shutdown);
    }
    match JobSpec::from_json(&obj, &fallback_id) {
        Ok(spec) => Ok(Request::Job(Box::new(spec))),
        Err(e) => Err(error_line(&fallback_id, &e)),
    }
}

/// Counts and logs a rejected protocol line and dumps the flight ring
/// for the post-mortem (no-op with observability off).
pub(crate) fn reject(server: &Server, lineno: usize, error: &str) {
    let Some(obs) = server.obs() else { return };
    obs.protocol_error();
    obs.log(
        FlightLevel::Error,
        "",
        "protocol",
        &format!("line {lineno} rejected: {error}"),
    );
    obs.dump_flight_to_stderr(&format!("protocol error on line {lineno}"));
}

/// Classifies line number `lineno` of a batch file or connection, with
/// parse-phase timing and protocol-error accounting when the server has
/// observability on. `Err` carries the rendered `status: error` result
/// line that answers the rejected input.
pub fn classify(server: &Server, line: &str, lineno: usize) -> Result<Request, String> {
    let parse_started = Instant::now();
    let request = parse_line(server, line, lineno);
    let parse_us = elapsed_us(parse_started);
    match &request {
        Ok(Request::Job(spec)) => {
            if let Some(obs) = server.obs() {
                obs.observe_phase(spec.workload.name(), JobPhase::Parse, 0, parse_us);
            }
        }
        Ok(_) => {}
        Err(error) => {
            if let Some(obs) = server.obs() {
                obs.observe_phase("invalid", JobPhase::Parse, 0, parse_us);
            }
            reject(server, lineno, error);
        }
    }
    request
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_every_request_shape() {
        let server = Server::new();
        let class = |line: &str| classify(&server, line, 7);
        assert!(matches!(class(""), Ok(Request::Control)));
        assert!(matches!(class("# a comment"), Ok(Request::Control)));
        assert!(matches!(class("{\"metrics\"}"), Ok(Request::Metrics)));
        assert!(matches!(class("{\"metrics\": true}"), Ok(Request::Metrics)));
        assert!(matches!(class("{\"dump\"}\r"), Ok(Request::Dump)));
        assert!(matches!(
            class("{\"shutdown\": true}"),
            Ok(Request::Shutdown)
        ));
        assert!(matches!(
            class("{\"cancel\": \"some-job\"}"),
            Ok(Request::Control)
        ));
        match class("{\"id\": \"j\", \"pes\": 4}") {
            Ok(Request::Job(spec)) => assert_eq!((spec.id.as_str(), spec.pes), ("j", 4)),
            other => panic!("expected a job, got {other:?}"),
        }
    }

    #[test]
    fn rejected_lines_render_an_error_result_named_after_the_line() {
        let server = Server::new();
        for bad in ["{\"id\": ", "{\"cancel\": 3}", "{\"pes\": \"many\"}"] {
            let error = classify(&server, bad, 7).expect_err(bad);
            assert!(error.contains("\"id\": \"job-7\""), "{error}");
            assert!(error.contains("\"status\": \"error\""), "{error}");
            assert!(!error.contains('\n'), "{error}");
        }
    }
}
