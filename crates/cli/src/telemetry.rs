//! The one place the daemon-grade telemetry flags are parsed and
//! brought up. `watch`, `fuzz` and `serve` all accept the same five
//! flags — `--listen`, `--metrics-json`, `--events-jsonl`,
//! `--flight-json`, `--stale-after-ms` — and used to each re-implement
//! the parsing and wiring; [`TelemetryOpts::parse`] is now the single
//! parser and [`TelemetryOpts::start`] the single bring-up, so the
//! flags cannot drift apart in defaults or error messages.

use crate::{flag_value, positive};
use obs::http::{Handler, Status, TelemetryServer};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Parsed telemetry flags, defaults applied.
pub(crate) struct TelemetryOpts {
    /// `--listen <addr>`: serve `/metrics`, `/healthz`, `/trace` (and,
    /// for `serve`, the API) on this address.
    pub(crate) listen: Option<String>,
    /// `--metrics-json <path>`: atomically rewrite the status document
    /// after every round.
    pub(crate) metrics_json: Option<PathBuf>,
    /// `--events-jsonl <path>`: append the structured event stream.
    pub(crate) events_jsonl: Option<PathBuf>,
    /// `--flight-json <path>` (default `flight.json`): the always-on
    /// flight recorder's dump target.
    pub(crate) flight_json: PathBuf,
    /// `--stale-after-ms <n>`: `/healthz` answers 503 after this much
    /// round silence.
    pub(crate) stale_after: Option<Duration>,
}

/// A running telemetry stack: the installed registry, the shared round
/// status, and the HTTP listener when one was requested.
pub(crate) struct ActiveTelemetry {
    pub(crate) reg: Arc<obs::Registry>,
    pub(crate) status: Arc<Status>,
    pub(crate) server: Option<TelemetryServer>,
}

impl TelemetryOpts {
    /// The value-taking flags this module owns (each consumes one
    /// argument). Front-ends add these to the value flags of their
    /// [`positionals`](crate::positionals) scan.
    pub(crate) const FLAGS: [&'static str; 5] = [
        "--listen",
        "--metrics-json",
        "--events-jsonl",
        "--flight-json",
        "--stale-after-ms",
    ];

    /// Parse the shared flags out of `args`. Explicit flags win over
    /// defaults; the only default is `flight.json` for the always-on
    /// flight recorder.
    pub(crate) fn parse(args: &[String]) -> Result<TelemetryOpts, String> {
        let stale_after = positive(args, "--stale-after-ms")?;
        Ok(TelemetryOpts {
            listen: flag_value(args, "--listen"),
            metrics_json: flag_value(args, "--metrics-json").map(PathBuf::from),
            events_jsonl: flag_value(args, "--events-jsonl").map(PathBuf::from),
            flight_json: PathBuf::from(
                flag_value(args, "--flight-json").unwrap_or_else(|| "flight.json".into()),
            ),
            stale_after: stale_after.map(|ms| Duration::from_millis(ms as u64)),
        })
    }

    /// Bring the stack up: install the always-on flight recorder,
    /// attach the event sink, and start the listener when `--listen`
    /// was given. `label` prefixes the listening line; `handler` (the
    /// API, for `serve`) is mounted beside the built-in endpoints and
    /// `max_conns` bounds concurrent connections.
    pub(crate) fn start(
        &self,
        label: &str,
        handler: Option<Handler>,
        max_conns: usize,
    ) -> Result<ActiveTelemetry, String> {
        // The flight recorder is always on: the registry install is the
        // whole cost when nothing else is requested (bounded rings, one
        // uncontended atomic per event).
        let reg = obs::install();
        obs::install_panic_flight(&self.flight_json);
        if let Some(path) = &self.events_jsonl {
            let sink = obs::ExportSink::create(path, obs::ExportSink::DEFAULT_MAX_BYTES)
                .map_err(|e| format!("cannot create event log {path:?}: {e}"))?;
            reg.set_export(Some(Arc::new(sink)));
        }
        let status = Status::new(self.stale_after);
        let server = match &self.listen {
            Some(addr) => {
                let s =
                    obs::http::serve_with(addr, reg.clone(), status.clone(), handler, max_conns)
                        .map_err(|e| format!("cannot listen on {addr}: {e}"))?;
                // The log is not the product: a reader that already
                // left (a supervisor reading only the port) is ignored.
                let _ = crate::log_stdout(&format!("{label}: listening on http://{}\n", s.addr()));
                Some(s)
            }
            None => None,
        };
        Ok(ActiveTelemetry {
            reg,
            status,
            server,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_apply_without_flags() {
        let o = TelemetryOpts::parse(&args(&[])).unwrap();
        assert_eq!(o.listen, None);
        assert_eq!(o.metrics_json, None);
        assert_eq!(o.events_jsonl, None);
        assert_eq!(o.flight_json, PathBuf::from("flight.json"));
        assert_eq!(o.stale_after, None);
    }

    #[test]
    fn explicit_flags_take_precedence_over_defaults() {
        let o = TelemetryOpts::parse(&args(&[
            "--listen",
            "127.0.0.1:0",
            "--metrics-json",
            "m.json",
            "--events-jsonl",
            "e.jsonl",
            "--flight-json",
            "custom-flight.json",
            "--stale-after-ms",
            "1500",
        ]))
        .unwrap();
        assert_eq!(o.listen.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(o.metrics_json, Some(PathBuf::from("m.json")));
        assert_eq!(o.events_jsonl, Some(PathBuf::from("e.jsonl")));
        assert_eq!(o.flight_json, PathBuf::from("custom-flight.json"));
        assert_eq!(o.stale_after, Some(Duration::from_millis(1500)));
    }

    #[test]
    fn stale_after_rejects_junk_with_a_precise_message() {
        for bad in ["abc", "0", "-3", "1.5"] {
            let err = TelemetryOpts::parse(&args(&["--stale-after-ms", bad]))
                .err()
                .expect("junk must be rejected");
            assert_eq!(
                err, "--stale-after-ms needs a positive integer",
                "input {bad:?}"
            );
        }
    }

    #[test]
    fn strict_flag_helper_covers_exactly_the_shared_flags() {
        let scan = |flag: &str| {
            crate::positionals("fuzz", &args(&[flag, "v"]), &TelemetryOpts::FLAGS, &[], 0)
        };
        for f in TelemetryOpts::FLAGS {
            assert_eq!(scan(f), Ok(vec![]), "{f} must be recognized");
        }
        for f in ["--interval-ms", "--cache-dir"] {
            assert_eq!(scan(f), Err(format!("unknown fuzz option {f}")));
        }
    }
}
