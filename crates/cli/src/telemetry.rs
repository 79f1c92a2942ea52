//! The one telemetry lifecycle of `watch`, `fuzz` and `serve`. They
//! take the same five flags ([`TelemetryOpts::FLAGS`], one parser, so
//! defaults and errors cannot drift) and run the same three steps:
//!
//! 1. bring-up ([`TelemetryOpts::bring_up`]): the registry (the
//!    always-on flight recorder), the panic flight dump, the event sink
//!    and the round [`Status`];
//! 2. listen ([`Observer::listen`]), a step of its own so `serve` builds
//!    its daemon before the first request can arrive;
//! 3. seal ([`Observer::seal`]), once per round: record the error, note
//!    the round on the [`Status`] (which keeps the round-delta
//!    baseline), emit `<cmd>.baseline` / `<cmd>.round` and rewrite
//!    `--metrics-json` — so the totals line, the file, `/metrics` and
//!    the event stream cannot drift apart between commands.

use crate::{flag_value, positive};
use obs::http::{Handler, Status, TelemetryServer};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
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

/// A brought-up telemetry stack: the installed registry, the shared
/// round status and the flags it was brought up from.
pub(crate) struct Observer {
    pub(crate) reg: Arc<obs::Registry>,
    pub(crate) status: Arc<Status>,
    pub(crate) opts: TelemetryOpts,
    /// `<cmd>`: prefixes the listening line.
    cmd: &'static str,
    /// `<cmd>.baseline` and `<cmd>.round`, the sealed rounds' events.
    events: [&'static str; 2],
    /// Held from the note to the file rewrite: `serve` seals tenant
    /// rounds from several workers, and a slower writer must not rename
    /// an older document over a newer one.
    sealing: Mutex<()>,
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

    /// Bring the stack up for command `cmd`: install the always-on
    /// flight recorder and its panic dump, attach the event sink and
    /// create the round status. Nothing listens yet; see
    /// [`Observer::listen`].
    pub(crate) fn bring_up(self, cmd: &'static str) -> Result<Observer, String> {
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
        // Event targets are `&'static str`: one small allocation per
        // process names this command's two.
        let event = |kind: &str| -> &'static str { format!("{cmd}.{kind}").leak() };
        Ok(Observer {
            reg,
            status: Status::new(self.stale_after),
            opts: self,
            cmd,
            events: [event("baseline"), event("round")],
            sealing: Mutex::new(()),
        })
    }
}

impl Observer {
    /// Start the listener when `--listen` was given. `handler` (the
    /// API, for `serve`) is mounted beside the built-in endpoints and
    /// `max_conns` bounds concurrent connections. The listener runs
    /// until the returned server drops.
    pub(crate) fn listen(
        &self,
        handler: Option<Handler>,
        max_conns: usize,
    ) -> Result<Option<TelemetryServer>, String> {
        let Some(addr) = &self.opts.listen else {
            return Ok(None);
        };
        let server = obs::http::serve_with(
            addr,
            self.reg.clone(),
            self.status.clone(),
            handler,
            max_conns,
        )
        .map_err(|e| format!("cannot listen on {addr}: {e}"))?;
        // The log is not the product: a reader that already left (a
        // supervisor reading only the port) is ignored.
        let _ = crate::log_stdout(&format!(
            "{}: listening on http://{}\n",
            self.cmd,
            server.addr()
        ));
        Ok(Some(server))
    }

    /// Seal a round — the baseline (round zero, no round number burned)
    /// or the next round, verified, violated or rejected (`err`) — and
    /// return the round count. The one place any command counts a
    /// round: every surface that shows the count reads it from here.
    pub(crate) fn seal(
        &self,
        baseline: bool,
        ok: bool,
        elapsed: Duration,
        err: Option<&str>,
    ) -> u64 {
        // The lock guards no data, so a poisoned one is still sound.
        let _sealing = self
            .sealing
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(e) = err {
            self.reg.record_error(e);
        }
        let verdict = if ok { "pass" } else { "fail" };
        let n = if baseline {
            self.status.note_baseline(ok, elapsed, &self.reg);
            obs::event!(
                info,
                self.events[0],
                verdict = verdict,
                solves = self.status.last_round_counter("smt.solves"),
            );
            self.status.rounds()
        } else {
            let n = self.status.note_round(ok, elapsed, &self.reg);
            obs::event!(info, self.events[1], round = n, verdict = verdict);
            n
        };
        // Through the same renderer `/metrics` serves, so a poll of
        // either sees identical bytes.
        if let Some(path) = &self.opts.metrics_json {
            if let Err(e) = obs::http::write_status_file(path, &self.status, &self.reg) {
                eprintln!("warning: cannot write metrics to {path:?}: {e}");
            }
        }
        n
    }

    /// Dump the flight recorder (post-mortems need no re-run).
    pub(crate) fn dump_flight(&self) {
        obs::dump_flight(&self.opts.flight_json);
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
