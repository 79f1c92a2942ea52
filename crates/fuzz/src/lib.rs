//! Differential fuzzing for the Lightyear verifier.
//!
//! The paper's correctness theorem quantifies over *all* valid traces of
//! *all* networks; the unit suites pin a handful of hand-built
//! topologies. This crate closes the gap adversarially:
//!
//! * [`families`] — every netgen family (Figure 1, the §6.2 full mesh, the
//!   §6.1 WAN, and the route-reflector / multi-homed-stub /
//!   hub-and-spoke additions) behind one case-generation interface,
//!   with provenance-keyed announcement plans (anycast-safe:
//!   `(prefix, origin ASN)`, not prefix alone);
//! * [`oracle`] — the cross-checks: simulated traces vs verified
//!   invariants over the full 2³ [`bgp_model::sim::SimOptions`] grid,
//!   byte-identity across the reference oracle, one worker, two
//!   workers and the cross-property batch, reverify-vs-fresh identity along
//!   random edit sequences, and injected-bug detection;
//! * [`minimize`] — greedy config / edit-sequence reduction re-running
//!   the failing oracle (the compat proptest shim has no shrinking),
//!   emitting replayable `repro.json` + `*.cfg` directories;
//! * [`campaign`] — the seeded campaign runner behind `lightyear fuzz`.

pub mod campaign;
pub mod families;
pub mod minimize;
pub mod oracle;

pub use campaign::{run_campaign, CampaignConfig, CampaignOutcome};
pub use families::{case_size, FamilyId, FamilyParams, FuzzCase, Suite};
pub use minimize::{minimize, read_repro, replay, rerun, write_repro, FailingCase};
pub use oracle::{
    bug_oracle, edit_oracle, injection_sample, parity_oracle, run_edit_sequence, sim_options_grid,
    sim_oracle, Discrepancy, OracleId,
};

thread_local! {
    /// Depth of nested [`try_quiet`] scopes on this thread.
    static QUIET_DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Run a closure that may panic (generator rebuilds on reduced configs
/// do, by design), suppressing the panic hook's stderr noise for the
/// duration. Returns `None` on panic.
///
/// The suppression is **per-thread and re-entrant**: the process hook
/// is replaced exactly once (wrapping the previous one) with a version
/// that consults a thread-local depth counter, so concurrent test
/// threads never race on hook installation and a panic on any *other*
/// thread still prints normally.
pub(crate) fn try_quiet<T>(f: impl FnOnce() -> T) -> Option<T> {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if QUIET_DEPTH.with(|d| d.get()) == 0 {
                prev(info);
            }
        }));
    });
    QUIET_DEPTH.with(|d| d.set(d.get() + 1));
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok();
    QUIET_DEPTH.with(|d| d.set(d.get() - 1));
    r
}
