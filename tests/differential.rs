//! Differential tests: the verifier's guarantees hold on every trace the
//! concrete BGP simulator produces.
//!
//! The paper's correctness theorem (§4.3) quantifies over all valid
//! traces; the simulator generates concrete valid traces. If Lightyear
//! verifies an invariant assignment, every simulated event must satisfy
//! the invariant at its location — under randomized external
//! announcements, across the **full 2³ `SimOptions` grid** (loop
//! prevention × iBGP non-readvertisement × split horizon). Both walks are
//! the fuzz campaign's simulation oracle ([`fuzz::sim_oracle`]) on the
//! paper's two hand-built networks.
//!
//! The oracle also checks each property at its own location, and the
//! simulator records a `Recv` event for every route it delivers to an
//! external neighbor. The no-transit properties sit on the edge into the
//! external, so "ISP1's (E0's) routes never reach ISP2 (E1)" is checked
//! on every route of that edge's external RIB.

use fuzz::{sim_oracle, FamilyParams};

#[test]
fn figure1_invariants_hold_on_random_simulations() {
    let case = FamilyParams::Figure1.build();
    sim_oracle(&case, 0xbeef, 10).unwrap_or_else(|d| panic!("{d}"));
}

#[test]
fn fullmesh_invariants_hold_on_random_simulations() {
    let case = FamilyParams::FullMesh { n: 5 }.build();
    sim_oracle(&case, 42, 4).unwrap_or_else(|d| panic!("{d}"));
}
