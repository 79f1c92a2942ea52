//! How a solve books its time in the observability sink. Alone in its
//! own test binary: the sink is process-global, and no other solve may
//! add to it while this one is read.

use smt::{solve_with_stats, TermPool};

/// A one-shot solve books its clause feed as encoding, like a session
/// does: `smt.encode_ns` is `smt.blast_ns` plus `smt.sync_ns`, and the
/// feed counts every clause of the query.
#[test]
fn one_shot_solve_books_its_feed_as_encoding() {
    let mut pool = TermPool::new();
    let x = pool.bv_var("x", 32);
    let y = pool.bv_var("y", 32);
    let sum = pool.bv_add(x, y);
    let c = pool.bv_const(12345, 32);
    let eq = pool.bv_eq(sum, c);

    let reg = obs::install();
    let (result, stats) = solve_with_stats(&pool, &[eq]);
    obs::uninstall();
    assert!(result.is_sat());

    let value = |name| reg.counter(name).value();
    assert_eq!(value("smt.solves"), 1);
    assert_eq!(value("smt.sync_clauses"), stats.num_clauses);
    assert!(value("smt.sync_ns") > 0, "the feed is booked");
    assert_eq!(
        value("smt.encode_ns"),
        value("smt.blast_ns") + value("smt.sync_ns"),
        "encode = bit-blast + clause feed"
    );
    assert_eq!(value("smt.encode_ns"), stats.encode_time.as_nanos() as u64);
}
