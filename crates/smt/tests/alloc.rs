//! Building and blasting terms allocates nothing once a pool and a
//! session have grown to the size of the work: an `and` / `or` node
//! holds a run of the pool's operand arena, not a vector of its own, so
//! a cleared pool rebuilds a group's terms — and a reset session blasts
//! them — inside the capacity the previous group left behind.
//!
//! A counting global allocator counts the allocations this test's own
//! thread makes while counting is switched on.

use smt::{IncrementalSession, Term, TermId, TermPool, VarKey};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// A term is plain data: no node owns a heap allocation.
const _: fn() = || {
    fn copy<T: Copy>() {}
    copy::<Term>();
};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note() {
    if COUNTING.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.load(Ordering::Relaxed) - before
}

const TERMS: usize = 10_000;

/// At least [`TERMS`] new `and2` / `or2` / boolean `ite` terms over 64
/// keyed variables, chained so that hash-consing finds few of them.
/// `vars` is the caller's, so a counted run allocates nothing of the
/// test's own.
fn build(pool: &mut TermPool, vars: &mut Vec<TermId>) -> TermId {
    let scope = pool.scope("r");
    vars.clear();
    vars.extend((0..64).map(|i| pool.bool_var_at(VarKey::indexed(scope, "v", i))));
    let mut acc = vars[0];
    for i in 0..TERMS {
        let (a, b) = (vars[i % 61], vars[(7 * i + 3) % 64]);
        acc = match i % 3 {
            0 => pool.and2(acc, a),
            1 => pool.or2(acc, b),
            _ => pool.ite(a, acc, b),
        };
    }
    acc
}

#[test]
fn a_warm_pool_and_session_build_and_blast_without_allocating() {
    let mut sess = IncrementalSession::new();
    let mut vars = Vec::new();
    // Warm-up: the pool, the blaster and their tables grow to size.
    let root = build(sess.pool_mut(), &mut vars);
    sess.assert(root);
    let terms = sess.pool().len();
    assert!(terms >= TERMS, "{terms} terms");

    let mut again = None;
    let n = allocations(|| {
        sess.reset();
        let root = build(sess.pool_mut(), &mut vars);
        sess.assert(root);
        again = Some(root);
    });
    assert_eq!(
        (again, sess.pool().len()),
        (Some(root), terms),
        "the second build is the first one"
    );
    assert_eq!(n, 0, "{n} allocations building and blasting {terms} terms");
}
