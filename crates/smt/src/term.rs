//! Hash-consed term DAG for quantifier-free boolean + bitvector formulas.
//!
//! Terms are created through [`TermPool`] smart constructors, which apply
//! cheap local rewrites (constant folding, `not not x -> x`, flattening of
//! nested conjunctions/disjunctions, absorption of neutral elements). The
//! pool guarantees structural sharing: building the same term twice returns
//! the same [`TermId`], which keeps the bit-blasted CNF small when the same
//! sub-formula (e.g. a prefix-list match) appears in many checks.
//!
//! Construction is the engine's per-group fixed cost (every encoding
//! group builds its route variables and transfer relation afresh), so
//! it allocates only for what it keeps:
//!
//! * the hash-consing index maps a node's content hash — one multiply
//!   per word of ids and constants (`TermHasher`), not SipHash — to the
//!   node, and a lookup compares against the stored node, so a probe
//!   needs no owned key;
//! * `and` / `or` flatten their operands into a scratch buffer the pool
//!   owns and look the node up by a hash of that borrowed slice; a node
//!   that is new appends its operands to the pool's operand arena and
//!   holds their run ([`Ops`]), so no node owns a heap allocation and
//!   [`Term`] is `Copy`;
//! * a route variable is declared under a [`VarKey`] — a scope (the
//!   route's tag), an attribute and a position, all plain numbers — so
//!   declaring one formats, allocates and SipHashes nothing; its name is
//!   rendered only by [`TermPool::display`]. Free-form names
//!   ([`TermPool::bool_var`]) stay for everything else.
//!
//! [`TermPool::clear`] empties a pool but keeps its capacity for the
//! next group: it frees nothing per node.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// Identifier of a term inside a [`TermPool`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

impl fmt::Debug for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The sort (type) of a term.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Sort {
    /// A boolean.
    Bool,
    /// A bitvector of the given width (1..=64 bits).
    BitVec(u32),
}

impl Sort {
    /// Width of a bitvector sort; panics for `Bool`.
    pub fn width(self) -> u32 {
        match self {
            Sort::BitVec(w) => w,
            Sort::Bool => panic!("Sort::width called on Bool"),
        }
    }
}

/// The operands of an n-ary node: a run of the owning pool's operand
/// arena, read through [`TermPool::operands`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Ops {
    start: u32,
    len: u32,
}

impl Ops {
    fn of(self, arena: &[TermId]) -> &[TermId] {
        &arena[self.start as usize..(self.start + self.len) as usize]
    }
}

/// A term node. Children are [`TermId`]s into the owning pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Term {
    /// Boolean constant `true`.
    True,
    /// Boolean constant `false`.
    False,
    /// Free boolean variable (index into the pool's variable-name table).
    BoolVar(u32),
    /// Logical negation.
    Not(TermId),
    /// N-ary conjunction (flattened, at least 2 children).
    And(Ops),
    /// N-ary disjunction (flattened, at least 2 children).
    Or(Ops),
    /// If-then-else; branches may be booleans or same-width bitvectors.
    Ite(TermId, TermId, TermId),
    /// Bitvector constant (`value` is truncated to `width` bits).
    BvConst { width: u32, value: u64 },
    /// Free bitvector variable (index into variable-name table).
    BvVar { width: u32, name: u32 },
    /// Bitvector equality (produces a boolean).
    BvEq(TermId, TermId),
    /// Unsigned less-than (produces a boolean).
    BvUlt(TermId, TermId),
    /// Unsigned less-or-equal (produces a boolean).
    BvUle(TermId, TermId),
    /// Bitwise and.
    BvAnd(TermId, TermId),
    /// Modular addition.
    BvAdd(TermId, TermId),
}

fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Word-at-a-time multiplicative hasher (the FxHash recipe) for the
/// hash-consing index, the [`VarKey`] table and the verifier's id
/// tables. What it hashes the program itself builds — pool-local ids,
/// small constants, attribute names, addresses — which is where a
/// DoS-resistant hash buys nothing; free-form variable *names* may
/// derive from configuration text and keep the standard hasher.
#[derive(Clone, Copy, Default)]
pub struct TermHasher(u64);

impl TermHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for TermHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves its entropy in the high bits; the table
        // indexes buckets with the low ones.
        self.0.rotate_left(26)
    }
}

/// A hash map under [`TermHasher`], for keys the program builds.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<TermHasher>>;

/// End of a `same_hash` chain.
const NO_TERM: u32 = u32::MAX;

/// What a structured variable stands for: an attribute of a scope (a
/// symbolic route, named once through [`TermPool::scope`]), optionally
/// at a position within it (a community's universe index). The same key
/// always returns the same variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct VarKey {
    scope: u32,
    attr: &'static str,
    /// `u32::MAX` for a scalar attribute.
    pos: u32,
}

impl VarKey {
    /// A scalar attribute, rendered `scope.attr`.
    pub fn scalar(scope: u32, attr: &'static str) -> VarKey {
        VarKey {
            scope,
            attr,
            pos: u32::MAX,
        }
    }

    /// Position `pos` of an indexed attribute, rendered `scope.attr[pos]`.
    pub fn indexed(scope: u32, attr: &'static str, pos: usize) -> VarKey {
        let pos = u32::try_from(pos)
            .ok()
            .filter(|&p| p != u32::MAX)
            .expect("variable position fits in u32");
        VarKey { scope, attr, pos }
    }
}

/// How a variable was declared.
#[derive(Clone, Debug)]
enum VarName {
    /// Under a free-form name (shared with the key of `by_name`).
    Text(Arc<str>),
    /// Under a structured key.
    Key(VarKey),
}

/// Arena of hash-consed terms plus variable name tables.
#[derive(Clone, Debug, Default)]
pub struct TermPool {
    terms: Vec<Term>,
    sorts: Vec<Sort>,
    /// Hash-consing index: content hash -> the newest node with that
    /// hash. Older nodes with the same hash chain through `same_hash`.
    intern: FastMap<u64, TermId>,
    /// Per node, the next-older node interned under the same hash
    /// (`NO_TERM` ends the chain; variables are never in one).
    same_hash: Vec<u32>,
    /// The operands of every `and` / `or` node, run after run.
    operands: Vec<TermId>,
    /// Operand scratch of `and` / `or`.
    flat: Vec<TermId>,
    /// How each variable was declared, by declaration index.
    var_names: Vec<VarName>,
    /// The variable term declared under each free-form name.
    by_name: HashMap<Arc<str>, TermId>,
    /// The variable term declared under each structured key.
    by_key: FastMap<VarKey, TermId>,
    /// Scope names, concatenated in [`VarKey`] scope index order.
    scope_names: String,
    /// End offset of each scope's name in `scope_names`.
    scope_ends: Vec<u32>,
    bool_vars: Vec<TermId>,
    bv_vars: Vec<TermId>,
}

impl TermPool {
    /// Create an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forget every term and variable, keeping the tables' capacity.
    /// Every [`TermId`] handed out before is invalidated.
    pub fn clear(&mut self) {
        self.terms.clear();
        self.sorts.clear();
        self.intern.clear();
        self.same_hash.clear();
        self.operands.clear();
        self.var_names.clear();
        self.by_name.clear();
        self.by_key.clear();
        self.scope_names.clear();
        self.scope_ends.clear();
        self.bool_vars.clear();
        self.bv_vars.clear();
    }

    /// Number of distinct terms created so far.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True if no terms have been created.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// All free boolean variables created so far.
    pub fn bool_vars(&self) -> &[TermId] {
        &self.bool_vars
    }

    /// All free bitvector variables created so far.
    pub fn bv_vars(&self) -> &[TermId] {
        &self.bv_vars
    }

    /// Look up a term node.
    pub fn term(&self, id: TermId) -> &Term {
        &self.terms[id.0 as usize]
    }

    /// The sort of a term.
    pub fn sort(&self, id: TermId) -> Sort {
        self.sorts[id.0 as usize]
    }

    /// The operands of an `and` / `or` node of this pool.
    pub fn operands(&self, ops: Ops) -> &[TermId] {
        ops.of(&self.operands)
    }

    /// Hash-cons a node other than `and` / `or` (those go through
    /// [`TermPool::nary`]).
    fn intern(&mut self, t: Term, sort: Sort) -> TermId {
        debug_assert!(!matches!(t, Term::And(_) | Term::Or(_)));
        let mut h = TermHasher::default();
        t.hash(&mut h);
        self.intern_by(h.finish(), sort, |node, _| *node == t, |_| t)
    }

    /// The node `same` recognises among those interned under `hash`, or
    /// a new one, built by `make`, at `sort`. Both see the operand arena;
    /// `make` may append the new node's operands to it.
    fn intern_by(
        &mut self,
        hash: u64,
        sort: Sort,
        same: impl Fn(&Term, &[TermId]) -> bool,
        make: impl FnOnce(&mut Vec<TermId>) -> Term,
    ) -> TermId {
        let id = TermId(self.terms.len() as u32);
        let older = match self.intern.entry(hash) {
            Entry::Occupied(mut e) => {
                let mut at = e.get().0;
                while at != NO_TERM {
                    if same(&self.terms[at as usize], &self.operands) {
                        return TermId(at);
                    }
                    at = self.same_hash[at as usize];
                }
                e.insert(id).0
            }
            Entry::Vacant(e) => {
                e.insert(id);
                NO_TERM
            }
        };
        let node = make(&mut self.operands);
        self.push(node, sort, older)
    }

    fn push(&mut self, t: Term, sort: Sort, older: u32) -> TermId {
        let id = TermId(self.terms.len() as u32);
        self.terms.push(t);
        self.sorts.push(sort);
        self.same_hash.push(older);
        id
    }

    /// Declare a new variable at `sort`. Variables are never looked up
    /// by content, so they bypass the hash-consing index.
    fn new_var(&mut self, name: VarName, sort: Sort) -> TermId {
        let n = self.var_names.len() as u32;
        let node = match sort {
            Sort::Bool => Term::BoolVar(n),
            Sort::BitVec(width) => Term::BvVar { width, name: n },
        };
        let id = self.push(node, sort, NO_TERM);
        self.var_names.push(name);
        match sort {
            Sort::Bool => self.bool_vars.push(id),
            Sort::BitVec(_) => self.bv_vars.push(id),
        }
        id
    }

    fn assert_sort(&self, var: TermId, sort: Sort) {
        assert_eq!(
            self.sort(var),
            sort,
            "variable {} redeclared at a different sort",
            self.display(var)
        );
    }

    /// The variable named `name` at `sort`, declared now if new.
    fn named_var(&mut self, name: &str, sort: Sort) -> TermId {
        if let Some(&id) = self.by_name.get(name) {
            self.assert_sort(id, sort);
            return id;
        }
        let name: Arc<str> = name.into();
        let id = self.new_var(VarName::Text(Arc::clone(&name)), sort);
        self.by_name.insert(name, id);
        id
    }

    /// The variable keyed `key` at `sort`, declared now if new.
    fn keyed_var(&mut self, key: VarKey, sort: Sort) -> TermId {
        let next = TermId(self.terms.len() as u32);
        let id = *self.by_key.entry(key).or_insert(next);
        if id != next {
            self.assert_sort(id, sort);
            return id;
        }
        self.new_var(VarName::Key(key), sort)
    }

    /// The index of scope `name` for [`VarKey`]s, registered now if new.
    /// A scope is typically one symbolic route's tag.
    pub fn scope(&mut self, name: &str) -> u32 {
        let known = (0..self.scope_ends.len()).position(|i| self.scope_name(i as u32) == name);
        known.unwrap_or_else(|| {
            self.scope_names.push_str(name);
            self.scope_ends.push(self.scope_names.len() as u32);
            self.scope_ends.len() - 1
        }) as u32
    }

    fn scope_name(&self, scope: u32) -> &str {
        let i = scope as usize;
        let start = if i == 0 { 0 } else { self.scope_ends[i - 1] };
        &self.scope_names[start as usize..self.scope_ends[i] as usize]
    }

    // ---------------------------------------------------------------------
    // Boolean constructors
    // ---------------------------------------------------------------------

    /// The constant `true`.
    pub fn tru(&mut self) -> TermId {
        self.intern(Term::True, Sort::Bool)
    }

    /// The constant `false`.
    pub fn fls(&mut self) -> TermId {
        self.intern(Term::False, Sort::Bool)
    }

    /// A boolean constant.
    pub fn bool_const(&mut self, b: bool) -> TermId {
        if b {
            self.tru()
        } else {
            self.fls()
        }
    }

    /// A fresh-or-existing named boolean variable. Two calls with the same
    /// name return the same variable.
    pub fn bool_var(&mut self, name: &str) -> TermId {
        self.named_var(name, Sort::Bool)
    }

    /// A fresh-or-existing boolean variable under a structured key.
    pub fn bool_var_at(&mut self, key: VarKey) -> TermId {
        self.keyed_var(key, Sort::Bool)
    }

    /// Negation, with `not not x -> x` and constant folding.
    pub fn not(&mut self, a: TermId) -> TermId {
        match self.term(a) {
            Term::True => self.fls(),
            Term::False => self.tru(),
            Term::Not(inner) => *inner,
            _ => self.intern(Term::Not(a), Sort::Bool),
        }
    }

    /// N-ary conjunction with flattening, deduplication and short-circuiting.
    pub fn and(&mut self, parts: &[TermId]) -> TermId {
        self.nary(true, parts)
    }

    /// Binary conjunction.
    pub fn and2(&mut self, a: TermId, b: TermId) -> TermId {
        self.and(&[a, b])
    }

    /// N-ary disjunction with flattening, deduplication and short-circuiting.
    pub fn or(&mut self, parts: &[TermId]) -> TermId {
        self.nary(false, parts)
    }

    /// The body of [`TermPool::and`] (`conj`) and [`TermPool::or`]:
    /// flatten nested nodes of the same kind, drop the neutral constant,
    /// short-circuit on the absorbing one or a complementary pair
    /// (`x /\ !x`, `x \/ !x`), and sort and dedup the rest. Operands are
    /// gathered in the pool's scratch buffer and the node is looked up by
    /// a hash of that slice, so only a new node appends to the operand
    /// arena.
    fn nary(&mut self, conj: bool, parts: &[TermId]) -> TermId {
        let mut flat = std::mem::take(&mut self.flat);
        flat.clear();
        let mut absorbed = false;
        for &p in parts {
            match (*self.term(p), conj) {
                (Term::True, true) | (Term::False, false) => {}
                (Term::False, true) | (Term::True, false) => {
                    absorbed = true;
                    break;
                }
                (Term::And(ops), true) | (Term::Or(ops), false) => {
                    flat.extend_from_slice(self.operands(ops))
                }
                _ => flat.push(p),
            }
        }
        if !absorbed {
            flat.sort_unstable();
            flat.dedup();
            absorbed = flat.iter().any(
                |&t| matches!(self.term(t), Term::Not(inner) if flat.binary_search(inner).is_ok()),
            );
        }
        let id = match flat.len() {
            _ if absorbed => self.bool_const(!conj),
            0 => self.bool_const(conj),
            1 => flat[0],
            _ => {
                let mut h = TermHasher::default();
                (conj, &flat[..]).hash(&mut h);
                let same = |node: &Term, arena: &[TermId]| match *node {
                    Term::And(ops) if conj => *ops.of(arena) == flat[..],
                    Term::Or(ops) if !conj => *ops.of(arena) == flat[..],
                    _ => false,
                };
                let make = |arena: &mut Vec<TermId>| {
                    let ops = Ops {
                        start: arena.len() as u32,
                        len: flat.len() as u32,
                    };
                    arena.extend_from_slice(&flat);
                    if conj {
                        Term::And(ops)
                    } else {
                        Term::Or(ops)
                    }
                };
                self.intern_by(h.finish(), Sort::Bool, same, make)
            }
        };
        self.flat = flat;
        id
    }

    /// Binary disjunction.
    pub fn or2(&mut self, a: TermId, b: TermId) -> TermId {
        self.or(&[a, b])
    }

    /// Implication `a => b`, encoded as `!a \/ b`.
    pub fn implies(&mut self, a: TermId, b: TermId) -> TermId {
        let na = self.not(a);
        self.or2(na, b)
    }

    /// Bi-implication `a <=> b`.
    pub fn iff(&mut self, a: TermId, b: TermId) -> TermId {
        if a == b {
            return self.tru();
        }
        match (self.term(a), self.term(b)) {
            (Term::True, _) => b,
            (_, Term::True) => a,
            (Term::False, _) => self.not(b),
            (_, Term::False) => self.not(a),
            _ => {
                let ab = self.implies(a, b);
                let ba = self.implies(b, a);
                self.and2(ab, ba)
            }
        }
    }

    /// If-then-else over booleans or equal-width bitvectors.
    pub fn ite(&mut self, cond: TermId, then: TermId, els: TermId) -> TermId {
        debug_assert_eq!(self.sort(then), self.sort(els), "ite branch sorts differ");
        match self.term(cond) {
            Term::True => return then,
            Term::False => return els,
            _ => {}
        }
        if then == els {
            return then;
        }
        let sort = self.sort(then);
        if sort == Sort::Bool {
            // A constant arm makes the ite one `or` or one `and`, so a
            // first-match fold (`ite(hit, verdict, rest)`) is a chain of
            // them, flat where verdicts repeat, and each `hit` occurs in
            // one polarity only.
            match (self.term(then), self.term(els)) {
                (Term::True, _) => return self.or2(cond, els),
                (_, Term::False) => return self.and2(cond, then),
                (Term::False, _) => {
                    let nc = self.not(cond);
                    return self.and2(nc, els);
                }
                (_, Term::True) => {
                    let nc = self.not(cond);
                    return self.or2(nc, then);
                }
                _ => {}
            }
            // (ite c t e) == (c /\ t) \/ (!c /\ e); keeping booleans in
            // and/or form lets later simplifications fire.
            let ct = self.and2(cond, then);
            let nc = self.not(cond);
            let ce = self.and2(nc, els);
            return self.or2(ct, ce);
        }
        self.intern(Term::Ite(cond, then, els), sort)
    }

    // ---------------------------------------------------------------------
    // Bitvector constructors
    // ---------------------------------------------------------------------

    /// A bitvector constant; `value` is truncated to `width` bits.
    pub fn bv_const(&mut self, value: u64, width: u32) -> TermId {
        assert!((1..=64).contains(&width), "bitvector width must be 1..=64");
        self.intern(
            Term::BvConst {
                width,
                value: value & mask(width),
            },
            Sort::BitVec(width),
        )
    }

    /// A fresh-or-existing named bitvector variable.
    pub fn bv_var(&mut self, name: &str, width: u32) -> TermId {
        assert!((1..=64).contains(&width), "bitvector width must be 1..=64");
        self.named_var(name, Sort::BitVec(width))
    }

    /// A fresh-or-existing bitvector variable under a structured key.
    pub fn bv_var_at(&mut self, key: VarKey, width: u32) -> TermId {
        assert!((1..=64).contains(&width), "bitvector width must be 1..=64");
        self.keyed_var(key, Sort::BitVec(width))
    }

    fn bv_value(&self, id: TermId) -> Option<u64> {
        match self.term(id) {
            Term::BvConst { value, .. } => Some(*value),
            _ => None,
        }
    }

    /// Bitvector equality.
    pub fn bv_eq(&mut self, a: TermId, b: TermId) -> TermId {
        debug_assert_eq!(self.sort(a), self.sort(b));
        if a == b {
            return self.tru();
        }
        if let (Some(x), Some(y)) = (self.bv_value(a), self.bv_value(b)) {
            return self.bool_const(x == y);
        }
        // Canonical argument order improves sharing.
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.intern(Term::BvEq(a, b), Sort::Bool)
    }

    /// Unsigned less-than.
    pub fn bv_ult(&mut self, a: TermId, b: TermId) -> TermId {
        debug_assert_eq!(self.sort(a), self.sort(b));
        if a == b {
            return self.fls();
        }
        if let (Some(x), Some(y)) = (self.bv_value(a), self.bv_value(b)) {
            return self.bool_const(x < y);
        }
        self.intern(Term::BvUlt(a, b), Sort::Bool)
    }

    /// Unsigned less-or-equal.
    pub fn bv_ule(&mut self, a: TermId, b: TermId) -> TermId {
        debug_assert_eq!(self.sort(a), self.sort(b));
        if a == b {
            return self.tru();
        }
        if let (Some(x), Some(y)) = (self.bv_value(a), self.bv_value(b)) {
            return self.bool_const(x <= y);
        }
        self.intern(Term::BvUle(a, b), Sort::Bool)
    }

    /// Unsigned greater-or-equal (`a >= b`).
    pub fn bv_uge(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_ule(b, a)
    }

    /// Unsigned greater-than (`a > b`).
    pub fn bv_ugt(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_ult(b, a)
    }

    /// Bitwise and.
    pub fn bv_and(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.sort(a).width();
        debug_assert_eq!(self.sort(b).width(), w);
        if let (Some(x), Some(y)) = (self.bv_value(a), self.bv_value(b)) {
            return self.bv_const(x & y, w);
        }
        self.intern(Term::BvAnd(a, b), Sort::BitVec(w))
    }

    /// Modular addition.
    pub fn bv_add(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.sort(a).width();
        debug_assert_eq!(self.sort(b).width(), w);
        if let (Some(x), Some(y)) = (self.bv_value(a), self.bv_value(b)) {
            return self.bv_const(x.wrapping_add(y), w);
        }
        self.intern(Term::BvAdd(a, b), Sort::BitVec(w))
    }

    // ---------------------------------------------------------------------
    // Display
    // ---------------------------------------------------------------------

    /// Render a term as an s-expression (for diagnostics and tests).
    pub fn display(&self, id: TermId) -> String {
        let mut s = String::new();
        self.display_into(id, &mut s);
        s
    }

    fn display_into(&self, id: TermId, out: &mut String) {
        use std::fmt::Write;
        match self.term(id) {
            Term::True => out.push_str("true"),
            Term::False => out.push_str("false"),
            Term::BoolVar(n) | Term::BvVar { name: n, .. } => self.display_var(*n, out),
            Term::BvConst { width, value } => {
                let _ = write!(out, "#b{value}:{width}");
            }
            Term::Not(a) => {
                out.push_str("(not ");
                self.display_into(*a, out);
                out.push(')');
            }
            Term::And(ops) => self.display_nary("and", self.operands(*ops), out),
            Term::Or(ops) => self.display_nary("or", self.operands(*ops), out),
            Term::Ite(c, t, e) => {
                out.push_str("(ite ");
                self.display_into(*c, out);
                out.push(' ');
                self.display_into(*t, out);
                out.push(' ');
                self.display_into(*e, out);
                out.push(')');
            }
            Term::BvEq(a, b) => self.display_bin("=", *a, *b, out),
            Term::BvUlt(a, b) => self.display_bin("bvult", *a, *b, out),
            Term::BvUle(a, b) => self.display_bin("bvule", *a, *b, out),
            Term::BvAnd(a, b) => self.display_bin("bvand", *a, *b, out),
            Term::BvAdd(a, b) => self.display_bin("bvadd", *a, *b, out),
        }
    }

    fn display_var(&self, n: u32, out: &mut String) {
        use std::fmt::Write;
        match &self.var_names[n as usize] {
            VarName::Text(name) => out.push_str(name),
            VarName::Key(k) => {
                out.push_str(self.scope_name(k.scope));
                out.push('.');
                out.push_str(k.attr);
                if k.pos != u32::MAX {
                    let _ = write!(out, "[{}]", k.pos);
                }
            }
        }
    }

    fn display_nary(&self, op: &str, parts: &[TermId], out: &mut String) {
        out.push('(');
        out.push_str(op);
        for &p in parts {
            out.push(' ');
            self.display_into(p, out);
        }
        out.push(')');
    }

    fn display_bin(&self, op: &str, a: TermId, b: TermId, out: &mut String) {
        out.push('(');
        out.push_str(op);
        out.push(' ');
        self.display_into(a, out);
        out.push(' ');
        self.display_into(b, out);
        out.push(')');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_dedups() {
        let mut p = TermPool::new();
        let a = p.bool_var("a");
        let b = p.bool_var("b");
        let c1 = p.and2(a, b);
        let c2 = p.and2(b, a); // commuted: sorted children make these equal
        assert_eq!(c1, c2);
    }

    #[test]
    fn var_reuse_by_name() {
        let mut p = TermPool::new();
        let a1 = p.bool_var("a");
        let a2 = p.bool_var("a");
        assert_eq!(a1, a2);
        let x1 = p.bv_var("x", 8);
        let x2 = p.bv_var("x", 8);
        assert_eq!(x1, x2);
    }

    #[test]
    fn keyed_vars_reuse_by_key_and_render_only_on_display() {
        let mut p = TermPool::new();
        let r = p.scope("r");
        assert_eq!(p.scope("r"), r);
        let s = p.scope("s");
        let c3 = p.bool_var_at(VarKey::indexed(r, "comm", 3));
        let med = p.bv_var_at(VarKey::scalar(r, "med"), 32);
        assert_eq!(p.bool_var_at(VarKey::indexed(r, "comm", 3)), c3);
        assert_eq!(p.bv_var_at(VarKey::scalar(r, "med"), 32), med);
        assert_ne!(p.bool_var_at(VarKey::indexed(s, "comm", 3)), c3);
        assert_ne!(p.bool_var_at(VarKey::indexed(r, "comm", 4)), c3);
        assert_eq!(p.display(c3), "r.comm[3]");
        assert_eq!(p.display(med), "r.med");
        // A keyed variable is a variable like any other.
        assert_eq!(p.bool_vars().len(), 3);
        assert_eq!(p.bv_vars(), &[med]);
    }

    #[test]
    #[should_panic(expected = "r.med redeclared at a different sort")]
    fn keyed_var_redeclare_panics() {
        let mut p = TermPool::new();
        let r = p.scope("r");
        p.bv_var_at(VarKey::scalar(r, "med"), 32);
        p.bv_var_at(VarKey::scalar(r, "med"), 8);
    }

    #[test]
    fn nary_nodes_are_found_from_any_operand_order() {
        let mut p = TermPool::new();
        let (a, b, c) = (p.bool_var("a"), p.bool_var("b"), p.bool_var("c"));
        let abc = p.and(&[a, b, c]);
        let or_abc = p.or(&[a, b, c]);
        assert_ne!(abc, or_abc, "and and or over the same operands differ");
        let n = p.len();
        let bc = p.and2(c, b);
        assert_eq!(p.len(), n + 1);
        // Permuted, repeated and nested spellings are the same node, and
        // finding it creates nothing.
        assert_eq!(p.and(&[c, a, b, a]), abc);
        assert_eq!(p.and(&[bc, a]), abc);
        assert_eq!(p.or(&[c, b, a]), or_abc);
        assert_eq!(p.len(), n + 1);
    }

    #[test]
    #[should_panic(expected = "different sort")]
    fn var_redeclare_panics() {
        let mut p = TermPool::new();
        p.bool_var("a");
        p.bv_var("a", 8);
    }

    #[test]
    fn constant_folding() {
        let mut p = TermPool::new();
        let t = p.tru();
        let f = p.fls();
        assert_eq!(p.and2(t, f), f);
        assert_eq!(p.or2(t, f), t);
        let a = p.bool_var("a");
        assert_eq!(p.and2(a, t), a);
        assert_eq!(p.or2(a, f), a);
        assert_eq!(p.and2(a, f), f);
        assert_eq!(p.or2(a, t), t);
    }

    #[test]
    fn double_negation() {
        let mut p = TermPool::new();
        let a = p.bool_var("a");
        let na = p.not(a);
        assert_eq!(p.not(na), a);
    }

    #[test]
    fn contradiction_collapses() {
        let mut p = TermPool::new();
        let a = p.bool_var("a");
        let na = p.not(a);
        let fls = p.fls();
        let tru = p.tru();
        assert_eq!(p.and2(a, na), fls);
        assert_eq!(p.or2(a, na), tru);
    }

    #[test]
    fn and_flattens() {
        let mut p = TermPool::new();
        let a = p.bool_var("a");
        let b = p.bool_var("b");
        let c = p.bool_var("c");
        let ab = p.and2(a, b);
        let abc = p.and2(ab, c);
        match p.term(abc) {
            Term::And(ops) => assert_eq!(p.operands(*ops).len(), 3),
            other => panic!("expected And, got {other:?}"),
        }
    }

    #[test]
    fn bv_const_folding() {
        let mut p = TermPool::new();
        let a = p.bv_const(5, 8);
        let b = p.bv_const(3, 8);
        let sum = p.bv_add(a, b);
        assert_eq!(p.term(sum), &Term::BvConst { width: 8, value: 8 });
        let lt = p.bv_ult(b, a);
        assert_eq!(p.term(lt), &Term::True);
        let eq = p.bv_eq(a, a);
        assert_eq!(p.term(eq), &Term::True);
    }

    #[test]
    fn bv_const_truncates() {
        let mut p = TermPool::new();
        let a = p.bv_const(0x1ff, 8);
        assert_eq!(
            p.term(a),
            &Term::BvConst {
                width: 8,
                value: 0xff
            }
        );
    }

    #[test]
    fn ite_simplifies_on_const_cond() {
        let mut p = TermPool::new();
        let x = p.bv_var("x", 4);
        let y = p.bv_var("y", 4);
        let t = p.tru();
        let f = p.fls();
        assert_eq!(p.ite(t, x, y), x);
        assert_eq!(p.ite(f, x, y), y);
        let c = p.bool_var("c");
        assert_eq!(p.ite(c, x, x), x);
    }

    /// The value of a boolean term over `a` and `b`.
    fn eval(p: &TermPool, t: TermId, a: TermId, env: [bool; 2]) -> bool {
        match *p.term(t) {
            Term::True => true,
            Term::False => false,
            Term::BoolVar(_) => env[usize::from(t != a)],
            Term::Not(x) => !eval(p, x, a, env),
            Term::And(ops) => p.operands(ops).iter().all(|&x| eval(p, x, a, env)),
            Term::Or(ops) => p.operands(ops).iter().any(|&x| eval(p, x, a, env)),
            ref other => panic!("not a boolean connective: {other:?}"),
        }
    }

    #[test]
    fn constant_arm_ites_fold_and_agree_with_the_expansion() {
        let mut p = TermPool::new();
        let (a, b) = (p.bool_var("a"), p.bool_var("b"));
        let (na, nb, t, f) = (p.not(a), p.not(b), p.tru(), p.fls());
        let shapes = [t, f, a, na, b, nb];
        for c in shapes {
            for then in shapes {
                for els in shapes {
                    let ite = p.ite(c, then, els);
                    let ct = p.and2(c, then);
                    let nc = p.not(c);
                    let ce = p.and2(nc, els);
                    let expansion = p.or2(ct, ce);
                    for env in [[false, false], [false, true], [true, false], [true, true]] {
                        assert_eq!(
                            eval(&p, ite, a, env),
                            eval(&p, expansion, a, env),
                            "ite({}, {}, {}) at a={}, b={}",
                            p.display(c),
                            p.display(then),
                            p.display(els),
                            env[0],
                            env[1]
                        );
                    }
                }
            }
        }
        // A constant arm leaves one connective over the other two inputs.
        let (x, y) = (p.bool_var("x"), p.bool_var("y"));
        let (nx, x_or_y, x_and_y) = (p.not(x), p.or2(x, y), p.and2(x, y));
        let nx_and_y = p.and2(nx, y);
        let nx_or_y = p.or2(nx, y);
        assert_eq!(p.ite(x, t, y), x_or_y);
        assert_eq!(p.ite(x, y, f), x_and_y);
        assert_eq!(p.ite(x, f, y), nx_and_y);
        assert_eq!(p.ite(x, y, t), nx_or_y);
    }

    #[test]
    fn display_roundtrip_smoke() {
        let mut p = TermPool::new();
        let x = p.bv_var("x", 8);
        let five = p.bv_const(5, 8);
        let c = p.bv_ult(x, five);
        assert_eq!(p.display(c), "(bvult x #b5:8)");
    }
}
