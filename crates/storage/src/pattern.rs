//! Conjunctive queries over a tuple source — the reference evaluator.
//!
//! The paper's prototype encodes its satisfiability checks as single SQL
//! `SELECT … LIMIT 1` join queries (§4). This module is the plain version
//! of that: a conjunctive query is a list of relational patterns sharing
//! variables; evaluation is a backtracking nested-loop join with dynamic
//! atom ordering (most-constrained pattern first, exact counts, ties to
//! the earlier pattern) and an optional `LIMIT`. The engine answers reads
//! with the solver's read mode, which runs this same search on compiled
//! frames; this evaluator stays as the independent oracle that read mode,
//! the simulator's checker and the §5.2 IS baseline are held to.

use std::collections::BTreeMap;

use crate::database::Database;
use crate::error::StorageError;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;

/// A source of tuples for [`ConjunctiveQuery::eval`]: the concrete
/// [`Database`], or a test's or checker's own view of a possible world.
///
/// `matching_rows` yields the visible rows of a relation under a partial
/// column binding; `count_rows` is the exact cardinality of that sequence
/// (the most-constrained-first atom ordering depends on counts being
/// exact).
pub trait TupleView {
    /// Arity of `relation`; error when the relation does not exist.
    fn arity_of(&self, relation: &str) -> Result<usize>;

    /// Exact count of visible rows matching `bound` (`Some(v)` pins a
    /// column to `v`).
    fn count_rows(&self, relation: &str, bound: &[Option<Value>]) -> Result<usize>;

    /// Visible rows matching `bound`.
    fn matching_rows(&self, relation: &str, bound: &[Option<Value>]) -> Result<Vec<Tuple>>;
}

impl TupleView for Database {
    fn arity_of(&self, relation: &str) -> Result<usize> {
        Ok(self.table(relation)?.schema().arity())
    }

    fn count_rows(&self, relation: &str, bound: &[Option<Value>]) -> Result<usize> {
        // `count_up_to` with an unreachable cap is an exact count that
        // reads an index bucket length when a single bound column is
        // indexed (no row iteration).
        Ok(self.table(relation)?.count_up_to(bound, usize::MAX).0)
    }

    fn matching_rows(&self, relation: &str, bound: &[Option<Value>]) -> Result<Vec<Tuple>> {
        Ok(self.table(relation)?.select(bound).cloned().collect())
    }
}

/// Query variable identifier. Variables are plain integers; the logic layer
/// maps its named variables onto these.
pub type QVar = u32;

/// One position of a pattern: either a constant or a query variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatTerm {
    /// Fixed value the column must equal.
    Const(Value),
    /// Variable bound during evaluation; repeated variables join.
    Var(QVar),
}

impl PatTerm {
    /// Convenience constructor for constants.
    pub fn val(v: impl Into<Value>) -> Self {
        PatTerm::Const(v.into())
    }
}

/// A relational pattern, e.g. `Available(f, '5A')`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    /// Relation name.
    pub relation: String,
    /// One term per column.
    pub terms: Vec<PatTerm>,
}

impl Pattern {
    /// Build a pattern.
    pub fn new(relation: impl Into<String>, terms: Vec<PatTerm>) -> Self {
        Pattern {
            relation: relation.into(),
            terms,
        }
    }

    /// Variables occurring in this pattern.
    pub fn vars(&self) -> impl Iterator<Item = QVar> + '_ {
        self.terms.iter().filter_map(|t| match t {
            PatTerm::Var(v) => Some(*v),
            PatTerm::Const(_) => None,
        })
    }

    /// The column constraint vector under `binding`: `Some(v)` for columns
    /// fixed by a constant or an already-bound variable.
    pub fn bound_columns(&self, binding: &Binding) -> Vec<Option<Value>> {
        self.terms
            .iter()
            .map(|t| match t {
                PatTerm::Const(v) => Some(v.clone()),
                PatTerm::Var(x) => binding.get(x).cloned(),
            })
            .collect()
    }

    /// Try to extend `binding` so the pattern matches `row`. Returns the
    /// list of variables newly bound (for backtracking) or `None` on
    /// mismatch.
    pub fn match_row(&self, row: &Tuple, binding: &mut Binding) -> Option<Vec<QVar>> {
        debug_assert_eq!(self.terms.len(), row.arity());
        let mut newly = Vec::new();
        for (t, v) in self.terms.iter().zip(row.iter()) {
            match t {
                PatTerm::Const(c) => {
                    if c != v {
                        Self::unbind(binding, &newly);
                        return None;
                    }
                }
                PatTerm::Var(x) => match binding.get(x) {
                    Some(b) if b == v => {}
                    Some(_) => {
                        Self::unbind(binding, &newly);
                        return None;
                    }
                    None => {
                        binding.insert(*x, v.clone());
                        newly.push(*x);
                    }
                },
            }
        }
        Some(newly)
    }

    fn unbind(binding: &mut Binding, vars: &[QVar]) {
        for v in vars {
            binding.remove(v);
        }
    }
}

impl std::fmt::Display for Pattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}(", self.relation)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match t {
                PatTerm::Const(v) => write!(f, "{v}")?,
                PatTerm::Var(x) => write!(f, "v{x}")?,
            }
        }
        write!(f, ")")
    }
}

/// A variable assignment produced by query evaluation.
pub type Binding = BTreeMap<QVar, Value>;

/// A conjunctive query: patterns + optional limit on results.
#[derive(Debug, Clone)]
pub struct ConjunctiveQuery {
    /// Join patterns; shared variables are equi-join conditions.
    pub patterns: Vec<Pattern>,
    /// Stop after this many bindings (`LIMIT n`).
    pub limit: Option<usize>,
}

/// Result of evaluating a conjunctive query.
#[derive(Debug, Clone, Default)]
pub struct QueryOutput {
    /// One binding per result row.
    pub bindings: Vec<Binding>,
}

impl ConjunctiveQuery {
    /// Build a query over the given patterns with no limit.
    pub fn new(patterns: Vec<Pattern>) -> Self {
        ConjunctiveQuery {
            patterns,
            limit: None,
        }
    }

    /// Set a `LIMIT`.
    pub fn with_limit(mut self, limit: usize) -> Self {
        self.limit = Some(limit);
        self
    }

    /// Evaluate against a tuple view, in the view's row order.
    pub fn eval<V: TupleView + ?Sized>(&self, view: &V) -> Result<QueryOutput> {
        // Validate arities up front so evaluation can use debug asserts.
        for p in &self.patterns {
            let arity = view.arity_of(&p.relation)?;
            if arity != p.terms.len() {
                return Err(StorageError::ArityMismatch {
                    relation: p.relation.clone(),
                    expected: arity,
                    got: p.terms.len(),
                });
            }
        }
        let mut out = QueryOutput::default();
        let mut binding = Binding::new();
        let mut used = vec![false; self.patterns.len()];
        self.search(view, &mut binding, &mut used, &mut out)?;
        Ok(out)
    }

    fn search<V: TupleView + ?Sized>(
        &self,
        view: &V,
        binding: &mut Binding,
        used: &mut [bool],
        out: &mut QueryOutput,
    ) -> Result<bool> {
        if let Some(limit) = self.limit {
            if out.bindings.len() >= limit {
                return Ok(true); // signal: stop searching
            }
        }
        // All patterns matched: emit the binding.
        if used.iter().all(|&u| u) {
            out.bindings.push(binding.clone());
            return Ok(self.limit.is_some_and(|l| out.bindings.len() >= l));
        }
        // Most-constrained-first: pick the unused pattern with the fewest
        // candidate rows under the current binding.
        let mut best: Option<(usize, usize)> = None; // (pattern idx, candidates)
        for (i, p) in self.patterns.iter().enumerate() {
            if used[i] {
                continue;
            }
            let bound = p.bound_columns(binding);
            let n = view.count_rows(&p.relation, &bound)?;
            if best.is_none_or(|(_, bn)| n < bn) {
                best = Some((i, n));
            }
            if n == 0 {
                break; // dead branch, no point scoring the rest
            }
        }
        let (idx, _) = best.expect("at least one unused pattern");
        let p = &self.patterns[idx];
        used[idx] = true;
        let bound = p.bound_columns(binding);
        // Materialize candidates: the recursive call needs the view
        // borrowed fresh, and candidate sets at a node are small by
        // construction.
        let candidates: Vec<Tuple> = view.matching_rows(&p.relation, &bound)?;
        for row in candidates {
            if let Some(newly) = p.match_row(&row, binding) {
                let stop = self.search(view, binding, used, out)?;
                for v in newly {
                    binding.remove(&v);
                }
                if stop {
                    used[idx] = false;
                    return Ok(true);
                }
            }
        }
        used[idx] = false;
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::schema::{Schema, ValueType};
    use crate::tuple;

    /// 2 flights × seats 1A/1B/1C with adjacency 1A-1B, 1B-1C.
    fn flights_db() -> Database {
        let mut db = Database::new();
        db.create_table(Schema::new(
            "Available",
            vec![("flight", ValueType::Int), ("seat", ValueType::Str)],
        ))
        .unwrap();
        db.create_table(Schema::new(
            "Adjacent",
            vec![("s1", ValueType::Str), ("s2", ValueType::Str)],
        ))
        .unwrap();
        db.create_table(Schema::new(
            "Bookings",
            vec![
                ("name", ValueType::Str),
                ("flight", ValueType::Int),
                ("seat", ValueType::Str),
            ],
        ))
        .unwrap();
        for f in [1i64, 2] {
            for s in ["1A", "1B", "1C"] {
                db.insert("Available", tuple![f, s]).unwrap();
            }
        }
        for (a, b) in [("1A", "1B"), ("1B", "1A"), ("1B", "1C"), ("1C", "1B")] {
            db.insert("Adjacent", tuple![a, b]).unwrap();
        }
        db.insert("Bookings", tuple!["Goofy", 1, "1B"]).unwrap();
        db
    }

    #[test]
    fn single_pattern_scan() {
        let db = flights_db();
        let q = ConjunctiveQuery::new(vec![Pattern::new(
            "Available",
            vec![PatTerm::val(1), PatTerm::Var(0)],
        )]);
        let out = q.eval(&db).unwrap();
        assert_eq!(out.bindings.len(), 3);
    }

    #[test]
    fn join_through_shared_variable() {
        // Seats adjacent to Goofy's booking on flight 1:
        // Bookings('Goofy', 1, s2) ⋈ Adjacent(s1, s2) ⋈ Available(1, s1)
        let db = flights_db();
        let (s1, s2) = (0, 1);
        let q = ConjunctiveQuery::new(vec![
            Pattern::new(
                "Bookings",
                vec![PatTerm::val("Goofy"), PatTerm::val(1), PatTerm::Var(s2)],
            ),
            Pattern::new("Adjacent", vec![PatTerm::Var(s1), PatTerm::Var(s2)]),
            Pattern::new("Available", vec![PatTerm::val(1), PatTerm::Var(s1)]),
        ]);
        let out = q.eval(&db).unwrap();
        let mut seats: Vec<String> = out
            .bindings
            .iter()
            .map(|b| b[&s1].as_str().unwrap().to_string())
            .collect();
        seats.sort();
        assert_eq!(seats, vec!["1A", "1C"]);
    }

    #[test]
    fn limit_one_early_exit() {
        let db = flights_db();
        let q = ConjunctiveQuery::new(vec![Pattern::new(
            "Available",
            vec![PatTerm::Var(0), PatTerm::Var(1)],
        )])
        .with_limit(1);
        assert_eq!(q.eval(&db).unwrap().bindings.len(), 1);
    }

    #[test]
    fn unsatisfiable_join() {
        let db = flights_db();
        let q = ConjunctiveQuery::new(vec![Pattern::new(
            "Bookings",
            vec![PatTerm::val("Pluto"), PatTerm::Var(0), PatTerm::Var(1)],
        )]);
        assert!(q.eval(&db).unwrap().bindings.is_empty());
    }

    #[test]
    fn repeated_variable_within_pattern() {
        // Adjacent(s, s) — no seat is adjacent to itself.
        let db = flights_db();
        let q = ConjunctiveQuery::new(vec![Pattern::new(
            "Adjacent",
            vec![PatTerm::Var(0), PatTerm::Var(0)],
        )]);
        assert!(q.eval(&db).unwrap().bindings.is_empty());
    }

    #[test]
    fn arity_mismatch_is_an_error() {
        let db = flights_db();
        let q = ConjunctiveQuery::new(vec![Pattern::new("Available", vec![PatTerm::Var(0)])]);
        assert!(q.eval(&db).is_err());
    }

    #[test]
    fn missing_table_is_an_error() {
        let db = flights_db();
        let q = ConjunctiveQuery::new(vec![Pattern::new("Nope", vec![PatTerm::Var(0)])]);
        assert!(matches!(q.eval(&db), Err(StorageError::NoSuchTable(_))));
    }

    #[test]
    fn cross_product_counts() {
        let db = flights_db();
        let q = ConjunctiveQuery::new(vec![
            Pattern::new("Available", vec![PatTerm::val(1), PatTerm::Var(0)]),
            Pattern::new("Available", vec![PatTerm::val(2), PatTerm::Var(1)]),
        ]);
        assert_eq!(q.eval(&db).unwrap().bindings.len(), 9);
    }
}
