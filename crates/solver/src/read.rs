//! Read mode: the §3.2.2 reads on the solver kernel.
//!
//! A read is a conjunctive query over a state: collapse reads ask the
//! extensional database, PEEK asks one possible world (a partition's
//! maintained pending world) and `SELECT POSSIBLE` asks every enumerated
//! world. [`ReadSpec`] compiles the query's atoms once into a body-only
//! compiled spec — relation ids, dense variable slots — and enumerates its
//! bindings on the kernel's frames over `(base, &Overlay)`. Nothing is
//! looked up by name and no binding map is grown; a node allocates
//! nothing, and the search stops at `LIMIT`.
//!
//! # Same answers, same order
//!
//! Read mode runs exactly the depth-first search of the reference
//! evaluator, `qdb_workload::pattern::ConjunctiveQuery`, so every row
//! list and every `LIMIT` cut is the one that evaluator gives on the
//! materialized state:
//!
//! * the next atom is the unused one with the fewest visible matches,
//!   counted exactly — no cap, and a lone remaining atom is counted too —
//!   and a tie goes to the earlier atom; a count of zero ends the choice;
//! * candidates come in tuple order, base rows and inserts merged
//!   (`Overlay::read_stream`) as the materialized table would hold them,
//!   not in the grounding search's base-first order;
//! * an answer is emitted once every atom matched, and the search stops
//!   as soon as `LIMIT` answers are out.
//!
//! The counts and cursors are the same base-table calls the reference
//! makes, so the access-pattern tracker sees the same lookups too. Read
//! mode adds nothing to [`crate::SolverStats`] and is not timed as a
//! solve: it is not a grounding search.

use qdb_logic::{Atom, Valuation};
use qdb_storage::{Database, Value};

use crate::overlay::Overlay;
use crate::search::{CompiledSpec, Frame};

/// A read's atoms compiled once, evaluated on any number of states over
/// the base it was compiled against.
#[derive(Debug)]
pub struct ReadSpec<'a> {
    spec: CompiledSpec<'a>,
    /// The slots in variable-id order: the order a row lists its values
    /// in, so rows compare as the valuations built from them.
    by_id: Vec<usize>,
}

impl<'a> ReadSpec<'a> {
    /// Compile `atoms` against `base`. The errors are the storage layer's,
    /// for the first atom whose relation is unknown or whose arity is
    /// wrong — what `qdb_workload::pattern::ConjunctiveQuery::eval` reports.
    pub fn compile(base: &Database, atoms: &'a [Atom]) -> qdb_storage::Result<Self> {
        let spec = CompiledSpec::body_only(base, atoms)?;
        let mut by_id: Vec<usize> = (0..spec.vars.len()).collect();
        by_id.sort_unstable_by_key(|&slot| spec.vars[slot].id());
        Ok(ReadSpec { spec, by_id })
    }

    /// The answers on `base + world`, in search order, at most `limit`.
    pub fn valuations(
        &self,
        base: &Database,
        world: &Overlay,
        limit: Option<usize>,
    ) -> Vec<Valuation> {
        let mut out = Vec::new();
        let frame = &mut Frame::new(&self.spec);
        self.run((base, world), limit, frame, |frame| {
            out.push(frame.valuation(&self.spec))
        });
        out
    }

    /// Each world's answers over `base`, one set per world, as rows that
    /// list their values in variable-id order ([`ReadSpec::valuation`]
    /// turns one back). The worlds share one frame.
    pub fn rows<'w>(
        &self,
        base: &Database,
        worlds: impl IntoIterator<Item = &'w Overlay>,
    ) -> Vec<Vec<Vec<Value>>> {
        let mut frame = Frame::new(&self.spec);
        let mut answers = |world| {
            let mut rows = Vec::new();
            self.run((base, world), None, &mut frame, |frame| {
                let row = self.by_id.iter().filter_map(|&s| frame.binds[s].clone());
                rows.push(row.collect());
            });
            rows
        };
        worlds.into_iter().map(&mut answers).collect()
    }

    /// The valuation of a row [`ReadSpec::rows`] returned.
    pub fn valuation(&self, row: Vec<Value>) -> Valuation {
        // Bound one by one, in key order: no intermediate vector.
        let mut val = Valuation::new();
        for (&s, value) in self.by_id.iter().zip(row) {
            val.bind(self.spec.vars[s].clone(), value);
        }
        val
    }

    /// Search `base + world` on `frame`, which it leaves as it found it.
    fn run(
        &self,
        (base, world): (&Database, &Overlay),
        limit: Option<usize>,
        frame: &mut Frame,
        mut emit: impl FnMut(&Frame),
    ) {
        let mut search = Search {
            base,
            world,
            spec: &self.spec,
            frame,
            left: limit.unwrap_or(usize::MAX),
        };
        search.next_atom(&mut emit);
    }
}

/// One evaluation's state.
struct Search<'r, 'a> {
    base: &'r Database,
    world: &'r Overlay,
    spec: &'r CompiledSpec<'a>,
    frame: &'r mut Frame,
    /// Answers still wanted.
    left: usize,
}

impl Search<'_, '_> {
    /// Match the unused atoms; `true` stops the search (the limit is
    /// reached).
    fn next_atom(&mut self, emit: &mut impl FnMut(&Frame)) -> bool {
        if self.left == 0 {
            return true;
        }
        let (base, world, spec) = (self.base, self.world, self.spec);
        let frame = &mut *self.frame;
        if frame.used.iter().all(|&u| u) {
            emit(frame);
            self.left -= 1;
            return self.left == 0;
        }
        let mut best: Option<(usize, usize)> = None;
        for idx in (0..frame.used.len()).filter(|&idx| !frame.used[idx]) {
            let rid = spec.atoms[idx].rid;
            let (n, _) = world.count_in(base, rid, frame.pattern(spec, idx), usize::MAX);
            if best.is_none_or(|(_, fewest)| n < fewest) {
                best = Some((idx, n));
            }
            if n == 0 {
                break; // a dead branch: nothing left to compare
            }
        }
        let (idx, _) = best.expect("an unused atom");
        let mut rows = world.read_stream(base, spec.atoms[idx].rid, frame.pattern(spec, idx));
        frame.used[idx] = true;
        let mut stop = false;
        // Every pull sees the pattern the cursor was opened with: the
        // bindings a row adds are undone before the next pull.
        while let Some(row) = rows.next(self.frame.pattern(spec, idx)) {
            let mark = self.frame.trail.len();
            if self.frame.match_atom(spec, idx, row) {
                stop = self.next_atom(emit);
                self.frame.undo(spec, mark);
                if stop {
                    break;
                }
            }
        }
        self.frame.used[idx] = false;
        stop
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdb_storage::{tuple, Schema, StorageError, ValueType, WriteOp};
    use qdb_workload::pattern::eval_atoms;

    fn base() -> Database {
        let mut db = Database::new();
        db.create_table(Schema::new(
            "A",
            vec![("flight", ValueType::Int), ("seat", ValueType::Str)],
        ))
        .unwrap();
        for (f, s) in [(1, "1A"), (1, "1B"), (2, "2A")] {
            db.insert("A", tuple![f, s]).unwrap();
        }
        db
    }

    fn atoms(text: &str) -> Vec<Atom> {
        qdb_logic::parse_query(text).unwrap().atoms
    }

    #[test]
    fn rows_interleave_base_and_inserts_in_key_order() {
        let db = base();
        let mut world = Overlay::new();
        for op in [
            WriteOp::delete("A", tuple![1, "1B"]),
            WriteOp::insert("A", tuple![0, "0Z"]),
            WriteOp::insert("A", tuple![1, "1C"]),
            WriteOp::insert("A", tuple![3, "3A"]),
        ] {
            world.apply(&db, &op).unwrap();
        }
        let q = atoms("A(f, s)");
        let read = ReadSpec::compile(&db, &q).unwrap();
        let seats: Vec<String> = (read.valuations(&db, &world, None).iter())
            .map(|v| v.to_string())
            .collect();
        assert_eq!(
            seats,
            [
                "{f -> 0, s -> '0Z'}",
                "{f -> 1, s -> '1A'}",
                "{f -> 1, s -> '1C'}",
                "{f -> 2, s -> '2A'}",
                "{f -> 3, s -> '3A'}"
            ]
        );
        // The limit cuts the same sequence; rows list values by var id.
        assert_eq!(read.valuations(&db, &world, Some(2)).len(), 2);
        assert!(read.valuations(&db, &world, Some(0)).is_empty());
        let rows = read.rows(&db, [&world, &Overlay::new()]);
        assert_eq!(rows[0][0], [Value::from(0), Value::from("0Z")]);
        assert_eq!(read.valuation(rows[0][0].clone()).to_string(), seats[0]);
        assert_eq!(rows[1].len(), 3, "the base alone, on the same frame");
    }

    #[test]
    fn unknown_relations_and_wrong_arities_are_the_reference_errors() {
        let db = base();
        for text in ["Nope(x)", "A(x)", "A(f, s), Nope(f)", "A(f), Nope(f)"] {
            let q = atoms(text);
            let reference = eval_atoms(&db, &q, None).unwrap_err();
            let got = ReadSpec::compile(&db, &q).unwrap_err();
            assert_eq!(got, reference, "{text}");
            assert!(matches!(
                got,
                StorageError::NoSuchTable(_) | StorageError::ArityMismatch { .. }
            ));
        }
    }
}
