//! Statements of the unified SQL surface.
//!
//! The paper presents resource transactions as a SQL extension (Figure 1);
//! the engine's other operations — DDL, blind writes, reads with the three
//! §3.2.2 uncertainty semantics, grounding and introspection — complete
//! that dialect into one statement grammar. [`Statement`] is the parsed
//! form every front end produces and the engine's `execute_stmt` consumes;
//! [`ParsedStatement`] additionally carries positional `?` placeholders so
//! a statement can be parsed once and re-bound per execution (prepared
//! statements).
//!
//! The statement classes:
//!
//! | Class      | Syntax                                                        |
//! |------------|---------------------------------------------------------------|
//! | DDL        | `CREATE TABLE R (col INT \| TEXT \| BOOL, …)`, `CREATE INDEX ON R (col)` |
//! | Blind write| `INSERT INTO R VALUES (…), (…)`, `DELETE FROM R VALUES (…)`   |
//! | Read       | `SELECT [PEEK \| POSSIBLE] @v, … \| * FROM R(…), … [WHERE …] [LIMIT n]` |
//! | Resource   | `SELECT … FROM … [WHERE …] CHOOSE 1 FOLLOWED BY ( … )`        |
//! | Control    | `GROUND <id>`, `GROUND ALL`, `CHECKPOINT`, `SHOW METRICS`, `SHOW PENDING`, `SHOW PROFILE`, `SHOW EVENTS [LIMIT n]`, `SHOW REPLICATION`, `PROMOTE` |
//!
//! Placeholders (`?`) may appear anywhere a constant may: in `VALUES`
//! rows, in atom argument positions, on one side of a `WHERE` equality
//! (the other side must be a variable), and inside `FOLLOWED BY` writes.

use qdb_storage::{Schema, Str, Value};

use crate::atom::Atom;
use crate::term::{Term, Var};
use crate::transaction::{BodyAtom, ResourceTransaction, UpdateAtom};
use crate::{LogicError, Result};

/// Which §3.2.2 read semantics a `SELECT` requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadMode {
    /// Option 3 (the paper's default): ground interacting pending
    /// transactions first, then answer from the extensional state.
    #[default]
    Collapse,
    /// Option 2 (`SELECT PEEK …`): answer against one possible world
    /// without fixing anything; no stability guarantee.
    Peek,
    /// Option 1 (`SELECT POSSIBLE …`): enumerate possible worlds (bounded
    /// by `LIMIT`, default [`SelectStmt::DEFAULT_WORLD_BOUND`]) and return
    /// the distinct answer sets.
    Possible,
}

/// A parsed read statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectStmt {
    /// Conjunctive query atoms (never optional — `OPTIONAL` belongs to
    /// resource transactions).
    pub atoms: Vec<Atom>,
    /// Projected variables in `SELECT`-list order; `None` means `*`.
    pub projection: Option<Vec<Var>>,
    /// Read semantics.
    pub mode: ReadMode,
    /// `LIMIT n`: row cap for [`ReadMode::Collapse`] / [`ReadMode::Peek`],
    /// world bound for [`ReadMode::Possible`].
    pub limit: Option<usize>,
}

impl SelectStmt {
    /// Possible-world enumeration bound when no `LIMIT` is given.
    pub const DEFAULT_WORLD_BOUND: usize = 64;
}

/// A parsed resource transaction, possibly still containing parameter
/// placeholders (hence not yet a validated [`ResourceTransaction`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnStmt {
    /// The `FOLLOWED BY` writes.
    pub updates: Vec<UpdateAtom>,
    /// The `FROM` items (with `OPTIONAL` flags), `WHERE` already folded in.
    pub body: Vec<BodyAtom>,
}

impl TxnStmt {
    /// Build the validated core form. Fails with
    /// [`LogicError::RangeRestriction`] if an update variable (including a
    /// still-unbound parameter) does not occur in a non-optional body atom.
    pub fn into_transaction(self) -> Result<ResourceTransaction> {
        ResourceTransaction::new(self.updates, self.body)
    }
}

/// How `CREATE INDEX` names its column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnRef {
    /// By schema column name.
    Name(String),
    /// By zero-based position.
    Position(usize),
}

impl std::fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColumnRef::Name(n) => write!(f, "{n}"),
            ColumnRef::Position(p) => write!(f, "#{p}"),
        }
    }
}

/// One statement of the unified dialect — the input to
/// `QuantumDb::execute_stmt`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Statement {
    /// `CREATE TABLE R (a INT, b TEXT, c BOOL)`
    CreateTable(Schema),
    /// `CREATE INDEX ON R (col)`
    CreateIndex {
        /// Indexed relation.
        relation: Str,
        /// Indexed column (name or position).
        column: ColumnRef,
    },
    /// `INSERT INTO R VALUES (…), (…)` — blind non-resource inserts.
    Insert {
        /// Target relation.
        relation: Str,
        /// Rows; terms are constants once parameters are bound.
        rows: Vec<Vec<Term>>,
    },
    /// `DELETE FROM R VALUES (…), (…)` — blind non-resource deletes.
    Delete {
        /// Target relation.
        relation: Str,
        /// Rows; terms are constants once parameters are bound.
        rows: Vec<Vec<Term>>,
    },
    /// `SELECT …` without `CHOOSE` — a read.
    Select(SelectStmt),
    /// `SELECT … CHOOSE 1 FOLLOWED BY (…)` — a resource transaction.
    Transaction(TxnStmt),
    /// `GROUND <id>` — explicitly collapse one pending transaction.
    Ground(u64),
    /// `GROUND ALL` — collapse the whole quantum state.
    GroundAll,
    /// `CHECKPOINT` — append a checkpoint marker to the WAL.
    Checkpoint,
    /// `SHOW METRICS` — engine counters snapshot.
    ShowMetrics,
    /// `SHOW PENDING` — ids of pending transactions.
    ShowPending,
    /// `SHOW PROFILE` — per-class and per-phase latency histograms.
    ShowProfile,
    /// `SHOW EVENTS [LIMIT n]` — recent flight-recorder span events.
    ShowEvents {
        /// `LIMIT n`: how many recent events to return (engine default
        /// when absent).
        limit: Option<usize>,
    },
    /// `SHOW REPLICATION` — replication role, WAL position and per-replica
    /// lag (meaningful on servers; the bare engine reports itself as an
    /// unreplicated primary).
    ShowReplication,
    /// `PROMOTE` — promote a replica server to primary (stops applying the
    /// replication stream, recovers from the local WAL, starts accepting
    /// writes). Only replica servers accept it.
    Promote,
}

impl Statement {
    /// This statement's class: its index in [`qdb_obs::STMT_CLASSES`],
    /// which keys the class histograms and the event kind codes.
    pub fn class(&self) -> usize {
        match self {
            Statement::CreateTable(_) => 0,
            Statement::CreateIndex { .. } => 1,
            Statement::Insert { .. } => 2,
            Statement::Delete { .. } => 3,
            Statement::Select(_) => 4,
            Statement::Transaction(_) => 5,
            Statement::Ground(_) => 6,
            Statement::GroundAll => 7,
            Statement::Checkpoint => 8,
            Statement::ShowMetrics => 9,
            Statement::ShowPending => 10,
            Statement::ShowProfile => 11,
            Statement::ShowEvents { .. } => 12,
            Statement::ShowReplication => 13,
            Statement::Promote => 14,
        }
    }

    /// Short class name for diagnostics (`STMT_CLASSES[self.class()]`).
    pub fn kind(&self) -> &'static str {
        qdb_obs::STMT_CLASSES[self.class()]
    }
}

/// Variable id of the first `?` placeholder; the k-th (from 0) has id
/// `PARAM_BASE + k`. Named variables count up from 0 on their own, so a
/// placeholder never shifts their ids, and binding is a direct index.
/// No placeholder id may reach the engine: every one is bound first.
pub const PARAM_BASE: u32 = 1 << 30;

/// A parsed statement plus its positional parameter placeholders.
///
/// Parameters are represented as reserved variables (display name `?1`,
/// `?2`, …, ids from [`PARAM_BASE`]) inside the statement's atoms and
/// rows; [`ParsedStatement::bind`] substitutes concrete [`Value`]s to
/// produce an executable [`Statement`]. A statement with no placeholders
/// can be executed directly via [`ParsedStatement::statement`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedStatement {
    pub(crate) stmt: Statement,
    pub(crate) params: usize,
}

impl ParsedStatement {
    /// Wrap a statement with no placeholders.
    pub fn unparameterized(stmt: Statement) -> Self {
        ParsedStatement { stmt, params: 0 }
    }

    /// Number of positional `?` placeholders.
    pub fn param_count(&self) -> usize {
        self.params
    }

    /// The statement, if it has no placeholders to bind.
    pub fn statement(&self) -> Result<&Statement> {
        match self.params {
            0 => Ok(&self.stmt),
            n => Err(LogicError::Params {
                expected: n,
                got: 0,
            }),
        }
    }

    /// The statement by value, if it has no placeholders to bind.
    pub fn into_statement(self) -> Result<Statement> {
        self.statement()?;
        Ok(self.stmt)
    }

    /// The statement template (placeholders appear as `?N` variables).
    pub fn template(&self) -> &Statement {
        &self.stmt
    }

    /// Substitute positional values for the placeholders, producing an
    /// executable statement. `values.len()` must equal
    /// [`ParsedStatement::param_count`]; placeholder `?k` takes
    /// `values[k - 1]`.
    pub fn bind(&self, values: &[Value]) -> Result<Statement> {
        if values.len() != self.params {
            return Err(LogicError::Params {
                expected: self.params,
                got: values.len(),
            });
        }
        if self.params == 0 {
            return Ok(self.stmt.clone());
        }
        let term = |t: &Term| match t {
            Term::Var(v) if v.id() >= PARAM_BASE => values
                .get((v.id() - PARAM_BASE) as usize)
                .map_or_else(|| t.clone(), |value| Term::Const(value.clone())),
            _ => t.clone(),
        };
        let row = |row: &Vec<Term>| -> Vec<Term> { row.iter().map(term).collect() };
        let atom = |a: &Atom| Atom {
            relation: a.relation.clone(),
            terms: row(&a.terms),
        };
        Ok(match &self.stmt {
            Statement::Insert { relation, rows } => Statement::Insert {
                relation: relation.clone(),
                rows: rows.iter().map(row).collect(),
            },
            Statement::Delete { relation, rows } => Statement::Delete {
                relation: relation.clone(),
                rows: rows.iter().map(row).collect(),
            },
            Statement::Select(sel) => Statement::Select(SelectStmt {
                atoms: sel.atoms.iter().map(atom).collect(),
                projection: sel.projection.clone(),
                mode: sel.mode,
                limit: sel.limit,
            }),
            Statement::Transaction(txn) => Statement::Transaction(TxnStmt {
                updates: txn
                    .updates
                    .iter()
                    .map(|u| UpdateAtom {
                        kind: u.kind,
                        atom: atom(&u.atom),
                    })
                    .collect(),
                body: txn
                    .body
                    .iter()
                    .map(|b| BodyAtom {
                        atom: atom(&b.atom),
                        optional: b.optional,
                    })
                    .collect(),
            }),
            other => other.clone(),
        })
    }
}

/// Range restriction for a transaction *template*: update variables must
/// occur in a non-optional body atom, except parameter placeholders, which
/// are constants by execution time.
pub(crate) fn validate_template(txn: &TxnStmt) -> Result<()> {
    let bound: std::collections::BTreeSet<&Var> = txn
        .body
        .iter()
        .filter(|b| !b.optional)
        .flat_map(|b| b.atom.vars())
        .collect();
    for u in &txn.updates {
        for v in u.atom.vars() {
            if v.id() < PARAM_BASE && !bound.contains(v) {
                return Err(LogicError::RangeRestriction {
                    var: v.name().to_string(),
                });
            }
        }
    }
    Ok(())
}
