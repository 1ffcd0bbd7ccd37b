//! The unified statement API: `execute()`, typed [`Response`]s, and
//! [`Session`]s with prepared statements.
//!
//! Every engine operation — DDL, blind writes, the three read semantics of
//! §3.2.2, resource transactions and control — is reachable through one
//! entry point:
//!
//! ```
//! use qdb_core::{QuantumDb, QuantumDbConfig, Response};
//!
//! let qdb = QuantumDb::new(QuantumDbConfig::default()).unwrap().into_shared();
//! qdb.execute("CREATE TABLE Available (flight INT, seat TEXT)").unwrap();
//! qdb.execute("INSERT INTO Available VALUES (123, '5A'), (123, '5B')").unwrap();
//! let r = qdb.execute(
//!     "SELECT @s FROM Available(123, @s) CHOOSE 1 \
//!      FOLLOWED BY (DELETE (123, @s) FROM Available; \
//!                   INSERT ('Mickey', 123, @s) INTO Bookings)",
//! );
//! // Bookings does not exist yet: typed error, not a silent failure.
//! assert!(r.is_err());
//! qdb.execute("CREATE TABLE Bookings (name TEXT, flight INT, seat TEXT)").unwrap();
//! let r = qdb.execute(
//!     "SELECT @s FROM Available(123, @s) CHOOSE 1 \
//!      FOLLOWED BY (DELETE (123, @s) FROM Available; \
//!                   INSERT ('Mickey', 123, @s) INTO Bookings)",
//! ).unwrap();
//! assert!(matches!(r, Response::Committed(_)));
//! // The read collapses the pending choice.
//! let rows = qdb.execute("SELECT @s FROM Bookings('Mickey', 123, @s)").unwrap();
//! assert_eq!(rows.rows().unwrap().len(), 1);
//! ```
//!
//! [`Session`] layers prepared statements over the thread-safe
//! [`SharedQuantumDb`] handle: [`Session::prepare`] parses once,
//! [`Prepared::bind`] substitutes positional `?` parameters, and the bound
//! statement re-executes without touching the parser (observable through
//! [`Metrics::parses`](crate::Metrics::parses)).

use qdb_logic::stmt::{ColumnRef, ReadMode, SelectStmt, Statement};
use qdb_logic::{ParsedStatement, Template, Valuation, Var};
use qdb_storage::{Str, Tuple, Value, WriteOp};

use crate::engine::SubmitOutcome;
use crate::error::EngineError;
use crate::shard::SharedQuantumDb;
use crate::{Response, Result};

/// How many flight-recorder events `SHOW EVENTS` returns when the
/// statement carries no `LIMIT`.
pub const DEFAULT_EVENT_LIMIT: usize = 100;

/// Project rows onto the `SELECT` list (`None` = `*`, keep everything).
fn project(rows: Vec<Valuation>, projection: &Option<Vec<Var>>) -> Vec<Valuation> {
    match projection {
        None => rows,
        Some(vars) => rows
            .into_iter()
            .map(|val| {
                vars.iter()
                    .filter_map(|v| val.get(v).map(|value| (v.clone(), value.clone())))
                    .collect()
            })
            .collect(),
    }
}

/// Map a statement's result onto a flight-recorder outcome and the txn id
/// to tag the op's span events with (admissions only).
fn op_outcome(result: &Result<Response>) -> (qdb_obs::Outcome, Option<u64>) {
    match result {
        Ok(Response::Committed(id)) => (qdb_obs::Outcome::Ok, Some(*id)),
        Ok(Response::Aborted) | Ok(Response::Written(false)) => (qdb_obs::Outcome::Aborted, None),
        Ok(_) => (qdb_obs::Outcome::Ok, None),
        Err(_) => (qdb_obs::Outcome::Error, None),
    }
}

fn row_to_tuple(relation: &str, row: &[qdb_logic::Term]) -> Result<Tuple> {
    Tuple::try_from_fn(row.len(), |i| match &row[i] {
        qdb_logic::Term::Const(v) => Ok(v.clone()),
        qdb_logic::Term::Var(v) => {
            Err(EngineError::Logic(qdb_logic::LogicError::UnboundVariable {
                var: format!("{v} (in a {relation} write)"),
            }))
        }
    })
}

/// Resolve a `CREATE INDEX` column reference (name or position) against a
/// schema.
fn resolve_column_on(
    db: &qdb_storage::Database,
    relation: &str,
    column: &ColumnRef,
) -> Result<usize> {
    match column {
        ColumnRef::Position(p) => Ok(*p),
        ColumnRef::Name(name) => {
            let schema = db.table(relation)?.schema().clone();
            schema
                .columns()
                .iter()
                .position(|c| &c.name == name)
                .ok_or_else(|| {
                    EngineError::Storage(qdb_storage::StorageError::InvalidSchema(format!(
                        "no column '{name}' on '{relation}'"
                    )))
                })
        }
    }
}

impl SharedQuantumDb {
    /// Parse and execute one statement, without a statement cache (the
    /// parse is counted in [`Metrics::parses`](crate::Metrics::parses)).
    /// Statements with `?` placeholders are rejected here — prepare them
    /// through a [`Session`] instead.
    pub fn execute(&self, sql: &str) -> Result<Response> {
        let (parsed, lead) = StmtCache::new(0).parse_led(self, sql)?;
        self.execute_led(parsed.into_statement()?, lead)
    }

    /// Execute an already-parsed statement. Each statement class locks
    /// only the state it touches (see [`SharedQuantumDb`]); statements on
    /// disjoint partitions execute concurrently.
    ///
    /// Every statement is bracketed as one observability *op*, here and in
    /// [`SharedQuantumDb::execute_led`] and nowhere else: its latency lands
    /// in the per-class histogram, its root (plus any phase spans it
    /// produced) in the flight recorder, and its span tree in the JSONL
    /// trace sink when one is installed.
    pub fn execute_stmt(&self, stmt: Statement) -> Result<Response> {
        let token = self.obs().begin_op(stmt.class());
        self.run_op(token, stmt)
    }

    /// [`SharedQuantumDb::execute_stmt`] for a statement parsed from text
    /// ([`StmtCache::parse_led`]): its op starts at the parse, whose span
    /// is the first of its tree, so the root's duration includes it.
    pub fn execute_led(&self, stmt: Statement, parse: qdb_obs::Lead) -> Result<Response> {
        let token = self.obs().begin_op_led(stmt.class(), parse);
        self.run_op(token, stmt)
    }

    fn run_op(&self, token: qdb_obs::OpToken, stmt: Statement) -> Result<Response> {
        let result = self.execute_stmt_inner(stmt);
        let (outcome, txn) = op_outcome(&result);
        self.obs().finish_op(token, outcome, txn);
        result
    }

    fn execute_stmt_inner(&self, stmt: Statement) -> Result<Response> {
        match stmt {
            Statement::CreateTable(schema) => {
                self.create_table(schema)?;
                Ok(Response::Ack)
            }
            Statement::CreateIndex { relation, column } => {
                let column = self.with_database(|db| resolve_column_on(db, &relation, &column))?;
                self.create_index(&relation, column)?;
                Ok(Response::Ack)
            }
            Statement::Insert { relation, rows } => {
                self.blind_writes(&relation, &rows, |r, t| WriteOp::insert(r, t))
            }
            Statement::Delete { relation, rows } => {
                self.blind_writes(&relation, &rows, |r, t| WriteOp::delete(r, t))
            }
            Statement::Select(sel) => match sel.mode {
                ReadMode::Collapse => {
                    let rows = self.read(&sel.atoms, sel.limit)?;
                    Ok(Response::Rows(project(rows, &sel.projection)))
                }
                ReadMode::Peek => {
                    let rows = self.read_peek(&sel.atoms, sel.limit)?;
                    Ok(Response::Rows(project(rows, &sel.projection)))
                }
                ReadMode::Possible => {
                    let bound = sel.limit.unwrap_or(SelectStmt::DEFAULT_WORLD_BOUND);
                    let worlds = self.read_possible(&sel.atoms, bound)?;
                    Ok(Response::Worlds(
                        worlds
                            .into_iter()
                            .map(|rows| project(rows, &sel.projection))
                            .collect(),
                    ))
                }
            },
            Statement::Transaction(txn) => {
                let txn = txn.into_transaction()?;
                Ok(match self.submit(&txn)? {
                    SubmitOutcome::Committed { id } => Response::Committed(id),
                    SubmitOutcome::Aborted => Response::Aborted,
                })
            }
            Statement::Ground(id) => {
                // Grounding one id can cascade (coordination partners,
                // strict-mode prefixes): report the actual collapse count,
                // measured under the hosting partition's lock so a racing
                // submit cannot skew it.
                Ok(Response::Grounded(self.ground_counted(id)?.unwrap_or(0)))
            }
            Statement::GroundAll => {
                // Exact count from the grounding's own plans, not a racy
                // before/after pending read.
                Ok(Response::Grounded(self.ground_all_counted()?))
            }
            Statement::Checkpoint => {
                self.checkpoint()?;
                Ok(Response::Ack)
            }
            Statement::ShowMetrics => Ok(Response::Metrics(Box::new(self.metrics()))),
            Statement::ShowPending => Ok(Response::Pending(self.pending_ids())),
            Statement::ShowProfile => Ok(Response::Profile(Box::new(self.profile()))),
            Statement::ShowEvents { limit } => Ok(Response::Events(
                self.obs().events(limit.unwrap_or(DEFAULT_EVENT_LIMIT)),
            )),
            Statement::ShowReplication => Ok(Response::Replication(Box::new(
                crate::repl::ReplicaTracker::new().report(self.wal_size(), self.last_txn_id()),
            ))),
            Statement::Promote => Err(EngineError::Invariant(
                "PROMOTE requires a replica server (this node is already a primary)".into(),
            )),
        }
    }

    fn blind_writes(
        &self,
        relation: &Str,
        rows: &[Vec<qdb_logic::Term>],
        op: impl Fn(&Str, Tuple) -> WriteOp,
    ) -> Result<Response> {
        let mut all = true;
        for row in rows {
            let tuple = row_to_tuple(relation, row)?;
            all &= self.write(op(relation, tuple))?;
        }
        Ok(Response::Written(all))
    }

    /// Open a [`Session`] on this handle.
    pub fn session(&self) -> Session {
        Session::new(self.clone())
    }
}

/// The one text → statement step — [`Session::execute`],
/// [`Session::prepare`] and a server's `EXECUTE`, on a primary or a
/// replica, all take it — behind a bounded LRU of statement *templates*.
///
/// A text's template is the text with its value literals replaced by `?`
/// ([`qdb_logic::strip_literals`]). A hit binds the text's literals by position
/// into the template's parse: exactly the text's own parse, variable ids
/// included, so replies are identical to the byte. A miss parses the text
/// (counted in [`Metrics::parses`](crate::Metrics::parses); its errors are the
/// ones reported), then caches the template only if binding reproduces that
/// parse, else the exact text (e.g. `SELECT @a FROM R(@a) WHERE @a = 5`, whose
/// template does not parse). Hit or miss, the step is timed as the `parse`
/// phase. The lock covers only the byte compares and the LRU order, so
/// connections sharing a cache (a replica's) barely hold it.
pub struct StmtCache {
    capacity: usize,
    /// Most recently used last.
    entries: crate::sync::Mutex<Vec<std::sync::Arc<CachedStmt>>>,
}

struct CachedStmt {
    /// A template, or an exact text ([`Template::exact`]).
    template: Template,
    /// `parse(template.key())`.
    parsed: ParsedStatement,
}

impl StmtCache {
    /// An empty cache of at most `capacity` entries (`0` disables
    /// caching: every text parses).
    pub fn new(capacity: usize) -> Self {
        StmtCache {
            capacity,
            entries: crate::sync::Mutex::new(Vec::new()),
        }
    }

    /// Resolve `sql` to its parsed statement, counting a parse and timing
    /// the step on `db`, the engine that serves the statement.
    pub fn parse(&self, db: &SharedQuantumDb, sql: &str) -> Result<ParsedStatement> {
        self.parse_led(db, sql).map(|(parsed, _)| parsed)
    }

    /// [`StmtCache::parse`], keeping the parse's stamps for
    /// [`SharedQuantumDb::execute_led`]: the statement's op then starts at
    /// its parse.
    pub fn parse_led(
        &self,
        db: &SharedQuantumDb,
        sql: &str,
    ) -> Result<(ParsedStatement, qdb_obs::Lead)> {
        let t0 = db.obs().start();
        let parsed = self.resolve(db, sql);
        let lead = db.obs().lead(qdb_obs::Phase::Parse, t0);
        Ok((parsed?, lead))
    }

    fn resolve(&self, db: &SharedQuantumDb, sql: &str) -> Result<ParsedStatement> {
        let hit = {
            let mut entries = self.entries.lock();
            let pos = entries.iter().rposition(|e| e.template.matches(sql));
            pos.map(|pos| {
                entries[pos..].rotate_left(1); // most recently used last
                std::sync::Arc::clone(&entries[entries.len() - 1])
            })
        };
        if let Some(entry) = hit {
            let literals = entry.template.literals(sql).expect("the template matched");
            // An exact text with `?` placeholders of its own keeps them.
            if literals.len() != entry.parsed.param_count() {
                return Ok(entry.parsed.clone());
            }
            return Ok(ParsedStatement::unparameterized(
                entry.parsed.bind(&literals)?,
            ));
        }
        db.count_parse();
        let parsed = qdb_logic::parse_statement(sql)?;
        if self.capacity == 0 {
            return Ok(parsed);
        }
        let (template, template_parse) = qdb_logic::strip_literals(sql)
            .and_then(|(template, literals)| {
                let parse = qdb_logic::parse_statement(template.key()).ok()?;
                let bound = parse.bind(&literals).ok()?;
                (Ok(&bound) == parsed.statement()).then_some((template, parse))
            })
            .unwrap_or_else(|| (Template::exact(sql), parsed.clone()));
        let entry = CachedStmt {
            template,
            parsed: template_parse,
        };
        let mut entries = self.entries.lock();
        if entries.len() == self.capacity {
            entries.remove(0); // least recently used
        }
        // A racing clone may have inserted the same template meanwhile;
        // the duplicate is harmless (both resolve identically, and the LRU
        // evicts the stale copy).
        entries.push(std::sync::Arc::new(entry));
        Ok(parsed)
    }
}

/// A client session over a [`SharedQuantumDb`]: direct execution plus
/// prepared statements. Sessions are cheap to create and clone — they are
/// the intended per-client handle for servers and workload drivers.
///
/// Every text→statement lookup goes through a per-session [`StmtCache`]
/// (shared by clones), so texts that differ only in their literals parse
/// once — observable through [`Metrics::parses`](crate::Metrics::parses).
/// `qdb-server`'s one-shot EXECUTE path rides on this cache automatically.
///
/// ```
/// use qdb_core::{QuantumDb, QuantumDbConfig, Response};
/// use qdb_storage::Value;
///
/// let qdb = QuantumDb::new(QuantumDbConfig::default()).unwrap().into_shared();
/// qdb.execute("CREATE TABLE Available (flight INT, seat TEXT)").unwrap();
/// let session = qdb.session();
///
/// // Prepare once; the hot loop binds parameters and runs, never
/// // touching the parser again.
/// let insert = session.prepare("INSERT INTO Available VALUES (?, ?)").unwrap();
/// assert_eq!(insert.param_count(), 2);
/// for seat in ["5A", "5B", "5C"] {
///     let r = insert
///         .bind(&[Value::from(123), Value::from(seat)])
///         .unwrap()
///         .run()
///         .unwrap();
///     assert_eq!(r, Response::Written(true));
/// }
/// let rows = session.execute("SELECT @s FROM Available(123, @s)").unwrap();
/// assert_eq!(rows.rows().unwrap().len(), 3);
/// // One parse for the prepare, one for the select, one for the CREATE
/// // TABLE above — the three bound runs never touched the parser.
/// assert_eq!(session.shared().metrics().parses, 3);
/// ```
#[derive(Clone)]
pub struct Session {
    db: SharedQuantumDb,
    cache: std::sync::Arc<StmtCache>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session").finish_non_exhaustive()
    }
}

impl Session {
    /// Statement-cache capacity of [`Session::new`].
    pub const DEFAULT_STMT_CACHE: usize = 128;

    /// Open a session on a shared engine handle with the default
    /// statement-cache capacity.
    pub fn new(db: SharedQuantumDb) -> Self {
        Session::with_stmt_cache(db, Session::DEFAULT_STMT_CACHE)
    }

    /// Open a session with an explicit statement-cache capacity
    /// (`0` disables caching — every execute parses).
    pub fn with_stmt_cache(db: SharedQuantumDb, capacity: usize) -> Self {
        Session {
            db,
            cache: std::sync::Arc::new(StmtCache::new(capacity)),
        }
    }

    /// Resolve one statement through the statement cache and execute it.
    pub fn execute(&self, sql: &str) -> Result<Response> {
        let (parsed, lead) = self.cache.parse_led(&self.db, sql)?;
        self.db.execute_led(parsed.into_statement()?, lead)
    }

    /// Parse once into a reusable [`Prepared`] statement. The hot path
    /// then re-executes via [`Prepared::bind`] + [`Bound::run`] without
    /// re-parsing ([`Metrics::parses`](crate::Metrics::parses) counts
    /// parser entries). Served from the statement cache when a text of the
    /// same shape was seen before.
    pub fn prepare(&self, sql: &str) -> Result<Prepared> {
        let parsed = self.parse(sql)?;
        Ok(Prepared {
            db: self.db.clone(),
            parsed,
        })
    }

    /// The text → statement step of [`Session::execute`] and
    /// [`Session::prepare`] ([`StmtCache::parse`] on this session's
    /// cache): for servers that handle the statement themselves.
    pub fn parse(&self, sql: &str) -> Result<ParsedStatement> {
        self.cache.parse(&self.db, sql)
    }

    /// The underlying shared handle.
    pub fn shared(&self) -> &SharedQuantumDb {
        &self.db
    }
}

/// A statement parsed once, executable many times.
#[derive(Clone)]
pub struct Prepared {
    db: SharedQuantumDb,
    parsed: ParsedStatement,
}

impl std::fmt::Debug for Prepared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prepared")
            .field("statement", &self.parsed.template().kind())
            .field("params", &self.parsed.param_count())
            .finish_non_exhaustive()
    }
}

impl Prepared {
    /// Number of positional `?` placeholders.
    pub fn param_count(&self) -> usize {
        self.parsed.param_count()
    }

    /// Bind positional parameter values, yielding a runnable statement.
    pub fn bind(&self, params: &[Value]) -> Result<Bound> {
        Ok(Bound {
            db: self.db.clone(),
            stmt: self.parsed.bind(params)?,
        })
    }

    /// Run a parameterless prepared statement directly.
    pub fn run(&self) -> Result<Response> {
        let stmt = self.parsed.statement()?.clone();
        self.db.execute_stmt(stmt)
    }
}

/// A prepared statement with all parameters bound.
#[derive(Clone)]
pub struct Bound {
    db: SharedQuantumDb,
    stmt: Statement,
}

impl std::fmt::Debug for Bound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bound")
            .field("statement", &self.stmt.kind())
            .finish_non_exhaustive()
    }
}

impl Bound {
    /// Execute the bound statement, consuming it ([`Prepared::bind`]
    /// builds a fresh one per execution, so the hot loop pays exactly one
    /// statement materialization per run).
    pub fn run(self) -> Result<Response> {
        self.db.execute_stmt(self.stmt)
    }

    /// The statement about to run.
    pub fn statement(&self) -> &Statement {
        &self.stmt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QuantumDbConfig;
    use crate::engine::QuantumDb;

    fn session() -> Session {
        let qdb = QuantumDb::new(QuantumDbConfig::default())
            .unwrap()
            .into_shared();
        qdb.execute("CREATE TABLE R (a INT)").unwrap();
        qdb.session()
    }

    fn parses(s: &Session) -> u64 {
        s.shared().metrics().parses
    }

    #[test]
    fn statements_reach_the_trace_sink_with_their_span_tree() {
        let shared = session().shared().clone();
        let trace = crate::shard::tests::traced(shared.obs());
        assert!(trace().is_empty(), "nothing traced yet");
        shared
            .session()
            .execute("INSERT INTO R VALUES (7)")
            .unwrap();
        let text = trace();
        assert_eq!(text.lines().count(), 1, "one line per statement");
        assert!(text.contains("\"class\":\"INSERT\",\"txn\":-1,"), "{text}");
        // The op starts at the parse, so the parse span opens the tree.
        assert!(
            text.contains("\"spans\":[{\"phase\":\"parse\",\"start_ns\":0,"),
            "the parse is the statement's first span: {text}"
        );
        assert!(
            text.contains("{\"phase\":\"wal_append\",\"start_ns\":"),
            "span tree travels with the statement: {text}"
        );
    }

    #[test]
    fn repeated_execute_of_identical_text_parses_once() {
        let s = session();
        let before = parses(&s);
        for _ in 0..10 {
            s.execute("INSERT INTO R VALUES (1)").unwrap();
        }
        assert_eq!(parses(&s) - before, 1, "statement cache missed");
    }

    #[test]
    fn prepare_shares_the_statement_cache_with_execute() {
        let s = session();
        let before = parses(&s);
        s.execute("SELECT * FROM R(@a)").unwrap();
        let p = s.prepare("SELECT * FROM R(@a)").unwrap();
        p.run().unwrap();
        assert_eq!(parses(&s) - before, 1);
    }

    #[test]
    fn clones_share_one_cache_and_distinct_texts_still_parse() {
        let s = session();
        let clone = s.clone();
        let before = parses(&s);
        s.execute("INSERT INTO R VALUES (2)").unwrap();
        clone.execute("INSERT INTO R VALUES (2)").unwrap();
        // Other literals, same template: a hit.
        clone.execute("INSERT INTO R VALUES (3)").unwrap();
        // Another shape: a parse.
        clone.execute("DELETE FROM R VALUES (3)").unwrap();
        assert_eq!(parses(&s) - before, 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let s = session();
        let uncached = Session::with_stmt_cache(s.shared().clone(), 0);
        let before = parses(&uncached);
        uncached.execute("INSERT INTO R VALUES (4)").unwrap();
        uncached.execute("INSERT INTO R VALUES (4)").unwrap();
        assert_eq!(parses(&uncached) - before, 2);
    }

    #[test]
    fn lru_evicts_least_recently_used_text() {
        let s = Session::with_stmt_cache(session().shared().clone(), 2);
        let [a, b, c] = ["SHOW METRICS", "SHOW PENDING", "SHOW PROFILE"];
        s.parse(a).unwrap();
        s.parse(b).unwrap();
        s.parse(a).unwrap(); // touch: order is now [b, a]
        s.parse(c).unwrap(); // evicts b
        let before = parses(&s);
        s.parse(a).unwrap();
        s.parse(c).unwrap();
        assert_eq!(parses(&s), before, "a and c are cached");
        s.parse(b).unwrap();
        assert_eq!(parses(&s), before + 1, "b was evicted");
    }

    #[test]
    fn parse_errors_are_not_cached_as_successes() {
        let s = session();
        assert!(s.execute("SELECT FROM nothing").is_err());
        assert!(s.execute("SELECT FROM nothing").is_err());
    }
}
