//! SQL-style surface syntax: the full statement grammar of the unified
//! `execute()` API.
//!
//! The paper introduces resource transactions as a SQL extension with
//! three new keywords — `OPTIONAL`, `CHOOSE 1` and `FOLLOWED BY` — but its
//! prototype "does not accept and parse resource transactions in their SQL
//! format, only in the intermediate Datalog-like representation" (§4).
//! This module implements the SQL front end as an extension over a
//! positional-atom dialect that matches the storage layer, and grows it
//! into a complete statement grammar (see [`crate::stmt`] for the
//! statement classes):
//!
//! ```text
//! SELECT @f, @s
//! FROM Available(@f, @s),
//!      OPTIONAL Bookings('Goofy', @f, @s2),
//!      OPTIONAL Adjacent(@s, @s2)
//! WHERE @f = 123
//! CHOOSE 1
//! FOLLOWED BY (
//!     DELETE (@f, @s) FROM Available;
//!     INSERT ('Mickey', @f, @s) INTO Bookings;
//! )
//! ```
//!
//! * `FROM` items are relational atoms; `OPTIONAL` marks soft preferences
//!   (the paper's `OPTIONAL` join items / `WHERE` conjuncts).
//! * `WHERE` supports equality conjuncts `@v = literal` and `@v = @w`,
//!   folded into the atoms by substitution before the transaction is
//!   built (so the Datalog core stays pure).
//! * `CHOOSE 1` makes a `SELECT` a resource transaction — one requesting
//!   exactly one grounding (§2). Without it, `SELECT` is a read, with
//!   `PEEK` / `POSSIBLE` modifiers selecting the §3.2.2 semantics and an
//!   optional `LIMIT`.
//! * `FOLLOWED BY` contains only blind writes, as required by §2: "no
//!   reads are permitted within the FOLLOWED BY block".
//! * `INSERT INTO R VALUES (…)` / `DELETE FROM R VALUES (…)` are blind
//!   non-resource writes; `CREATE TABLE` / `CREATE INDEX` are DDL;
//!   `GROUND <id>` / `GROUND ALL` / `CHECKPOINT` / `SHOW METRICS` /
//!   `SHOW PENDING` / `SHOW PROFILE` / `SHOW EVENTS [LIMIT n]` are
//!   control statements.
//! * `?` is a positional parameter placeholder (prepared statements).
//!   [`strip_literals`] turns a text with literals into such a
//!   [`Template`] plus its literals, so a statement cache can serve
//!   texts that differ only in their literals from one parse.
//!
//! Keywords are case-insensitive; variables are `@name`; literals are
//! integers, `'strings'` and `true`/`false`. `CREATE`, `TABLE`, `INDEX`,
//! `ON`, `VALUES` and `LIMIT` are reserved and cannot name relations or
//! columns; `GROUND`, `SHOW`, `CHECKPOINT`, `PEEK`, `POSSIBLE`, `ALL`,
//! `METRICS`, `PENDING`, `PROFILE` and `EVENTS` are contextual (only
//! special where the grammar expects them).

use std::collections::HashMap;
use std::num::ParseIntError;

use qdb_storage::{Schema, Value, ValueType};

use crate::atom::Atom;
use crate::stmt::{
    validate_template, ColumnRef, ParsedStatement, ReadMode, SelectStmt, Statement, TxnStmt,
    PARAM_BASE,
};
use crate::substitution::Substitution;
use crate::term::{Term, Var, VarGen};
use crate::transaction::{BodyAtom, ResourceTransaction, UpdateAtom};
use crate::{LogicError, Result};

/// Parse one statement of the unified dialect (with `?` placeholders).
pub fn parse_statement(input: &str) -> Result<ParsedStatement> {
    SqlParser::new(input)?.statement()
}

/// Parse a SQL-style resource transaction into the Datalog-like core form.
///
/// Compatibility entry point over [`parse_statement`]: accepts exactly the
/// `SELECT … CHOOSE 1 FOLLOWED BY (…)` class, without placeholders.
pub fn parse_sql_transaction(input: &str) -> Result<ResourceTransaction> {
    match parse_statement(input)?.into_statement()? {
        Statement::Transaction(t) => t.into_transaction(),
        other => Err(LogicError::Parse {
            at: 0,
            reason: format!(
                "expected a resource transaction, found a {} statement",
                other.kind()
            ),
        }),
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Kw(&'static str), // canonical uppercase keyword
    Ident(String),
    Var(String),
    Int(i64),
    Str(String),
    Comma,
    LParen,
    RParen,
    Semi,
    Eq,
    Star,
    Param,
    Eof,
}

const KEYWORDS: &[&str] = &[
    "SELECT", "FROM", "OPTIONAL", "WHERE", "AND", "CHOOSE", "FOLLOWED", "BY", "DELETE", "INSERT",
    "INTO", "TRUE", "FALSE", "CREATE", "TABLE", "INDEX", "ON", "VALUES", "LIMIT",
];

/// One lexeme as [`scan`] reports it, borrowed from the input.
enum Lexeme<'a> {
    /// Punctuation, `?` included: a [`Tok`] that carries no data.
    Punct(Tok),
    /// A keyword or an identifier.
    Word(&'a str),
    /// A variable's name (after the `@`).
    Var(&'a str),
    Int(i64),
    /// The text between a string literal's quotes.
    Str(&'a str),
}

impl Lexeme<'_> {
    /// A literal's value; `None` for any other lexeme.
    fn value(self) -> Option<Value> {
        match self {
            Lexeme::Int(n) => Some(Value::Int(n)),
            Lexeme::Str(s) => Some(string_value(s)),
            _ => None,
        }
    }
}

/// The dialect's lexical rules: walk `input` and report every lexeme with
/// its byte span. [`lex`] builds the parser's tokens from it and
/// [`strip_literals`] a statement template, and [`Template::literals`]
/// reads literals with the same [`string_at`] / [`int_at`], so none of
/// them can disagree on where a literal starts or ends.
fn scan<'a>(input: &'a str, mut emit: impl FnMut(Lexeme<'a>, usize, usize)) -> Result<()> {
    let bytes = input.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        let lexeme = match c {
            c if c.is_whitespace() => {
                i += 1;
                continue;
            }
            ',' | '(' | ')' | ';' | '=' | '*' | '?' => {
                i += 1;
                Lexeme::Punct(match c {
                    ',' => Tok::Comma,
                    '(' => Tok::LParen,
                    ')' => Tok::RParen,
                    ';' => Tok::Semi,
                    '=' => Tok::Eq,
                    '*' => Tok::Star,
                    _ => Tok::Param,
                })
            }
            '@' => {
                i += 1;
                while i < bytes.len() && is_word(bytes[i]) {
                    i += 1;
                }
                if i == start + 1 {
                    return Err(LogicError::Parse {
                        at: start,
                        reason: "expected variable name after '@'".into(),
                    });
                }
                Lexeme::Var(&input[start + 1..i])
            }
            '\'' => {
                let Some((text, end)) = string_at(input, start) else {
                    return Err(LogicError::Parse {
                        at: start,
                        reason: "unterminated string literal".into(),
                    });
                };
                i = end;
                Lexeme::Str(text)
            }
            '-' | '0'..='9' => {
                let (n, end) = int_at(input, start);
                i = end;
                Lexeme::Int(n.map_err(|e| LogicError::Parse {
                    at: start,
                    reason: format!("bad integer: {e}"),
                })?)
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                while i < bytes.len() && is_word(bytes[i]) {
                    i += 1;
                }
                Lexeme::Word(&input[start..i])
            }
            other => {
                return Err(LogicError::Parse {
                    at: i,
                    reason: format!("unexpected character '{other}'"),
                })
            }
        };
        emit(lexeme, start, i);
    }
    Ok(())
}

/// A byte that continues a keyword, identifier or variable name.
fn is_word(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The string literal whose opening quote is at `start`: its text and the
/// offset past its closing quote, or `None` when it is unterminated.
fn string_at(input: &str, start: usize) -> Option<(&str, usize)> {
    let len = input.as_bytes()[start + 1..]
        .iter()
        .position(|&b| b == b'\'')?;
    Some((&input[start + 1..start + 1 + len], start + len + 2))
}

/// The integer literal (`-`, then digits) at `start`, and the offset past
/// it.
fn int_at(input: &str, start: usize) -> (std::result::Result<i64, ParseIntError>, usize) {
    let bytes = input.as_bytes();
    let mut end = start + usize::from(bytes[start] == b'-');
    while end < bytes.len() && bytes[end].is_ascii_digit() {
        end += 1;
    }
    (input[start..end].parse(), end)
}

/// A string literal's value, one `char` per byte as the lexer reads it.
fn string_value(text: &str) -> Value {
    if text.is_ascii() {
        Value::interned(text)
    } else {
        Value::interned(&text.bytes().map(char::from).collect::<String>())
    }
}

fn lex(input: &str) -> Result<Vec<(Tok, usize)>> {
    let mut toks = Vec::new();
    scan(input, |lexeme, at, _| {
        let tok = match lexeme {
            Lexeme::Punct(t) => t,
            Lexeme::Word(w) => {
                let upper = w.to_ascii_uppercase();
                match KEYWORDS.iter().find(|k| **k == upper) {
                    Some(kw) => Tok::Kw(kw),
                    None => Tok::Ident(w.to_string()),
                }
            }
            Lexeme::Var(name) => Tok::Var(name.to_string()),
            Lexeme::Int(n) => Tok::Int(n),
            Lexeme::Str(s) => Tok::Str(s.bytes().map(char::from).collect()),
        };
        toks.push((tok, at));
    })?;
    toks.push((Tok::Eof, input.len()));
    Ok(toks)
}

/// A statement text with its value literals replaced by `?` — the key
/// under which texts that differ only in those literals share one parsed
/// statement — and where each `?` sits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Template {
    key: String,
    /// Byte offset in `key` of each placeholder, ascending.
    holes: Vec<usize>,
}

impl Template {
    /// A template with no placeholders: it matches `text` alone.
    pub fn exact(text: &str) -> Self {
        Template {
            key: text.to_string(),
            holes: Vec::new(),
        }
    }

    /// The template text.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The literals of `text` in this template's placeholders: `Some`
    /// exactly when [`strip_literals`] would give `text` this template.
    /// The text is compared with the key, not scanned.
    pub fn literals(&self, text: &str) -> Option<Vec<Value>> {
        let mut literals = Vec::with_capacity(self.holes.len());
        self.walk(text, |lexeme| literals.extend(lexeme.value()))?;
        Some(literals)
    }

    /// `literals(text).is_some()`, without making any literal's value.
    pub fn matches(&self, text: &str) -> bool {
        self.walk(text, |_| ()).is_some()
    }

    /// Compare `text` with the key outside the placeholders, handing each
    /// placeholder's literal to `literal`; `None` on the first mismatch.
    fn walk<'t>(&self, text: &'t str, mut literal: impl FnMut(Lexeme<'t>)) -> Option<()> {
        let (key, bytes) = (self.key.as_bytes(), text.as_bytes());
        let (mut k, mut t) = (0, 0);
        for &hole in &self.holes {
            if !bytes[t..].starts_with(&key[k..hole]) {
                return None;
            }
            t += hole - k;
            let (lexeme, end) = match *bytes.get(t)? {
                b'\'' => {
                    let (s, end) = string_at(text, t)?;
                    (Lexeme::Str(s), end)
                }
                // The token before would swallow a leading digit.
                b'0'..=b'9' if t > 0 && (is_word(bytes[t - 1]) || bytes[t - 1] == b'-') => {
                    return None
                }
                b'-' | b'0'..=b'9' => {
                    let (n, end) = int_at(text, t);
                    (Lexeme::Int(n.ok()?), end)
                }
                _ => return None,
            };
            literal(lexeme);
            (k, t) = (hole + 1, end);
        }
        (bytes[t..] == key[k..]).then_some(())
    }
}

/// The text's [`Template`] and its value literals in order: the integers
/// (optional leading `-`) and `'strings'` where a `?` is legal — inside
/// parentheses or right after `=`. Others (`CHOOSE 1`, `LIMIT n`,
/// `GROUND n`) stay in the key. `None` when the text has `?` placeholders
/// of its own or does not lex. One pass, no tokens allocated.
pub fn strip_literals(input: &str) -> Option<(Template, Vec<Value>)> {
    let mut key = String::with_capacity(input.len());
    let (mut holes, mut literals) = (Vec::new(), Vec::new());
    let (mut depth, mut after_eq, mut copied, mut placeholder) = (0i32, false, 0, false);
    scan(input, |lexeme, start, end| {
        let value_position = depth > 0 || after_eq;
        after_eq = false;
        let literal = match lexeme {
            Lexeme::Int(n) if value_position => Value::Int(n),
            Lexeme::Str(s) if value_position => string_value(s),
            Lexeme::Punct(tok) => {
                match tok {
                    Tok::LParen => depth += 1,
                    Tok::RParen => depth -= 1,
                    Tok::Eq => after_eq = true,
                    _ => placeholder |= tok == Tok::Param,
                }
                return;
            }
            _ => return,
        };
        key.push_str(&input[copied..start]);
        holes.push(key.len());
        key.push('?');
        copied = end;
        literals.push(literal);
    })
    .ok()?;
    if placeholder {
        return None;
    }
    key.push_str(&input[copied..]);
    Some((Template { key, holes }, literals))
}

struct SqlParser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
    vargen: VarGen,
    vars: HashMap<String, Var>,
    /// Placeholders so far; the next one takes id `PARAM_BASE + params`.
    params: usize,
}

impl SqlParser {
    fn new(input: &str) -> Result<Self> {
        Ok(SqlParser {
            toks: lex(input)?,
            pos: 0,
            vargen: VarGen::new(),
            vars: HashMap::new(),
            params: 0,
        })
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].0
    }

    fn at(&self) -> usize {
        self.toks[self.pos].1
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].0.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, reason: impl Into<String>) -> LogicError {
        LogicError::Parse {
            at: self.at(),
            reason: reason.into(),
        }
    }

    fn error_at(&self, at: usize, reason: impl Into<String>) -> LogicError {
        LogicError::Parse {
            at,
            reason: reason.into(),
        }
    }

    fn expect_kw(&mut self, kw: &'static str) -> Result<()> {
        match self.bump() {
            Tok::Kw(k) if k == kw => Ok(()),
            other => Err(self.error(format!("expected {kw}, found {other:?}"))),
        }
    }

    fn expect(&mut self, t: Tok, what: &str) -> Result<()> {
        let got = self.bump();
        if got == t {
            Ok(())
        } else {
            Err(self.error(format!("expected {what}, found {got:?}")))
        }
    }

    /// Is the current token an identifier equal (case-insensitively) to
    /// the given contextual keyword?
    fn at_ident(&self, word: &str) -> bool {
        matches!(self.peek(), Tok::Ident(w) if w.eq_ignore_ascii_case(word))
    }

    fn var(&mut self, name: String) -> Var {
        match self.vars.get(&name) {
            Some(v) => v.clone(),
            None => {
                let v = self.vargen.fresh(&name);
                self.vars.insert(name, v.clone());
                v
            }
        }
    }

    /// Allocate the next positional parameter placeholder. Its id comes
    /// from the placeholders' own range, so a `?` never shifts the ids of
    /// the named variables after it: a template binds to the very
    /// statement its literal text parses to.
    fn param(&mut self) -> Var {
        self.params += 1;
        Var::new(
            PARAM_BASE + self.params as u32 - 1,
            format!("?{}", self.params),
        )
    }

    fn is_param(&self, t: &Term) -> bool {
        matches!(t, Term::Var(v) if v.id() >= PARAM_BASE)
    }

    fn term(&mut self) -> Result<Term> {
        match self.bump() {
            Tok::Var(name) => Ok(Term::Var(self.var(name))),
            Tok::Param => Ok(Term::Var(self.param())),
            Tok::Int(i) => Ok(Term::val(i)),
            // Parsed string constants go through the interning pool: the
            // same seat label / user name re-parsed across statements
            // resolves to one shared `Arc`.
            Tok::Str(s) => Ok(Term::Const(Value::interned(&s))),
            Tok::Kw("TRUE") => Ok(Term::Const(Value::Bool(true))),
            Tok::Kw("FALSE") => Ok(Term::Const(Value::Bool(false))),
            other => Err(self.error(format!("expected term, found {other:?}"))),
        }
    }

    fn term_list(&mut self) -> Result<Vec<Term>> {
        self.expect(Tok::LParen, "'('")?;
        let mut terms = Vec::new();
        if *self.peek() != Tok::RParen {
            loop {
                terms.push(self.term()?);
                if *self.peek() == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen, "')'")?;
        Ok(terms)
    }

    fn relation_name(&mut self) -> Result<String> {
        match self.bump() {
            Tok::Ident(name) => Ok(name),
            Tok::Kw(kw) => {
                Err(self.error(format!("'{kw}' is reserved and cannot name a relation")))
            }
            other => Err(self.error(format!("expected relation name, found {other:?}"))),
        }
    }

    fn atom(&mut self) -> Result<Atom> {
        let rel = self.relation_name()?;
        let terms = self.term_list()?;
        Ok(Atom::new(rel, terms))
    }

    // -- Statement dispatch --------------------------------------------------

    fn statement(&mut self) -> Result<ParsedStatement> {
        let stmt = match self.peek() {
            Tok::Kw("SELECT") => self.select_like()?,
            Tok::Kw("INSERT") => self.insert_stmt()?,
            Tok::Kw("DELETE") => self.delete_stmt()?,
            Tok::Kw("CREATE") => self.create_stmt()?,
            Tok::Ident(_) if self.at_ident("GROUND") => self.ground_stmt()?,
            Tok::Ident(_) if self.at_ident("SHOW") => self.show_stmt()?,
            Tok::Ident(_) if self.at_ident("CHECKPOINT") => {
                self.bump();
                Statement::Checkpoint
            }
            Tok::Ident(_) if self.at_ident("PROMOTE") => {
                self.bump();
                Statement::Promote
            }
            other => {
                return Err(self.error(format!(
                    "expected a statement (SELECT, INSERT, DELETE, CREATE, GROUND, SHOW, \
                     CHECKPOINT or PROMOTE), found {other:?}"
                )))
            }
        };
        if *self.peek() == Tok::Semi {
            self.bump();
        }
        match self.bump() {
            Tok::Eof => {}
            other => return Err(self.error(format!("trailing input: {other:?}"))),
        }
        Ok(ParsedStatement {
            stmt,
            params: self.params,
        })
    }

    // -- SELECT: read or resource transaction --------------------------------

    fn select_like(&mut self) -> Result<Statement> {
        self.expect_kw("SELECT")?;
        let mode = if self.at_ident("PEEK") {
            self.bump();
            ReadMode::Peek
        } else if self.at_ident("POSSIBLE") {
            self.bump();
            ReadMode::Possible
        } else {
            ReadMode::Collapse
        };

        // Projection: `*` or a term list. For a resource transaction the
        // projection is informational (the grounding binds every variable
        // anyway); for a read it selects the output variables.
        let mut proj_at = self.at();
        let projection: Option<Vec<Term>> = if *self.peek() == Tok::Star {
            self.bump();
            None
        } else {
            proj_at = self.at();
            let mut terms = vec![self.term()?];
            while *self.peek() == Tok::Comma {
                self.bump();
                terms.push(self.term()?);
            }
            if terms.iter().any(|t| self.is_param(t)) {
                return Err(self.error_at(proj_at, "parameters cannot be projected"));
            }
            Some(terms)
        };

        // FROM item (, item)* where item := [OPTIONAL] Atom
        self.expect_kw("FROM")?;
        let mut body: Vec<BodyAtom> = Vec::new();
        let mut first_optional_at: Option<usize> = None;
        loop {
            let optional = if *self.peek() == Tok::Kw("OPTIONAL") {
                first_optional_at.get_or_insert(self.at());
                self.bump();
                true
            } else {
                false
            };
            body.push(BodyAtom {
                atom: self.atom()?,
                optional,
            });
            if *self.peek() == Tok::Comma {
                self.bump();
            } else {
                break;
            }
        }

        let subst = self.where_clause()?;

        if *self.peek() == Tok::Kw("CHOOSE") {
            if mode != ReadMode::Collapse {
                return Err(self.error(
                    "PEEK/POSSIBLE are read modifiers; a resource transaction (CHOOSE 1) \
                     always defers its grounding",
                ));
            }
            return self.transaction_tail(body, &subst);
        }

        // A plain read.
        if let Some(at) = first_optional_at {
            return Err(self.error_at(
                at,
                "OPTIONAL atoms are only valid in resource transactions (CHOOSE 1 …)",
            ));
        }
        let limit = if *self.peek() == Tok::Kw("LIMIT") {
            self.bump();
            match self.bump() {
                Tok::Int(n) if n >= 0 => Some(n as usize),
                other => {
                    return Err(self.error(format!(
                        "LIMIT takes a non-negative integer, found {other:?}"
                    )))
                }
            }
        } else {
            None
        };
        let atoms = body.into_iter().map(|b| b.atom.apply(&subst)).collect();
        let projection = match projection {
            None => None,
            Some(terms) => {
                let mut vars: Vec<Var> = Vec::new();
                for t in &terms {
                    let resolved = subst.resolve(t);
                    // A projected variable aliased to a parameter through
                    // WHERE would vanish from the result rows once bound:
                    // reject it like a directly-projected `?`.
                    if self.is_param(&resolved) {
                        return Err(self.error_at(
                            proj_at,
                            "parameters cannot be projected (a WHERE equality binds \
                             this variable to '?')",
                        ));
                    }
                    if let Term::Var(v) = resolved {
                        if !vars.contains(&v) {
                            vars.push(v);
                        }
                    }
                }
                Some(vars)
            }
        };
        Ok(Statement::Select(SelectStmt {
            atoms,
            projection,
            mode,
            limit,
        }))
    }

    /// `WHERE eq (AND eq)*` — optional clause, folded into a substitution.
    fn where_clause(&mut self) -> Result<Substitution> {
        let mut subst = Substitution::new();
        if *self.peek() != Tok::Kw("WHERE") {
            return Ok(subst);
        }
        self.bump();
        loop {
            let lhs = self.term()?;
            self.expect(Tok::Eq, "'='")?;
            let rhs = self.term()?;
            let at = self.at();
            let lv = subst.resolve(&lhs);
            let rv = subst.resolve(&rhs);
            let bound = match (self.is_param(&lv), self.is_param(&rv)) {
                (true, true) => {
                    return Err(self.error_at(at, "parameters cannot be equated with each other"))
                }
                // Bind the non-param side to the parameter so the
                // placeholder survives into the statement template.
                (true, false) | (false, true) => {
                    let (param, other) = if self.is_param(&lv) {
                        (lv, rv)
                    } else {
                        (rv, lv)
                    };
                    match other {
                        Term::Var(ref v) => subst.bind(v, &param),
                        Term::Const(_) => {
                            return Err(self.error_at(
                                at,
                                "a parameter must be compared to a variable, not a literal",
                            ))
                        }
                    }
                }
                (false, false) => match (&lv, &rv) {
                    (Term::Var(v), t) | (t, Term::Var(v)) => subst.bind(v, t),
                    (Term::Const(a), Term::Const(b)) => a == b,
                },
            };
            if !bound {
                return Err(self.error_at(at, "contradictory WHERE equalities"));
            }
            if *self.peek() == Tok::Kw("AND") {
                self.bump();
            } else {
                break;
            }
        }
        Ok(subst)
    }

    /// `CHOOSE 1 FOLLOWED BY ( write; … )` after a SELECT prefix.
    fn transaction_tail(&mut self, body: Vec<BodyAtom>, subst: &Substitution) -> Result<Statement> {
        self.expect_kw("CHOOSE")?;
        match self.bump() {
            Tok::Int(1) => {}
            other => {
                return Err(self.error(format!(
                    "resource transactions require CHOOSE 1, found {other:?}"
                )))
            }
        }

        self.expect_kw("FOLLOWED")?;
        self.expect_kw("BY")?;
        self.expect(Tok::LParen, "'('")?;
        let mut updates: Vec<UpdateAtom> = Vec::new();
        loop {
            match self.peek() {
                Tok::RParen => {
                    self.bump();
                    break;
                }
                Tok::Kw("DELETE") => {
                    self.bump();
                    let terms = self.term_list()?;
                    self.expect_kw("FROM")?;
                    let rel = self.relation_name()?;
                    updates.push(UpdateAtom::delete(Atom::new(rel, terms)));
                }
                Tok::Kw("INSERT") => {
                    self.bump();
                    let terms = self.term_list()?;
                    self.expect_kw("INTO")?;
                    let rel = self.relation_name()?;
                    updates.push(UpdateAtom::insert(Atom::new(rel, terms)));
                }
                other => {
                    return Err(self.error(format!(
                        "expected DELETE, INSERT or ')' in FOLLOWED BY block \
                         (reads are not permitted, §2), found {other:?}"
                    )))
                }
            }
            if *self.peek() == Tok::Semi {
                self.bump();
            }
        }
        if updates.is_empty() {
            return Err(LogicError::Parse {
                at: self.at(),
                reason: "FOLLOWED BY block must contain at least one write".into(),
            });
        }

        // Fold WHERE equalities into the atoms and build the template.
        let txn = TxnStmt {
            updates: updates
                .into_iter()
                .map(|u| UpdateAtom {
                    kind: u.kind,
                    atom: u.atom.apply(subst),
                })
                .collect(),
            body: body
                .into_iter()
                .map(|b| BodyAtom {
                    atom: b.atom.apply(subst),
                    optional: b.optional,
                })
                .collect(),
        };
        validate_template(&txn)?;
        Ok(Statement::Transaction(txn))
    }

    // -- Blind writes --------------------------------------------------------

    fn insert_stmt(&mut self) -> Result<Statement> {
        self.expect_kw("INSERT")?;
        if *self.peek() == Tok::LParen {
            return Err(self.error(
                "top-level inserts are INSERT INTO <relation> VALUES (…); \
                 INSERT (…) INTO <relation> is only valid inside FOLLOWED BY",
            ));
        }
        self.expect_kw("INTO")?;
        let relation = self.relation_name()?;
        self.expect_kw("VALUES")?;
        let rows = self.value_rows()?;
        Ok(Statement::Insert { relation, rows })
    }

    fn delete_stmt(&mut self) -> Result<Statement> {
        self.expect_kw("DELETE")?;
        if *self.peek() == Tok::LParen {
            return Err(self.error(
                "top-level deletes are DELETE FROM <relation> VALUES (…); \
                 DELETE (…) FROM <relation> is only valid inside FOLLOWED BY",
            ));
        }
        self.expect_kw("FROM")?;
        let relation = self.relation_name()?;
        self.expect_kw("VALUES")?;
        let rows = self.value_rows()?;
        Ok(Statement::Delete { relation, rows })
    }

    /// `( term, … ) (, ( term, … ))*` where terms are literals or `?`.
    fn value_rows(&mut self) -> Result<Vec<Vec<Term>>> {
        let mut rows = Vec::new();
        loop {
            let row_at = self.at();
            let row = self.term_list()?;
            if let Some(bad) = row.iter().find(|t| t.is_var() && !self.is_param(t)) {
                return Err(self.error_at(
                    row_at,
                    format!("VALUES rows take literals or '?' parameters, found variable '{bad}'"),
                ));
            }
            rows.push(row);
            if *self.peek() == Tok::Comma {
                self.bump();
            } else {
                break;
            }
        }
        Ok(rows)
    }

    // -- DDL -----------------------------------------------------------------

    fn create_stmt(&mut self) -> Result<Statement> {
        self.expect_kw("CREATE")?;
        match self.bump() {
            Tok::Kw("TABLE") => {
                let relation = self.relation_name()?;
                self.expect(Tok::LParen, "'('")?;
                let mut columns: Vec<(String, ValueType)> = Vec::new();
                loop {
                    let name = match self.bump() {
                        Tok::Ident(n) => n,
                        Tok::Kw(kw) => {
                            return Err(
                                self.error(format!("'{kw}' is reserved and cannot name a column"))
                            )
                        }
                        other => {
                            return Err(self.error(format!("expected column name, found {other:?}")))
                        }
                    };
                    let ty = self.column_type()?;
                    columns.push((name, ty));
                    if *self.peek() == Tok::Comma {
                        self.bump();
                    } else {
                        break;
                    }
                }
                self.expect(Tok::RParen, "')'")?;
                let schema = Schema::new(
                    relation,
                    columns.iter().map(|(n, t)| (n.as_str(), *t)).collect(),
                );
                Ok(Statement::CreateTable(schema))
            }
            Tok::Kw("INDEX") => {
                self.expect_kw("ON")?;
                let relation = self.relation_name()?;
                self.expect(Tok::LParen, "'('")?;
                let column = match self.bump() {
                    Tok::Ident(name) => ColumnRef::Name(name),
                    Tok::Int(i) if i >= 0 => ColumnRef::Position(i as usize),
                    other => {
                        return Err(self.error(format!(
                            "expected a column name or position, found {other:?}"
                        )))
                    }
                };
                self.expect(Tok::RParen, "')'")?;
                Ok(Statement::CreateIndex { relation, column })
            }
            other => Err(self.error(format!("expected TABLE or INDEX, found {other:?}"))),
        }
    }

    fn column_type(&mut self) -> Result<ValueType> {
        match self.bump() {
            Tok::Ident(w) => match w.to_ascii_uppercase().as_str() {
                "INT" | "INTEGER" | "BIGINT" => Ok(ValueType::Int),
                "TEXT" | "STR" | "STRING" | "VARCHAR" => Ok(ValueType::Str),
                "BOOL" | "BOOLEAN" => Ok(ValueType::Bool),
                other => Err(self.error(format!(
                    "unknown column type '{other}' (supported: INT, TEXT, BOOL)"
                ))),
            },
            other => Err(self.error(format!("expected a column type, found {other:?}"))),
        }
    }

    // -- Control -------------------------------------------------------------

    fn ground_stmt(&mut self) -> Result<Statement> {
        self.bump(); // GROUND
        if self.at_ident("ALL") {
            self.bump();
            return Ok(Statement::GroundAll);
        }
        match self.bump() {
            Tok::Int(i) if i >= 0 => Ok(Statement::Ground(i as u64)),
            other => Err(self.error(format!(
                "GROUND takes a transaction id or ALL, found {other:?}"
            ))),
        }
    }

    fn show_stmt(&mut self) -> Result<Statement> {
        self.bump(); // SHOW
        if self.at_ident("METRICS") {
            self.bump();
            Ok(Statement::ShowMetrics)
        } else if self.at_ident("PENDING") {
            self.bump();
            Ok(Statement::ShowPending)
        } else if self.at_ident("PROFILE") {
            self.bump();
            Ok(Statement::ShowProfile)
        } else if self.at_ident("EVENTS") {
            self.bump();
            let limit = if *self.peek() == Tok::Kw("LIMIT") {
                self.bump();
                match self.bump() {
                    Tok::Int(n) if n >= 0 => Some(n as usize),
                    other => {
                        return Err(self.error(format!(
                            "LIMIT takes a non-negative integer, found {other:?}"
                        )))
                    }
                }
            } else {
                None
            };
            Ok(Statement::ShowEvents { limit })
        } else if self.at_ident("REPLICATION") {
            self.bump();
            Ok(Statement::ShowReplication)
        } else {
            Err(self.error(format!(
                "SHOW supports METRICS, PENDING, PROFILE, EVENTS and REPLICATION, found {:?}",
                self.peek()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_transaction;

    const MICKEY_SQL: &str = "\
        SELECT @f, @s \
        FROM Available(@f, @s), \
             OPTIONAL Bookings('Goofy', @f, @s2), \
             OPTIONAL Adjacent(@s, @s2) \
        CHOOSE 1 \
        FOLLOWED BY ( \
            DELETE (@f, @s) FROM Available; \
            INSERT ('Mickey', @f, @s) INTO Bookings; \
        )";

    #[test]
    fn figure1_style_transaction_parses() {
        let t = parse_sql_transaction(MICKEY_SQL).unwrap();
        assert_eq!(t.updates.len(), 2);
        assert_eq!(t.body.len(), 3);
        assert_eq!(t.optional_body().count(), 2);
        // The SQL form and the Datalog form produce the same transaction.
        let datalog = parse_transaction(
            "-Available(f, s), +Bookings('Mickey', f, s) :-1 \
             Available(f, s), Bookings('Goofy', f, s2)?, Adjacent(s, s2)?",
        )
        .unwrap();
        assert_eq!(t.to_string(), datalog.to_string());
    }

    #[test]
    fn where_equalities_fold_into_atoms() {
        let t = parse_sql_transaction(
            "SELECT @s FROM Available(@f, @s) WHERE @f = 123 \
             CHOOSE 1 FOLLOWED BY (DELETE (@f, @s) FROM Available)",
        )
        .unwrap();
        assert_eq!(t.to_string(), "-Available(123, s) :-1 Available(123, s)");
        // Var-var equality aliases the two.
        let t = parse_sql_transaction(
            "SELECT @a FROM R(@a, @b) WHERE @a = @b \
             CHOOSE 1 FOLLOWED BY (INSERT (@a) INTO S)",
        )
        .unwrap();
        let atom = &t.body[0].atom;
        assert_eq!(atom.terms[0], atom.terms[1]);
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let t = parse_sql_transaction(
            "select @s from Available(1, @s) choose 1 \
             followed by (delete (1, @s) from Available)",
        )
        .unwrap();
        assert_eq!(t.updates.len(), 1);
    }

    #[test]
    fn choose_must_be_one() {
        let err =
            parse_sql_transaction("SELECT @s FROM A(@s) CHOOSE 2 FOLLOWED BY (DELETE (@s) FROM A)")
                .unwrap_err();
        assert!(err.to_string().contains("CHOOSE 1"));
    }

    #[test]
    fn reads_in_followed_by_are_rejected() {
        let err = parse_sql_transaction("SELECT @s FROM A(@s) CHOOSE 1 FOLLOWED BY (SELECT @s)")
            .unwrap_err();
        assert!(err.to_string().contains("not permitted"));
    }

    #[test]
    fn empty_followed_by_rejected() {
        let err =
            parse_sql_transaction("SELECT @s FROM A(@s) CHOOSE 1 FOLLOWED BY ()").unwrap_err();
        assert!(err.to_string().contains("at least one write"));
    }

    #[test]
    fn contradictory_where_rejected() {
        let err = parse_sql_transaction(
            "SELECT @s FROM A(@s) WHERE @s = 1 AND @s = 2 \
             CHOOSE 1 FOLLOWED BY (DELETE (@s) FROM A)",
        )
        .unwrap_err();
        assert!(err.to_string().contains("contradictory"));
    }

    #[test]
    fn range_restriction_still_enforced() {
        // @z appears only in the update: invalid per §2.
        let err =
            parse_sql_transaction("SELECT @s FROM A(@s) CHOOSE 1 FOLLOWED BY (INSERT (@z) INTO B)")
                .unwrap_err();
        assert!(matches!(err, LogicError::RangeRestriction { .. }));
    }

    #[test]
    fn parse_errors_carry_position() {
        let err = parse_sql_transaction("SELECT").unwrap_err();
        assert!(matches!(err, LogicError::Parse { .. }));
        let err = parse_sql_transaction("SELECT @s FROM A(@s").unwrap_err();
        assert!(matches!(err, LogicError::Parse { .. }));
        let err = parse_sql_transaction("SELECT @s FROM A(@s) CHOOSE 1").unwrap_err();
        assert!(matches!(err, LogicError::Parse { .. }));
    }

    #[test]
    fn sql_transaction_runs_through_a_live_engine() {
        // End-to-end: the SQL front end drives the quantum engine exactly
        // like the Datalog form does. (Uses only logic-level checks here;
        // full engine round-trip lives in the facade integration tests.)
        let t = parse_sql_transaction(MICKEY_SQL).unwrap();
        t.validate().unwrap();
        let mut gen = VarGen::starting_at(100);
        let fresh = t.freshen(&mut gen);
        assert_eq!(fresh.to_string(), t.to_string());
    }

    // -- Statement grammar ---------------------------------------------------

    fn stmt(input: &str) -> Statement {
        let parsed = parse_statement(input).unwrap();
        assert_eq!(parsed.param_count(), 0, "unexpected params in {input:?}");
        parsed.statement().unwrap().clone()
    }

    #[test]
    fn create_table_parses_types_and_keeps_column_order() {
        let s = stmt("CREATE TABLE Bookings (name TEXT, flight INT, window BOOL)");
        let Statement::CreateTable(schema) = s else {
            panic!("not a CREATE TABLE: {s:?}");
        };
        assert_eq!(schema.relation(), "Bookings");
        assert_eq!(schema.arity(), 3);
        assert_eq!(
            schema.columns().iter().map(|c| c.ty).collect::<Vec<_>>(),
            vec![ValueType::Str, ValueType::Int, ValueType::Bool]
        );
    }

    #[test]
    fn create_index_by_name_and_position() {
        assert_eq!(
            stmt("CREATE INDEX ON Available (flight)"),
            Statement::CreateIndex {
                relation: "Available".into(),
                column: ColumnRef::Name("flight".into()),
            }
        );
        assert_eq!(
            stmt("CREATE INDEX ON Available (0)"),
            Statement::CreateIndex {
                relation: "Available".into(),
                column: ColumnRef::Position(0),
            }
        );
    }

    #[test]
    fn insert_and_delete_rows() {
        let s = stmt("INSERT INTO Available VALUES (123, '5A'), (123, '5B')");
        let Statement::Insert { relation, rows } = s else {
            panic!("not an INSERT");
        };
        assert_eq!(relation, "Available");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], vec![Term::val(123), Term::val("5A")]);
        let s = stmt("DELETE FROM Available VALUES (123, '5A')");
        assert!(matches!(s, Statement::Delete { ref rows, .. } if rows.len() == 1));
    }

    #[test]
    fn select_reads_with_modes_and_limit() {
        let Statement::Select(sel) = stmt("SELECT @f, @s FROM Bookings('Mickey', @f, @s)") else {
            panic!("not a SELECT");
        };
        assert_eq!(sel.mode, ReadMode::Collapse);
        assert_eq!(sel.limit, None);
        assert_eq!(sel.projection.as_ref().unwrap().len(), 2);

        let Statement::Select(sel) = stmt("SELECT PEEK * FROM Bookings(@n, @f, @s) LIMIT 10")
        else {
            panic!("not a SELECT");
        };
        assert_eq!(sel.mode, ReadMode::Peek);
        assert_eq!(sel.limit, Some(10));
        assert!(sel.projection.is_none());

        let Statement::Select(sel) = stmt("SELECT POSSIBLE @s FROM Available(1, @s)") else {
            panic!("not a SELECT");
        };
        assert_eq!(sel.mode, ReadMode::Possible);
    }

    #[test]
    fn select_where_folds_constants_for_reads() {
        let Statement::Select(sel) = stmt("SELECT @s FROM Available(@f, @s) WHERE @f = 123") else {
            panic!("not a SELECT");
        };
        assert_eq!(sel.atoms[0].terms[0], Term::val(123));
        // The bound variable drops out of the projection if folded away.
        let Statement::Select(sel) = stmt("SELECT @f, @s FROM Available(@f, @s) WHERE @f = 123")
        else {
            panic!("not a SELECT");
        };
        assert_eq!(sel.projection.as_ref().unwrap().len(), 1);
    }

    #[test]
    fn control_statements_parse() {
        assert_eq!(stmt("GROUND 7"), Statement::Ground(7));
        assert_eq!(stmt("ground all"), Statement::GroundAll);
        assert_eq!(stmt("CHECKPOINT"), Statement::Checkpoint);
        assert_eq!(stmt("SHOW METRICS"), Statement::ShowMetrics);
        assert_eq!(stmt("SHOW PENDING;"), Statement::ShowPending);
        assert_eq!(stmt("SHOW PROFILE"), Statement::ShowProfile);
        assert_eq!(stmt("show events"), Statement::ShowEvents { limit: None });
        assert_eq!(
            stmt("SHOW EVENTS LIMIT 25;"),
            Statement::ShowEvents { limit: Some(25) }
        );
        assert!(parse_statement("SHOW EVENTS LIMIT -1").is_err());
        assert!(parse_statement("SHOW TABLES").is_err());
        assert_eq!(stmt("SHOW REPLICATION"), Statement::ShowReplication);
        assert_eq!(stmt("show replication;"), Statement::ShowReplication);
        assert_eq!(stmt("PROMOTE"), Statement::Promote);
        assert_eq!(stmt("promote;"), Statement::Promote);
        assert!(parse_statement("PROMOTE 3").is_err());
    }

    #[test]
    fn parsed_string_constants_are_interned() {
        // Re-parsing the same statement text yields constants sharing one
        // Arc — the parser goes through the storage interning pool.
        let extract = |stmt: &Statement| -> Value {
            let Statement::Insert { rows, .. } = stmt else {
                panic!("insert expected");
            };
            let Term::Const(v) = &rows[0][0] else {
                panic!("constant expected");
            };
            v.clone()
        };
        let sql = "INSERT INTO B VALUES ('sql-intern-test-9Z')";
        let a = extract(&stmt(sql));
        let b = extract(&stmt(sql));
        let (Value::Str(a), Value::Str(b)) = (&a, &b) else {
            panic!("string values expected");
        };
        assert!(
            std::sync::Arc::ptr_eq(a, b),
            "re-parsed string constants must share one Arc"
        );
    }

    #[test]
    fn params_are_positional_and_bind_in_order() {
        let parsed = parse_statement(
            "SELECT @s FROM Available(?, @s) \
             CHOOSE 1 FOLLOWED BY (DELETE (?, @s) FROM Available; \
                                   INSERT (?, ?, @s) INTO Bookings)",
        )
        .unwrap();
        assert_eq!(parsed.param_count(), 4);
        // Unbound templates refuse to execute.
        assert!(parsed.statement().is_err());
        let bound = parsed
            .bind(&[
                Value::from(123),
                Value::from(123),
                Value::from("Mickey"),
                Value::from(123),
            ])
            .unwrap();
        let Statement::Transaction(t) = bound else {
            panic!("not a transaction");
        };
        let txn = t.into_transaction().unwrap();
        assert_eq!(
            txn.to_string(),
            "-Available(123, s), +Bookings('Mickey', 123, s) :-1 Available(123, s)"
        );
    }

    #[test]
    fn params_in_where_and_values() {
        let parsed =
            parse_statement("SELECT @f, @s FROM Bookings(@n, @f, @s) WHERE @n = ?").unwrap();
        assert_eq!(parsed.param_count(), 1);
        let Statement::Select(sel) = parsed.bind(&[Value::from("Mickey")]).unwrap() else {
            panic!("not a SELECT");
        };
        assert_eq!(sel.atoms[0].terms[0], Term::val("Mickey"));

        let parsed = parse_statement("INSERT INTO Available VALUES (?, ?)").unwrap();
        let Statement::Insert { rows, .. } =
            parsed.bind(&[Value::from(1), Value::from("1A")]).unwrap()
        else {
            panic!("not an INSERT");
        };
        assert_eq!(rows[0], vec![Term::val(1), Term::val("1A")]);

        // Wrong arity is an error, not a silent truncation.
        assert!(matches!(
            parsed.bind(&[Value::from(1)]),
            Err(LogicError::Params {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn statement_error_paths_carry_positions() {
        for bad in [
            "CREATE TABLE",                  // missing name
            "CREATE TABLE T (x FLOAT)",      // unknown type
            "CREATE TABLE SELECT (x INT)",   // reserved relation
            "CREATE INDEX Available (0)",    // missing ON
            "INSERT INTO T",                 // missing VALUES
            "INSERT (1) INTO T",             // FOLLOWED BY form at top level
            "DELETE (1) FROM T",             // FOLLOWED BY form at top level
            "INSERT INTO T VALUES (@x)",     // variable in VALUES
            "SELECT @s FROM OPTIONAL A(@s)", // OPTIONAL outside a txn
            "SELECT PEEK @s FROM A(@s) CHOOSE 1 FOLLOWED BY (DELETE (@s) FROM A)",
            "SELECT ? FROM A(@s)",              // projected param
            "SELECT @s FROM A(@s) WHERE ? = ?", // param = param
            "SELECT @s FROM A(@s) WHERE ? = 1", // param = literal
            "GROUND",                           // missing id
            "GROUND -3",                        // negative id
            "SHOW TABLES",                      // unsupported
            "EXPLAIN SELECT",                   // unknown statement
            "SELECT @s FROM A(@s) LIMIT -1",    // bad limit
            "SELECT @s FROM A(@s) extra",       // trailing input
        ] {
            let err = parse_statement(bad).unwrap_err();
            assert!(matches!(err, LogicError::Parse { .. }), "{bad:?} → {err:?}");
        }
    }

    #[test]
    fn optional_read_is_rejected_with_position() {
        let err = parse_statement("SELECT @s FROM A(@s), OPTIONAL B(@s)").unwrap_err();
        let LogicError::Parse { at, reason } = err else {
            panic!("not a parse error");
        };
        assert!(reason.contains("OPTIONAL"));
        assert!(at > 0);
    }

    // -- Statement templates ---------------------------------------------------

    #[test]
    fn strip_literals_lifts_value_literals_only() {
        let strip = |text| strip_literals(text).map(|(t, lits)| (t.key, lits));
        assert_eq!(
            strip("SELECT * FROM R2('x', @s2) LIMIT 5"),
            Some((
                "SELECT * FROM R2(?, @s2) LIMIT 5".into(),
                vec![Value::from("x")]
            ))
        );
        assert_eq!(
            strip("SELECT @s FROM A(@f, @s) WHERE @f = -3 CHOOSE 1 FOLLOWED BY (DELETE (@f, @s) FROM A)"),
            Some((
                "SELECT @s FROM A(@f, @s) WHERE @f = ? CHOOSE 1 FOLLOWED BY (DELETE (@f, @s) FROM A)"
                    .into(),
                vec![Value::from(-3)]
            ))
        );
        assert_eq!(strip("GROUND 7"), Some(("GROUND 7".into(), vec![])));
        assert_eq!(
            strip("INSERT INTO R VALUES (?, 1)"),
            None,
            "own placeholder"
        );
        assert_eq!(
            strip("INSERT INTO R VALUES ('a?b', 1)").unwrap().0,
            "INSERT INTO R VALUES (?, ?)"
        );
        assert_eq!(strip("INSERT INTO R VALUES (99999999999999999999)"), None);
        assert_eq!(strip("INSERT INTO R VALUES ('open"), None);
    }

    #[test]
    fn template_literals_match_only_texts_of_the_template() {
        let template = |text| strip_literals(text).unwrap().0;
        let t = template("SELECT * FROM R2('x', @s2) LIMIT 5");
        assert_eq!(
            t.literals("SELECT * FROM R2(-7, @s2) LIMIT 5"),
            Some(vec![Value::from(-7)])
        );
        for other in [
            "SELECT * FROM R2('x', @s2) LIMIT 6",
            "SELECT * FROM R2(@v, @s2) LIMIT 5",
            "SELECT * FROM R2(?, @s2) LIMIT 5",
            "SELECT * FROM R2('x', @s2) LIMIT 5 ",
            "SELECT * FROM R2('x, @s2) LIMIT 5",
            "SELECT * FROM R2(-, @s2) LIMIT 5",
        ] {
            assert_eq!(t.literals(other), None, "{other:?}");
            assert!(!t.matches(other), "{other:?}");
        }
        // `@x` then a string is two tokens; `@x5` is one variable.
        let t = template("SELECT * FROM R(@x'a')");
        assert_eq!(
            t.literals("SELECT * FROM R(@x'b')"),
            Some(vec![Value::from("b")])
        );
        assert_eq!(t.literals("SELECT * FROM R(@x5)"), None);
        let exact = Template::exact("SHOW PENDING");
        assert_eq!(exact.literals("SHOW PENDING"), Some(vec![]));
        assert_eq!(exact.literals("SHOW METRICS"), None);
    }

    /// splitmix64, for the seeded corpus below.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A literal as SQL text: strings over the characters that matter to
    /// the scanner, integers of either sign and every size, some past i64.
    fn literal(rng: &mut u64) -> String {
        const CHARS: &[u8] = b"()=?@;,*-_ 09aZ";
        match next(rng) % 6 {
            0 | 1 => {
                let len = next(rng) % 6;
                let s: String = (0..len)
                    .map(|_| CHARS[(next(rng) % CHARS.len() as u64) as usize] as char)
                    .collect();
                format!("'{s}'")
            }
            2 => (next(rng) % 1000).to_string(),
            3 => format!("-{}", next(rng) % 1000),
            _ => [
                "0",
                "9223372036854775807",
                "-9223372036854775808",
                "9223372036854775808",
                "-99999999999999999999",
            ][(next(rng) % 5) as usize]
                .to_string(),
        }
    }

    /// Statement shapes of every class; `{}` is a literal.
    const SHAPES: &[&str] = &[
        "SELECT @s FROM Available({}, @s), OPTIONAL Bookings({}, {}, @s2), \
         OPTIONAL Adjacent(@s, @s2) CHOOSE 1 FOLLOWED BY (DELETE ({}, @s) FROM Available; \
         INSERT ({}, {}, @s) INTO Bookings;)",
        "SELECT @s FROM Available(@f, @s) WHERE @f = {} CHOOSE 1 \
         FOLLOWED BY (DELETE (@f, @s) FROM Available)",
        "SELECT PEEK @f, @s FROM Bookings({}, @f, @s)",
        "SELECT POSSIBLE @f, @s FROM Bookings({}, @f, @s) LIMIT 32",
        "select @f,@s from Bookings({},@f,@s)",
        "SELECT * FROM R2({}, @a2) WHERE @b = {}",
        "INSERT INTO Available VALUES ({}, {}), ({}, {})",
        "DELETE FROM Bookings VALUES ({}, {}, {});",
        "CREATE TABLE T1 (a INT, b TEXT)",
        "GROUND {}",
        "SHOW EVENTS LIMIT {}",
        "GROUND ALL",
        "CHECKPOINT",
        "SHOW PENDING",
        "PROMOTE",
        "INSERT INTO R VALUES (?, {})",
        "SELECT * FROM R(@x{}, {})",
    ];

    /// Shapes whose template must not stand in for the text: it does not
    /// parse, or it binds to a different statement.
    const FALLBACK: &[&str] = &[
        "SELECT @a FROM R(@a) WHERE @a = {}",
        "SELECT @f, @s FROM Available(@f, @s) WHERE @f = {}",
        "SELECT @a FROM R(@a) WHERE @a = {} AND @a = {}",
        "SELECT @a FROM R(@a) WHERE {} = {}",
        "CREATE INDEX ON R ({})",
    ];

    /// `key`'s tokens are `text`'s with each stripped literal — exactly
    /// the integers and strings inside parentheses or right after `=` —
    /// replaced by `?`, and `literals` are those literals in order.
    fn assert_template_tokens(text: &str, key: &str, literals: &[Value]) {
        let (text_toks, key_toks) = (lex(text).unwrap(), lex(key).unwrap());
        assert_eq!(text_toks.len(), key_toks.len(), "{text:?} → {key:?}");
        let mut stripped = literals.iter();
        let (mut depth, mut after_eq) = (0, false);
        for ((t, _), (k, _)) in text_toks.iter().zip(&key_toks) {
            let literal = match t {
                Tok::Int(n) => Some(Value::Int(*n)),
                Tok::Str(s) => Some(Value::interned(s)),
                _ => None,
            };
            match literal {
                Some(v) if depth > 0 || after_eq => {
                    assert_eq!(*k, Tok::Param, "{text:?} → {key:?}");
                    assert_eq!(stripped.next(), Some(&v), "{text:?} → {key:?}");
                }
                _ => assert_eq!(t, k, "{text:?} → {key:?}"),
            }
            depth += match t {
                Tok::LParen => 1,
                Tok::RParen => -1,
                _ => 0,
            };
            after_eq = *t == Tok::Eq;
        }
        assert_eq!(stripped.next(), None, "{text:?}: literals left over");
    }

    /// For every text of the corpus: its template's tokens are the text's
    /// with the value literals replaced (checked against `lex`); where the
    /// text parses, the template binds to exactly the text's parse — or,
    /// for the fallback shapes, does not; and an earlier template of the
    /// same or another shape reads literals from the text exactly when it
    /// is the text's own template.
    #[test]
    fn templates_lex_and_bind_like_their_texts() {
        let shapes: Vec<(&str, bool)> = SHAPES
            .iter()
            .map(|s| (*s, false))
            .chain(FALLBACK.iter().map(|s| (*s, true)))
            .collect();
        let mut last: Vec<Option<Template>> = vec![None; shapes.len()];
        let (mut bound, mut fell_back, mut bad_text, mut unstripped, mut matched) = (0, 0, 0, 0, 0);
        for case in 0..4000u64 {
            let mut rng = 0x7E3F_0000 ^ case;
            let index = case as usize % shapes.len();
            let (shape, fallback) = shapes[index];
            let mut text = String::new();
            for (i, piece) in shape.split("{}").enumerate() {
                if i > 0 {
                    text.push_str(&literal(&mut rng));
                }
                text.push_str(piece);
            }
            let stripped = strip_literals(&text);
            let other = (next(&mut rng) % shapes.len() as u64) as usize;
            for earlier in [&last[index], &last[other]].into_iter().flatten() {
                let own = stripped.as_ref().filter(|(t, _)| t == earlier);
                assert_eq!(
                    earlier.literals(&text).as_ref(),
                    own.map(|(_, l)| l),
                    "{text:?}"
                );
                assert_eq!(earlier.matches(&text), own.is_some(), "{text:?}");
                matched += usize::from(own.is_some());
            }
            let Some((template, literals)) = stripped else {
                assert!(text.contains('?') || lex(&text).is_err(), "{text:?}");
                unstripped += 1;
                continue;
            };
            assert_template_tokens(&text, &template.key, &literals);
            last[index] = Some(template.clone());
            let Ok(parsed) = parse_statement(&text) else {
                bad_text += 1;
                continue;
            };
            let reproduced = parse_statement(&template.key)
                .and_then(|t| t.bind(&literals))
                .map(|s| format!("{s:?}"));
            if fallback {
                assert_ne!(
                    reproduced.ok(),
                    Some(format!("{:?}", parsed.stmt)),
                    "{text:?}"
                );
                fell_back += 1;
            } else {
                // Debug output compares variable names as well as ids.
                assert_eq!(reproduced, Ok(format!("{:?}", parsed.stmt)), "{text:?}");
                bound += 1;
            }
        }
        assert!(
            bound > 1000 && fell_back > 100 && bad_text > 100 && unstripped > 100 && matched > 1000,
            "corpus lost coverage: {bound} bound, {fell_back} fallbacks, {bad_text} bad texts, \
             {unstripped} unstripped, {matched} matched"
        );
    }
}
