//! Binary serialization of resource transactions.
//!
//! Used for the WAL's pending-transactions records (§4 "Recovery": pending
//! resource transactions are serialized into a special table before commit)
//! — variable ids are preserved exactly so that the recovered in-memory
//! quantum state matches the pre-crash state.

use qdb_storage::codec::{self as scodec, Reader, MAX_LOG_COUNT};
use qdb_storage::StorageError;

use crate::atom::Atom;
use crate::term::{Term, Var};
use crate::transaction::{BodyAtom, ResourceTransaction, UpdateAtom, UpdateKind};
use crate::{LogicError, Result};

const T_VAR: u8 = 0;
const T_CONST: u8 = 1;

/// Bytes of the shortest encoded atom (empty relation name, no terms),
/// and of the shortest update or body entry (a flag byte and an atom).
const MIN_ATOM_BYTES: usize = 8;
const MIN_ENTRY_BYTES: usize = 1 + MIN_ATOM_BYTES;

fn put_term(buf: &mut Vec<u8>, t: &Term) {
    match t {
        Term::Var(v) => {
            buf.push(T_VAR);
            scodec::put_u32(buf, v.id());
            scodec::put_string(buf, v.name());
        }
        Term::Const(v) => {
            buf.push(T_CONST);
            scodec::put_value(buf, v);
        }
    }
}

fn get_term(r: &mut Reader) -> qdb_storage::Result<Term> {
    match r.u8()? {
        T_VAR => Ok(Term::Var(Var::new(r.u32()?, r.str()?))),
        T_CONST => Ok(Term::Const(scodec::get_value(r)?)),
        t => Err(StorageError::Codec(format!("unknown term tag {t}"))),
    }
}

fn put_atom(buf: &mut Vec<u8>, a: &Atom) {
    scodec::put_string(buf, &a.relation);
    scodec::put_u32(buf, a.terms.len() as u32);
    for t in &a.terms {
        put_term(buf, t);
    }
}

fn get_atom(r: &mut Reader) -> qdb_storage::Result<Atom> {
    let relation = r.str()?;
    // A constant term is a tag byte and a value.
    let n = r.count(MAX_LOG_COUNT, 1 + scodec::MIN_VALUE_BYTES, "atom arity")?;
    let mut terms = Vec::with_capacity(n);
    for _ in 0..n {
        terms.push(get_term(r)?);
    }
    Ok(Atom::new(relation, terms))
}

/// Serialize a transaction to bytes.
pub fn encode_transaction(t: &ResourceTransaction) -> Vec<u8> {
    let mut buf = Vec::with_capacity(128);
    scodec::put_u32(&mut buf, t.updates.len() as u32);
    for u in &t.updates {
        buf.push(match u.kind {
            UpdateKind::Insert => 0,
            UpdateKind::Delete => 1,
        });
        put_atom(&mut buf, &u.atom);
    }
    scodec::put_u32(&mut buf, t.body.len() as u32);
    for b in &t.body {
        buf.push(u8::from(b.optional));
        put_atom(&mut buf, &b.atom);
    }
    buf
}

/// Deserialize a transaction from bytes; bytes past its end are an error.
pub fn decode_transaction(bytes: &[u8]) -> Result<ResourceTransaction> {
    let (updates, body) =
        decode_parts(&mut Reader::new(bytes)).map_err(|e| LogicError::Codec(e.to_string()))?;
    ResourceTransaction::new(updates, body)
}

fn decode_parts(r: &mut Reader) -> qdb_storage::Result<(Vec<UpdateAtom>, Vec<BodyAtom>)> {
    let nu = r.count(MAX_LOG_COUNT, MIN_ENTRY_BYTES, "update count")?;
    let mut updates = Vec::with_capacity(nu);
    for _ in 0..nu {
        let kind = match r.u8()? {
            0 => UpdateKind::Insert,
            1 => UpdateKind::Delete,
            t => return Err(StorageError::Codec(format!("unknown update kind {t}"))),
        };
        updates.push(UpdateAtom {
            kind,
            atom: get_atom(r)?,
        });
    }
    let nb = r.count(MAX_LOG_COUNT, MIN_ENTRY_BYTES, "body count")?;
    let mut body = Vec::with_capacity(nb);
    for _ in 0..nb {
        let optional = r.u8()? != 0;
        body.push(BodyAtom {
            atom: get_atom(r)?,
            optional,
        });
    }
    r.finish()?;
    Ok((updates, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_transaction;

    #[test]
    fn transaction_roundtrip_preserves_everything() {
        let t = parse_transaction(
            "-Available(f, s), +Bookings('Mickey', f, s) :-1 \
             Available(f, s), Bookings('Goofy', f, s2)?, Adjacent(s, s2)?",
        )
        .unwrap();
        let bytes = encode_transaction(&t);
        let back = decode_transaction(&bytes).unwrap();
        assert_eq!(t, back);
        // Variable ids — not just names — must survive.
        let ids_a: Vec<u32> = t.vars().iter().map(Var::id).collect();
        let ids_b: Vec<u32> = back.vars().iter().map(Var::id).collect();
        assert_eq!(ids_a, ids_b);
    }

    #[test]
    fn truncation_yields_errors_not_panics() {
        let t = parse_transaction("+B(M, x) :-1 A(x)").unwrap();
        let bytes = encode_transaction(&t);
        for cut in 0..bytes.len() {
            assert!(decode_transaction(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let t = parse_transaction("+B(M, x) :-1 A(x)").unwrap();
        let mut bytes = encode_transaction(&t);
        bytes.push(0);
        assert!(decode_transaction(&bytes).is_err());
    }

    #[test]
    fn garbage_rejected() {
        assert!(decode_transaction(&[0xFF; 16]).is_err());
        assert!(decode_transaction(&[]).is_err());
    }
}
