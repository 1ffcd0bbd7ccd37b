//! Composition of a pending sequence into one body formula (Lemma 3.4 /
//! Theorem 3.5); the rules are in [`crate::formula`]'s module docs.

use std::collections::BTreeSet;

use qdb_logic::{ResourceTransaction, UpdateKind};

use crate::formula::Formula;
use crate::predicate::UnifPredicate;

/// Compose a sequence of transactions into a single body formula
/// (Theorem 3.5), **assuming the transactions' variables are already
/// renamed apart** (`ResourceTransaction::freshen` through one shared
/// generator; the engine's pending lists satisfy this by construction).
///
/// Only non-optional body atoms participate — the quantum database
/// invariant concerns hard constraints only (§2).
pub fn compose_renamed(txns: &[&ResourceTransaction]) -> Formula {
    debug_assert!(vars_disjoint(txns), "transactions must be renamed apart");
    let mut conjuncts = Vec::new();
    for (n, txn) in txns.iter().enumerate() {
        for body in txn.body.iter().filter(|b| !b.optional) {
            let b = &body.atom;
            // Ground extensionally or on any earlier insert, and never on
            // an earlier delete.
            let mut alternatives = vec![Formula::Atom(b.clone())];
            let mut guards = Vec::new();
            for u in txns[..n].iter().flat_map(|t| &t.updates) {
                let phi = UnifPredicate::of(b, &u.atom);
                match u.kind {
                    UpdateKind::Insert => alternatives.push(Formula::pred(phi)),
                    UpdateKind::Delete => guards.push(Formula::not_pred(phi)),
                }
            }
            conjuncts.push(Formula::or(alternatives));
            conjuncts.extend(guards);
        }
    }
    Formula::and(conjuncts)
}

fn vars_disjoint(txns: &[&ResourceTransaction]) -> bool {
    let mut seen = BTreeSet::new();
    txns.iter()
        .flat_map(|t| t.vars())
        .all(|v| seen.insert(v.id()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdb_logic::{parse_transaction, VarGen};

    /// `compose_renamed` over `txns` freshened through one generator.
    fn compose(txns: &[&ResourceTransaction]) -> Formula {
        let mut gen = VarGen::new();
        let renamed: Vec<ResourceTransaction> = txns.iter().map(|t| t.freshen(&mut gen)).collect();
        compose_renamed(&renamed.iter().collect::<Vec<_>>())
    }

    /// The three transactions of Figure 3(a):
    ///   (T1) -B(M, 1, s1), +A(1, s1)  :-1  B(M, 1, s1)
    ///   (T2) -A(f2, s2), +B(D, f2, s2) :-1  A(f2, s2)
    ///   (T3) -A(2, s3), +B(G, 2, s3)  :-1  A(2, s3)
    fn figure3() -> Vec<ResourceTransaction> {
        vec![
            parse_transaction("-B(M, 1, s1), +A(1, s1) :-1 B(M, 1, s1)").unwrap(),
            parse_transaction("-A(f2, s2), +B(D, f2, s2) :-1 A(f2, s2)").unwrap(),
            parse_transaction("-A(2, s3), +B(G, 2, s3) :-1 A(2, s3)").unwrap(),
        ]
    }

    #[test]
    fn figure3_composition_of_first_two() {
        let txns = figure3();
        let t12 = compose(&[&txns[0], &txns[1]]);
        // Figure 3(b), first row (the paper writes (s1 = s2); equality is
        // symmetric and our canonical orientation binds T2's variable):
        assert_eq!(
            t12.to_string(),
            "B('M', 1, s1) ∧ {A(f2, s2) ∨ {(f2 = 1) ∧ (s2 = s1)}}"
        );
    }

    #[test]
    fn figure3_composition_of_all_three() {
        let txns = figure3();
        let t123 = compose(&[&txns[0], &txns[1], &txns[2]]);
        // Figure 3(b), second row.
        assert_eq!(
            t123.to_string(),
            "B('M', 1, s1) ∧ {A(f2, s2) ∨ {(f2 = 1) ∧ (s2 = s1)}} \
             ∧ A(2, s3) ∧ ¬{(f2 = 2) ∧ (s3 = s2)}"
        );
    }

    #[test]
    fn composition_of_single_txn_is_its_body() {
        let txns = figure3();
        assert_eq!(compose(&[&txns[0]]).to_string(), "B('M', 1, s1)");
    }

    #[test]
    fn unrelated_relations_add_no_guards() {
        let t1 = parse_transaction("-X(a) :-1 X(a)").unwrap();
        let t2 = parse_transaction("+Z(b) :-1 Y(b)").unwrap();
        // X's delete can never unify with Y's body atom: formula stays a
        // bare conjunction of the two bodies.
        assert_eq!(compose(&[&t1, &t2]).to_string(), "X(a) ∧ Y(b)");
    }

    #[test]
    fn constant_clash_suppresses_insert_alternative() {
        // T1 inserts A(1, s1); T3-style atom A(2, s3) can never use it.
        let t1 = parse_transaction("+A(1, s1) :-1 B(s1)").unwrap();
        let t2 = parse_transaction("+C(s3) :-1 A(2, s3)").unwrap();
        assert_eq!(compose(&[&t1, &t2]).to_string(), "B(s1) ∧ A(2, s3)");
    }

    #[test]
    fn optional_atoms_excluded_by_default() {
        let t = parse_transaction("+B(x) :-1 A(x), C(x)?").unwrap();
        assert_eq!(compose(&[&t]).to_string(), "A(x)");
    }

    #[test]
    fn composition_is_associative_in_rendering() {
        // A transaction's conjuncts depend only on the transactions before
        // it, and the smart constructors flatten: composing a prefix of the
        // renamed sequence and conjoining the rest gives the composition of
        // the whole, so each prefix renders as a prefix of the whole.
        let txns = figure3();
        let mut gen = VarGen::new();
        let renamed: Vec<ResourceTransaction> = txns.iter().map(|t| t.freshen(&mut gen)).collect();
        let refs: Vec<&ResourceTransaction> = renamed.iter().collect();
        let all = compose_renamed(&refs);
        assert_eq!(all, compose_renamed(&refs));
        for k in 1..refs.len() {
            let head = compose_renamed(&refs[..k]).to_string();
            let rendered = all.to_string();
            assert!(
                rendered.starts_with(&format!("{head} ∧ ")),
                "{head} is not a prefix of {rendered}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "renamed apart")]
    #[cfg(debug_assertions)]
    fn shared_variables_are_rejected_in_debug() {
        let t1 = parse_transaction("-A(x) :-1 A(x)").unwrap();
        let t2 = parse_transaction("-B(x) :-1 B(x)").unwrap(); // same local ids
        let _ = compose_renamed(&[&t1, &t2]);
    }

    #[test]
    fn atom_count_tracks_composed_size() {
        // The paper bounds composed bodies by MySQL's 61-join limit; our
        // measure of "size" is the atom count of the composed formula.
        let txns = figure3();
        let f = compose(&[&txns[0], &txns[1], &txns[2]]);
        assert_eq!(f.atom_count(), 3);
    }
}
