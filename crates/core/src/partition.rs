//! Independence partitioning (§4 "Quantum State").
//!
//! *"Some resource transactions are totally independent of each other,
//! i.e., there is no unification possible between them … The system
//! partitions the resource transactions accordingly into independent sets
//! and maintains a separate composed transaction body for each set."*
//!
//! Two transactions are dependent when any atom of one may denote the same
//! tuple as any atom of the other (same relation, no clashing constants —
//! the conservative `may_overlap` test). A new transaction that overlaps
//! several partitions forces them to merge (the paper's window-seat /
//! aisle-seat example).

use qdb_logic::{Atom, ResourceTransaction, UpdateKind};
use qdb_solver::{CachedSolution, Overlay, SolverError};
use qdb_storage::Database;

use crate::txn::PendingTxn;

/// One independent set of pending transactions plus its cached solution.
///
/// ```
/// use qdb_core::{Footprint, Partition};
/// use qdb_logic::parse_transaction;
///
/// let booking = |flight: i64, name: &str| {
///     parse_transaction(&format!(
///         "-Available({flight}, s), +Bookings('{name}', {flight}, s) \
///          :-1 Available({flight}, s)"
///     ))
///     .unwrap()
/// };
/// // Bookings on different flights never unify: they are independent and
/// // would live in separate partitions (§4 "Quantum State").
/// let mickey = Footprint::of_txn(&booking(1, "Mickey"));
/// assert!(!mickey.overlaps_txn(&booking(2, "Donald")));
/// assert!(mickey.overlaps_txn(&booking(1, "Donald")));
///
/// // An empty partition's footprint — the overlap summary the sharded
/// // engine's registry keeps outside the partition lock — overlaps nothing.
/// assert!(!Partition::new().footprint().overlaps_txn(&booking(1, "Mickey")));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Partition {
    /// Pending transactions in arrival order.
    pub txns: Vec<PendingTxn>,
    /// One known-consistent grounding, parallel to `txns`.
    pub cache: CachedSolution,
    /// The maintained pending world: `cache`'s pending updates applied as
    /// a virtual state over the base. Admission extends it by the
    /// newcomer, a grounding in the residue's world retracts the group
    /// from it, a blind write that touches no grounded atom leaves it
    /// alone, and PEEK reads it (see [`crate::ground`], "The
    /// untouched-residue lemma"). Strictly an acceleration of `cache`:
    /// every other change of `cache.valuations` clears it
    /// ([`Partition::invalidate_solution_caches`]), the next user rebuilds
    /// it ([`Partition::ensure_world`]), and debug builds assert every
    /// reuse against a fresh rebuild.
    pub(crate) overlay_cache: Option<Overlay>,
}

impl Partition {
    /// Empty partition.
    pub fn new() -> Self {
        Partition::default()
    }

    /// Number of pending transactions.
    pub fn len(&self) -> usize {
        self.txns.len()
    }

    /// True when no transactions are pending.
    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }

    /// Merge `other` into `self`, keeping global arrival order. Because
    /// partitions are independent (no unifiable atoms), the union of their
    /// cached groundings remains consistent; entries are interleaved to
    /// stay parallel with the transaction order.
    pub fn merge(&mut self, other: Partition) {
        let mut txns = Vec::with_capacity(self.len() + other.len());
        let mut cache = Vec::with_capacity(self.len() + other.len());
        let mut a = std::mem::take(&mut self.txns)
            .into_iter()
            .zip(std::mem::take(&mut self.cache.valuations))
            .peekable();
        let mut b = other
            .txns
            .into_iter()
            .zip(other.cache.valuations)
            .peekable();
        loop {
            let take_a = match (a.peek(), b.peek()) {
                (Some((ta, _)), Some((tb, _))) => ta.id < tb.id,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let (t, v) = if take_a {
                a.next().expect("peeked")
            } else {
                b.next().expect("peeked")
            };
            txns.push(t);
            cache.push(v);
        }
        self.txns = txns;
        self.cache = CachedSolution { valuations: cache };
        // The pending world mirrors the pre-merge valuation list.
        self.overlay_cache = None;
    }

    /// The virtual state of the cached solution: every pending update
    /// grounded under its cached valuation, applied in arrival order.
    fn build_world(&self, db: &Database) -> crate::Result<Overlay> {
        let mut world = Overlay::new();
        for (p, v) in self.txns.iter().zip(&self.cache.valuations) {
            for u in &p.txn.updates {
                let rid = db.resolve(&u.atom.relation).map_err(SolverError::Storage)?;
                let tuple = u.atom.ground(v).map_err(SolverError::Logic)?;
                // A cached solution's updates must apply cleanly; a
                // conflict here means the cache is inconsistent, exactly as
                // when the ops are threaded through `Solver::solve`.
                world.apply_id(db, rid, u.kind == UpdateKind::Insert, &tuple)?;
            }
        }
        Ok(world)
    }

    /// Make sure the pending world is there. `true` when it had to be
    /// built from the valuations (what `Metrics::overlay_rebuilds`
    /// counts); a world that was kept is checked against a rebuild in
    /// debug builds.
    pub(crate) fn ensure_world(&mut self, db: &Database) -> crate::Result<bool> {
        if let Some(world) = &self.overlay_cache {
            debug_assert!(
                *world == self.build_world(db)?,
                "stale pending world: an invalidation site was missed"
            );
            return Ok(false);
        }
        self.overlay_cache = Some(self.build_world(db)?);
        Ok(!self.is_empty())
    }

    /// Position of a transaction by id.
    pub fn position(&self, id: u64) -> Option<usize> {
        self.txns.iter().position(|p| p.id == id)
    }

    /// Remove the transaction at `index`, returning it and its cached
    /// grounding.
    pub fn remove(&mut self, index: usize) -> (PendingTxn, qdb_logic::Valuation) {
        let txn = self.txns.remove(index);
        let val = self.cache.remove(index);
        (txn, val)
    }

    /// Overlap summary of this partition's current contents.
    pub fn footprint(&self) -> Footprint {
        let mut fp = Footprint::default();
        for pt in &self.txns {
            fp.absorb_txn(&pt.txn);
        }
        fp
    }
}

/// One transaction's atoms in a [`Footprint`]: `body` ones, then updates.
#[derive(Debug, Clone)]
struct TxnAtoms {
    tag: u32,
    body: usize,
    atoms: Vec<Atom>,
}

/// The id of `txn`'s first variable (`u32::MAX` if none), which finds it
/// in a footprint cheaply: freshened transactions never share one.
fn tag(txn: &ResourceTransaction) -> u32 {
    let vars = all_atoms(txn).flat_map(|a| a.vars());
    vars.map(|v| v.id()).next().unwrap_or(u32::MAX)
}

/// A partition's overlap summary: the atoms of its pending transactions,
/// kept per transaction, split into update atoms and body atoms.
///
/// The sharded engine keeps one `Footprint` per partition in its registry,
/// *outside* the partition's lock, so overlap selections (which partitions
/// could a new transaction, read or write interact with?) never block on
/// a partition that is busy solving. The registry maintains the invariant
/// that a partition's published footprint is a superset of the atoms of
/// every transaction that will ever enter the partition, so a selection
/// that finds no overlap can safely skip the partition without locking it.
///
/// Its tests are exact atom loops; the registry's index, which counts
/// every footprint's atoms by relation and leading constant, decides which
/// footprints are asked. Kept per transaction, the atoms of a grounded one
/// are subtracted instead of the footprint being rebuilt.
#[derive(Debug, Clone, Default)]
pub struct Footprint {
    /// The absorbed transactions' atoms, one entry per transaction.
    txns: Vec<TxnAtoms>,
}

impl Footprint {
    /// The footprint of a single transaction.
    pub fn of_txn(txn: &ResourceTransaction) -> Self {
        let mut fp = Footprint::default();
        fp.absorb_txn(txn);
        fp
    }

    /// Add one transaction's atoms.
    pub fn absorb_txn(&mut self, txn: &ResourceTransaction) {
        let (tag, body) = (tag(txn), txn.body.len());
        let atoms = all_atoms(txn).cloned().collect();
        self.txns.push(TxnAtoms { tag, body, atoms });
    }

    /// Merge another footprint in (partition merge).
    pub fn absorb(&mut self, other: &Footprint) {
        self.txns.extend_from_slice(&other.txns);
    }

    /// Remove one transaction's atoms — those of an absorbed transaction
    /// with the same atoms, which leaves the same multiset. `false` when
    /// no absorbed one matches.
    pub(crate) fn subtract_txn(&mut self, txn: &ResourceTransaction) -> bool {
        let tag = tag(txn);
        let same = |t: &TxnAtoms| {
            t.tag == tag && t.body == txn.body.len() && t.atoms.iter().eq(all_atoms(txn))
        };
        let found = self.txns.iter().position(same);
        found.map(|at| self.txns.swap_remove(at)).is_some()
    }

    /// Each absorbed transaction's body atoms and update atoms.
    pub(crate) fn txn_atoms(&self) -> impl Iterator<Item = (&[Atom], &[Atom])> + '_ {
        self.txns.iter().map(|t| t.atoms.split_at(t.body))
    }

    /// How many transactions' atoms this footprint holds; a partition with
    /// as many has lost none since they were absorbed.
    pub(crate) fn txn_count(&self) -> usize {
        self.txns.len()
    }

    fn update_atoms(&self) -> impl Iterator<Item = &Atom> + '_ {
        self.txn_atoms().flat_map(|(_, updates)| updates)
    }

    fn atoms(&self) -> impl Iterator<Item = &Atom> + '_ {
        self.txns.iter().flat_map(|t| &t.atoms)
    }

    /// Could `txn` be dependent on the summarized partition? Only through a
    /// write/read or write/write conflict: an *update* atom of one side
    /// may-overlapping any atom of the other. So the shared read-only
    /// `Adjacent` table, which every booking reads, creates no dependence;
    /// this lets the system "correctly identify the independence of
    /// queries between different flights" (§5.3).
    pub fn overlaps_txn(&self, txn: &ResourceTransaction) -> bool {
        self.update_atoms()
            .any(|ua| all_atoms(txn).any(|ta| ua.may_overlap(ta)))
            || (txn.updates.iter()).any(|u| self.atoms().any(|a| u.atom.may_overlap(a)))
    }

    /// Could answering a query over `atoms` observe the summarized pending
    /// updates? Mirrors [`crate::read::read_affects`]: query atoms against
    /// update atoms only. Also the relevance test for PEEK/POSSIBLE
    /// overlays — a partition whose updates cannot unify with any query
    /// atom cannot change the query's answer in any possible world.
    pub fn touched_by_query(&self, atoms: &[Atom]) -> bool {
        self.update_atoms()
            .any(|ua| atoms.iter().any(|qa| qa.may_overlap(ua)))
    }

    /// Could a blind write of `atom` (a fully-constant tuple) interact
    /// with the summarized partition? Conservative over *all* atoms, like
    /// the engine's write-admission check.
    pub fn touched_by_write(&self, atom: &Atom) -> bool {
        self.atoms().any(|a| a.may_overlap(atom))
    }
}

fn all_atoms(t: &ResourceTransaction) -> impl Iterator<Item = &Atom> + '_ {
    t.body
        .iter()
        .map(|b| &b.atom)
        .chain(t.updates.iter().map(|u| &u.atom))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdb_logic::{parse_transaction, Valuation};

    /// The pairwise test [`Footprint::overlaps_txn`] answers for a partition.
    fn transactions_overlap(a: &ResourceTransaction, b: &ResourceTransaction) -> bool {
        let writes_into = |x: &ResourceTransaction, y| {
            (x.updates.iter()).any(|u| all_atoms(y).any(|ya| u.atom.may_overlap(ya)))
        };
        writes_into(a, b) || writes_into(b, a)
    }

    impl Partition {
        /// The exact reference for [`Partition::footprint`]'s overlap test.
        fn overlaps(&self, txn: &ResourceTransaction) -> bool {
            self.txns.iter().any(|p| transactions_overlap(&p.txn, txn))
        }
    }

    fn book_flight(f: i64, name: &str) -> ResourceTransaction {
        parse_transaction(&format!(
            "-Available({f}, s), +Bookings('{name}', {f}, s) :-1 Available({f}, s)"
        ))
        .unwrap()
    }

    #[test]
    fn different_flights_are_independent() {
        let t1 = book_flight(1, "M");
        let t2 = book_flight(2, "D");
        assert!(!transactions_overlap(&t1, &t2));
        // Unconstrained flight overlaps both.
        let t3 = parse_transaction("-Available(f, s), +Bookings('G', f, s) :-1 Available(f, s)")
            .unwrap();
        assert!(transactions_overlap(&t1, &t3));
        assert!(transactions_overlap(&t2, &t3));
    }

    #[test]
    fn partition_overlap_and_position() {
        let mut p = Partition::new();
        p.txns.push(PendingTxn::new(4, book_flight(1, "M")));
        p.cache.valuations.push(Valuation::new());
        assert!(p.overlaps(&book_flight(1, "D")));
        assert!(!p.overlaps(&book_flight(2, "D")));
        assert_eq!(p.position(4), Some(0));
        assert_eq!(p.position(9), None);
    }

    #[test]
    fn merge_preserves_arrival_order() {
        let mut p1 = Partition::new();
        let mut p2 = Partition::new();
        for id in [1u64, 5, 7] {
            p1.txns.push(PendingTxn::new(id, book_flight(1, "A")));
            p1.cache.valuations.push(Valuation::new());
        }
        for id in [2u64, 3, 9] {
            p2.txns.push(PendingTxn::new(id, book_flight(2, "B")));
            p2.cache.valuations.push(Valuation::new());
        }
        p1.merge(p2);
        let ids: Vec<u64> = p1.txns.iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![1, 2, 3, 5, 7, 9]);
        assert_eq!(p1.cache.valuations.len(), 6);
    }

    #[test]
    fn footprint_mirrors_partition_overlap() {
        let adjacent = |f: i64| {
            let txn = format!("-Available({f}, s), +Bookings('E', {f}, s) :-1 Available({f}, s)");
            parse_transaction(&format!("{txn}, Adjacent(s, t)")).unwrap()
        };
        let mut p = Partition::new();
        for (id, t) in [(1, book_flight(1, "M")), (2, adjacent(1))] {
            p.txns.push(PendingTxn::new(id, t));
            p.cache.valuations.push(Valuation::new());
        }
        let fp = p.footprint();
        // Same answers as the exact per-transaction test: flight 1 overlaps,
        // and reading the same `Adjacent` rows on flight 2 is no dependence.
        let probes = |f| [book_flight(f, "D"), adjacent(f)];
        for (f, overlaps) in [(1, true), (2, false)] {
            let got = probes(f).map(|t| (fp.overlaps_txn(&t), p.overlaps(&t)));
            assert_eq!(got, [(overlaps, overlaps); 2], "flight {f}");
        }
        let q = qdb_logic::parse_query("Bookings('M', f, s)").unwrap();
        assert!(fp.touched_by_query(&q.atoms));
        let other = qdb_logic::parse_query("Bookings('D', f, s)").unwrap();
        assert!(!fp.touched_by_query(&other.atoms));
        // A write onto the read side (Available) touches; an unrelated
        // constant tuple does not.
        let avail = Atom::new(
            "Available",
            vec![
                qdb_logic::Term::Const(1i64.into()),
                qdb_logic::Term::Const("1A".into()),
            ],
        );
        assert!(fp.touched_by_write(&avail));
        let unrelated = Atom::new("Hotels", vec![qdb_logic::Term::Const(9i64.into())]);
        assert!(!fp.touched_by_write(&unrelated));
        // Merged footprints cover both sides.
        let mut merged = fp.clone();
        merged.absorb(&Footprint::of_txn(&book_flight(2, "D")));
        assert!(probes(2).iter().all(|t| merged.overlaps_txn(t)));
    }

    #[test]
    fn footprint_counts_the_transactions_it_absorbed() {
        let mut fp = Footprint::of_txn(&book_flight(1, "M"));
        assert_eq!(fp.txn_count(), 1);
        fp.absorb_txn(&book_flight(1, "D"));
        let mut merged = Footprint::default();
        merged.absorb(&fp);
        merged.absorb(&Footprint::of_txn(&book_flight(2, "G")));
        assert_eq!(merged.txn_count(), 3);
        let mut p = Partition::new();
        p.txns.push(PendingTxn::new(1, book_flight(1, "M")));
        p.cache.valuations.push(Valuation::new());
        assert_eq!(p.footprint().txn_count(), p.len());
    }

    #[test]
    fn remove_keeps_cache_parallel() {
        let mut p = Partition::new();
        for id in [1u64, 2] {
            p.txns.push(PendingTxn::new(id, book_flight(1, "A")));
            p.cache.valuations.push(Valuation::new());
        }
        let (t, _v) = p.remove(0);
        assert_eq!(t.id, 1);
        assert_eq!(p.len(), 1);
        assert_eq!(p.cache.valuations.len(), 1);
    }
}
