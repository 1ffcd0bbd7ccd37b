//! The partition registry (under its mutex, see [`crate::shard`]): every
//! live §4 independence partition with the [`Footprint`] of what it could
//! touch, and an inverted index counting, per side (update or body atoms),
//! relation and arity, each entry's atoms by leading constant, with a
//! variable lead, and in all. A probe with a constant in column 0 reads its
//! constant's entries and the variable-lead ones, any other probe every
//! entry holding the relation; the footprint's exact test confirms each, so
//! a selection is what a linear scan of every footprint returns, ascending
//! pid (debug builds check). Entries are indexed under a stable handle, the
//! pid they were first registered under, so a claim of one partition under
//! a fresh pid counts in only the newcomer's atoms.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use qdb_logic::{Atom, ResourceTransaction, Term};
use qdb_storage::Value;

use crate::sync::Mutex;
use crate::{Footprint, Partition};

/// One partition's lockable home.
#[derive(Default)]
pub(crate) struct Slot {
    pub(crate) state: Mutex<SlotState>,
}

/// Contents of a slot. `dead` means the partition's contents were drained
/// into a newer slot (or fully grounded away); holders of a stale `Arc`
/// must rescan the registry.
#[derive(Default)]
pub(crate) struct SlotState {
    pub(crate) part: Partition,
    pub(crate) dead: bool,
    /// Transactions that left `part` (groundings, a refused newcomer)
    /// since its footprint was last published.
    pub(crate) left: Vec<ResourceTransaction>,
}

/// A registered partition as selections hand it out: its id and its slot.
pub(crate) type Found = (u64, Arc<Slot>);

/// What a claim hands back: the guard on the freshly registered host
/// slot, its partition id, and the claimed slots to drain.
pub(crate) type Reserved<'a> = (std::sync::MutexGuard<'a, SlotState>, u64, Vec<Found>);

/// Registry entry: a footprint, the slot it summarizes, and its pid.
struct Entry {
    pid: u64,
    footprint: Footprint,
    slot: Arc<Slot>,
}

/// An entry's stable name in the index: its first pid.
type Handle = u64;

/// Which atoms of a footprint an index side counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Side {
    Updates,
    Body,
}

/// Per entry holding a key, how many of its atoms hold it; sorted.
type Counts = Vec<(Handle, u32)>;

/// The index's counts for one side, relation and arity.
#[derive(Debug, Default, PartialEq)]
struct RelIndex {
    /// Atoms over the relation.
    holders: Counts,
    /// Atoms with a variable in column 0.
    var_lead: Counts,
    /// Per constant, atoms with it in column 0.
    lead: HashMap<Value, Counts>,
}

/// Every side, relation and arity some entry ever held, with its counts.
type Index = Vec<(Side, Arc<str>, usize, RelIndex)>;

/// The partition registry. Partition ids are never reused (`next_pid`
/// only grows): the lock-ordering proof relies on it.
#[derive(Default)]
pub(crate) struct Registry {
    /// Live entries by partition id.
    pids: BTreeMap<u64, Handle>,
    next_pid: u64,
    entries: BTreeMap<Handle, Entry>,
    index: Index,
}

impl Registry {
    /// Register `partitions` under their own ids.
    pub(crate) fn new(partitions: BTreeMap<u64, Partition>, next_pid: u64) -> Registry {
        let mut reg = Registry::default();
        for (pid, part) in partitions {
            reg.insert(pid, part);
        }
        Registry { next_pid, ..reg }
    }

    /// The registered partitions by id, and the next id to allocate.
    pub(crate) fn into_partitions(self) -> (BTreeMap<u64, Partition>, u64) {
        let take = |h| std::mem::take(&mut self.entries[h].slot.state.lock().part);
        let parts = self.pids.iter().map(|(&pid, h)| (pid, take(h))).collect();
        (parts, self.next_pid)
    }

    /// Number of registered partitions.
    pub(crate) fn len(&self) -> usize {
        self.pids.len()
    }

    /// Every registered partition, ascending pid (lookups by transaction id
    /// and listings, which no footprint answers, walk them).
    pub(crate) fn slots(&self) -> Vec<Found> {
        self.found(self.pids.iter().map(|(&pid, &h)| (pid, h)))
    }

    /// Register a non-empty partition in a fresh slot under a fresh id.
    pub(crate) fn install(&mut self, part: Partition) {
        if !part.is_empty() {
            let pid = self.fresh_pid();
            self.insert(pid, part);
        }
    }

    /// Atomically remove every entry `newcomer` may depend on (all of them
    /// for `GROUND ALL`'s `None`) and register `host` under a fresh pid
    /// with their union footprint plus the newcomer's atoms. The host is
    /// locked before the registry is released: nothing else can reach it
    /// yet, and a later claim of it waits on the returned guard.
    pub(crate) fn claim<'a>(
        &mut self,
        host: &'a Arc<Slot>,
        newcomer: Option<&ResourceTransaction>,
    ) -> Reserved<'a> {
        let targets = match newcomer {
            Some(txn) => self.overlapping(txn),
            None => self.pids.iter().map(|(&pid, &h)| (pid, h)).collect(),
        };
        let mut claimed = Vec::with_capacity(targets.len());
        let mut kept: Option<Handle> = None;
        for (pid, h) in targets {
            self.pids.remove(&pid);
            match kept {
                // The first claimed entry becomes the host's, footprint
                // and counts whole.
                None => {
                    kept = Some(h);
                    let slot = &mut self.entries.get_mut(&h).expect("registered").slot;
                    claimed.push((pid, std::mem::replace(slot, Arc::clone(host))));
                }
                Some(into) => {
                    let e = self.remove(h);
                    claimed.push((pid, e.slot));
                    count(&mut self.index, into, true, sided(&e.footprint));
                    let host_fp = &mut self.entries.get_mut(&into).expect("registered").footprint;
                    host_fp.absorb(&e.footprint);
                }
            }
        }
        let pid = self.fresh_pid();
        let h = match kept {
            Some(h) => {
                self.entries.get_mut(&h).expect("registered").pid = pid;
                self.pids.insert(pid, h);
                h
            }
            None => self.register(pid, Footprint::default(), Arc::clone(host)),
        };
        if let Some(txn) = newcomer {
            count(&mut self.index, h, true, sided_txn(txn));
            let fp = &mut self.entries.get_mut(&h).expect("registered").footprint;
            fp.absorb_txn(txn);
        }
        (host.state.lock(), pid, claimed)
    }

    /// Re-publish a partition, its slot locked: subtract the transactions
    /// that `left` (a claim counted in each that entered), or unregister
    /// (and kill) it when grounded empty. A footprint still counting more
    /// lost leavers with an entry claimed mid-operation (or got `GROUND ALL`
    /// survivors merged in): it is rebuilt, and `true` says so.
    pub(crate) fn publish(
        &mut self,
        pid: u64,
        st: &mut SlotState,
        left: &[ResourceTransaction],
    ) -> bool {
        // Entry absent: a claim already took this slot and will drain
        // whatever state we leave behind — nothing to publish.
        let Some(&h) = self.pids.get(&pid) else {
            return false;
        };
        if st.part.is_empty() {
            self.pids.remove(&pid);
            self.remove(h);
            st.dead = true;
            return false;
        }
        let fp = &mut self.entries.get_mut(&h).expect("registered").footprint;
        for txn in left {
            if fp.subtract_txn(txn) {
                count(&mut self.index, h, false, sided_txn(txn));
            }
        }
        let stale = self.entries[&h].footprint.txn_count() != st.part.len();
        if stale {
            let slot = self.remove(h).slot;
            self.register(pid, st.part.footprint(), slot);
        }
        stale
    }

    /// Error recovery for `GROUND ALL`: put the surviving partitions back
    /// while the collapse's host slot guard is still held, so the claimed
    /// pending state is never observable as absent. If the host entry is
    /// still registered, the survivors go back as separate fresh entries —
    /// they are mutually disjoint, and everything admitted while the
    /// host's union footprint was registered is disjoint from all of them
    /// — and the host is retired. If a concurrent claim already took the
    /// host, the survivors are instead merged into the host slot for the
    /// claimant to drain: the claimant absorbed the union footprint, so
    /// the registry's superset invariant keeps holding.
    pub(crate) fn reinstall(&mut self, host_pid: u64, host: &mut SlotState, parts: Vec<Partition>) {
        if let Some(h) = self.pids.remove(&host_pid) {
            self.remove(h);
            host.dead = true;
            for part in parts {
                self.install(part);
            }
        } else {
            for part in parts {
                host.part.merge(part);
            }
        }
    }

    /// Every partition `txn` may depend on: its body atoms against update
    /// atoms, its update atoms against all atoms.
    fn overlapping(&self, txn: &ResourceTransaction) -> Vec<(u64, Handle)> {
        let body = txn.body.iter().map(|b| (Side::Updates, &b.atom));
        let updates = txn.updates.iter().flat_map(|u| all(&u.atom));
        self.select(body.chain(updates), |fp| fp.overlaps_txn(txn))
    }

    /// Every partition whose pending updates a query over `atoms` could
    /// observe, ascending pid.
    pub(crate) fn touched_by_query(&self, atoms: &[Atom]) -> Vec<Found> {
        let probes = atoms.iter().map(|a| (Side::Updates, a));
        self.found(self.select(probes, |fp| fp.touched_by_query(atoms)))
    }

    /// Every partition a blind write of `atom` could interact with,
    /// ascending pid.
    pub(crate) fn touched_by_write(&self, atom: &Atom) -> Vec<Found> {
        self.found(self.select(all(atom), |fp| fp.touched_by_write(atom)))
    }

    /// The candidates the index names for `probes` that are certain or
    /// that `hit` confirms, ascending pid — in debug builds checked to be
    /// what a linear scan with `hit` selects.
    fn select<'a>(
        &self,
        probes: impl IntoIterator<Item = (Side, &'a Atom)>,
        hit: impl Fn(&Footprint) -> bool,
    ) -> Vec<(u64, Handle)> {
        let mut out: Vec<(u64, Handle)> = (self.candidates(probes).into_iter())
            .filter(|&(h, certain)| certain || hit(&self.entries[&h].footprint))
            .map(|(h, _)| (self.entries[&h].pid, h))
            .collect();
        out.sort_unstable();
        debug_assert_eq!(
            out.iter().map(|&(pid, _)| pid).collect::<Vec<_>>(),
            self.scan(&hit),
            "the index selection differs from the linear scan"
        );
        out
    }

    /// The index's candidates for `probes`, deduplicated, each `true` when
    /// certain: named by a probe with no constant past column 0, which
    /// may-overlaps every atom the index files it under. An empty registry
    /// does no lookup.
    fn candidates<'a>(
        &self,
        probes: impl IntoIterator<Item = (Side, &'a Atom)>,
    ) -> Vec<(Handle, bool)> {
        let mut cands = Vec::new();
        if self.pids.is_empty() {
            return cands;
        }
        for (side, atom) in probes {
            let Some(at) = position(&self.index, side, atom) else {
                continue;
            };
            let rel = &self.index[at].3;
            // A constant lead meets its own holders and the variable leads;
            // anything else meets every holder of the relation.
            let certain = atom.terms.iter().skip(1).all(|t| matches!(t, Term::Var(_)));
            let named = |&(h, _): &(Handle, u32)| (h, certain);
            match atom.terms.first() {
                Some(Term::Const(c)) => {
                    cands.extend(rel.lead.get(c).into_iter().flatten().map(named));
                    cands.extend(rel.var_lead.iter().map(named));
                }
                _ => cands.extend(rel.holders.iter().map(named)),
            }
        }
        // Certain first, so the dedup keeps it.
        cands.sort_unstable_by_key(|&(h, certain)| (h, !certain));
        cands.dedup_by_key(|c| c.0);
        cands
    }

    /// The linear scan the index replaces: every entry `hit` accepts,
    /// ascending pid.
    fn scan(&self, hit: impl Fn(&Footprint) -> bool) -> Vec<u64> {
        (self.pids.iter())
            .filter(|(_, h)| hit(&self.entries[h].footprint))
            .map(|(&pid, _)| pid)
            .collect()
    }

    fn found(&self, hits: impl IntoIterator<Item = (u64, Handle)>) -> Vec<Found> {
        let slot = |h| Arc::clone(&self.entries[&h].slot);
        hits.into_iter().map(|(pid, h)| (pid, slot(h))).collect()
    }

    fn fresh_pid(&mut self) -> u64 {
        self.next_pid += 1;
        self.next_pid - 1
    }

    /// Register `part` in a fresh slot under `pid`.
    fn insert(&mut self, pid: u64, part: Partition) {
        let (footprint, slot) = (part.footprint(), Arc::new(Slot::default()));
        slot.state.lock().part = part;
        self.register(pid, footprint, slot);
    }

    /// Register `footprint` and `slot` under `pid` (and handle `pid`),
    /// counting its atoms in.
    fn register(&mut self, pid: u64, footprint: Footprint, slot: Arc<Slot>) -> Handle {
        count(&mut self.index, pid, true, sided(&footprint));
        let entry = Entry {
            pid,
            footprint,
            slot,
        };
        self.entries.insert(pid, entry);
        self.pids.insert(pid, pid);
        pid
    }

    /// Take entry `h` out (its pid already unmapped), counting its atoms
    /// out.
    fn remove(&mut self, h: Handle) -> Entry {
        let e = self.entries.remove(&h).expect("a registered handle");
        count(&mut self.index, h, false, sided(&e.footprint));
        e
    }
}

/// Probes of `atom` against all atoms: update and body atoms.
fn all(atom: &Atom) -> [(Side, &Atom); 2] {
    [(Side::Updates, atom), (Side::Body, atom)]
}

/// A transaction's atoms with the side that counts them.
fn sided_txn(txn: &ResourceTransaction) -> impl Iterator<Item = (Side, &Atom)> {
    let body = txn.body.iter().map(|b| (Side::Body, &b.atom));
    body.chain(txn.updates.iter().map(|u| (Side::Updates, &u.atom)))
}

/// A footprint's atoms with the side that counts them.
fn sided(fp: &Footprint) -> impl Iterator<Item = (Side, &Atom)> {
    fp.txn_atoms().flat_map(|(body, updates)| {
        let body = body.iter().map(|a| (Side::Body, a));
        body.chain(updates.iter().map(|a| (Side::Updates, a)))
    })
}

/// Where the index keeps `side` and `atom`'s relation and arity.
fn position(index: &Index, side: Side, atom: &Atom) -> Option<usize> {
    let same = |(s, r, n, _): &(Side, Arc<str>, usize, RelIndex)| {
        *s == side && *n == atom.arity() && *r == atom.relation
    };
    index.iter().position(same)
}

/// Count `atoms` in (`add`) or out of the index under `h`.
fn count<'a>(
    index: &mut Index,
    h: Handle,
    add: bool,
    atoms: impl Iterator<Item = (Side, &'a Atom)>,
) {
    for (side, atom) in atoms {
        let at = position(index, side, atom).unwrap_or_else(|| {
            index.push((
                side,
                Arc::clone(&atom.relation),
                atom.arity(),
                RelIndex::default(),
            ));
            index.len() - 1
        });
        let rel = &mut index[at].3;
        bump(&mut rel.holders, h, add);
        match atom.terms.first() {
            Some(Term::Const(c)) => match rel.lead.get_mut(c).map(|n| bump(n, h, add)) {
                Some(true) => _ = rel.lead.remove(c),
                Some(false) => {}
                None => _ = rel.lead.insert(c.clone(), vec![(h, 1)]),
            },
            Some(Term::Var(_)) => _ = bump(&mut rel.var_lead, h, add),
            None => {}
        }
    }
}

/// Count `h` once more (`add`) or once less in `counts`, dropping it at
/// zero; `true` when `counts` is left empty.
fn bump(counts: &mut Counts, h: Handle, add: bool) -> bool {
    match counts.binary_search_by_key(&h, |c| c.0) {
        Ok(i) if add => counts[i].1 += 1,
        Ok(i) if counts[i].1 > 1 => counts[i].1 -= 1,
        Ok(i) => _ = counts.remove(i),
        Err(i) => counts.insert(i, (h, 1)),
    }
    counts.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::PendingTxn;
    use qdb_logic::{parse_transaction, Valuation, Var};
    use qdb_storage::Value;

    /// The engine's own seeded generator drives the sweep.
    fn next(rng: &mut u64) -> u64 {
        let mut g = crate::ground::XorShift(*rng);
        let out = g.next_u64();
        *rng = g.0;
        out
    }

    /// A random atom over 3 relation names (one used at two arities), with
    /// constants from a domain of `domain` values and ~1/3 variables.
    fn random_atom(rng: &mut u64, domain: u64) -> Atom {
        let (relation, arity) = [("R", 2), ("R", 3), ("S", 1), ("T", 3)][(next(rng) % 4) as usize];
        let terms = (0..arity)
            .map(|i| match next(rng) % 3 {
                0 => Term::Var(Var::new(i, "v")),
                _ => Term::Const(Value::from((next(rng) % domain) as i64)),
            })
            .collect();
        Atom::new(relation, terms)
    }

    fn random_txn(rng: &mut u64, domain: u64) -> ResourceTransaction {
        let mut t = parse_transaction("-A(s), +B(s) :-1 A(s)").unwrap();
        t.updates.truncate(1 + (next(rng) % 2) as usize);
        for u in &mut t.updates {
            u.atom = random_atom(rng, domain);
        }
        t.body[0].atom = random_atom(rng, domain);
        t
    }

    /// An index in a canonical order, relations no entry holds left out.
    fn canon(ix: &Index) -> BTreeMap<(Side, &str, usize), &RelIndex> {
        let held = ix.iter().filter(|(.., x)| !x.holders.is_empty());
        held.map(|(s, r, n, x)| ((*s, &**r, *n), x)).collect()
    }

    /// Random submits (claims that merge, admit or refuse) and groundings
    /// (subtractions) build registries; after each step every footprint
    /// and the index must equal a rebuild, and every selection a linear
    /// scan of footprints rebuilt from the partitions.
    #[test]
    fn index_selects_what_the_linear_scan_selects() {
        let (mut hits, mut pruned) = (0, 0);
        for case in 0..60u64 {
            let mut rng = 0x1DE7_0000 + case;
            // The large domain puts far more than 32 constants in a column.
            let domain = [3, 8, 200][(case % 3) as usize];
            let mut reg = Registry::new(BTreeMap::new(), 0);
            for id in 0..100 {
                let txn = random_txn(&mut rng, domain);
                let host = Arc::new(Slot::default());
                let (mut st, pid, claimed) = reg.claim(&host, Some(&txn));
                for (_, slot) in claimed {
                    st.part.merge(std::mem::take(&mut slot.state.lock().part));
                }
                let mut left = Vec::new();
                if next(&mut rng).is_multiple_of(4) {
                    left.push(txn);
                } else {
                    st.part.txns.push(PendingTxn::new(id, txn));
                    st.part.cache.valuations.push(Valuation::new());
                }
                assert!(!reg.publish(pid, &mut st, &left), "a publish rebuilt");
                drop(st);
                let slots = reg.slots();
                if let Some((pid, slot)) = slots.get(next(&mut rng) as usize % slots.len().max(1)) {
                    let mut st = slot.state.lock();
                    let mut left = Vec::new();
                    while !st.part.is_empty() && !next(&mut rng).is_multiple_of(3) {
                        let at = next(&mut rng) as usize % st.part.len();
                        left.push(st.part.remove(at).0.txn);
                    }
                    assert!(!reg.publish(*pid, &mut st, &left), "a publish rebuilt");
                }

                // The maintained footprints hold what rebuilt ones hold, and
                // the index what one rebuilt from them holds.
                let (mut index, mut rebuilt) = (Vec::new(), Vec::new());
                for (&pid, h) in &reg.pids {
                    let e = &reg.entries[h];
                    let fp = e.slot.state.lock().part.footprint();
                    assert_eq!(e.footprint.txn_count(), fp.txn_count(), "case {case}");
                    count(&mut index, *h, true, sided(&e.footprint));
                    rebuilt.push((pid, fp));
                }
                assert_eq!(canon(&reg.index), canon(&index), "case {case}: stale index");

                for _ in 0..8 {
                    let txn = random_txn(&mut rng, domain);
                    let query = [random_atom(&mut rng, domain), random_atom(&mut rng, domain)];
                    let write = random_atom(&mut rng, domain);
                    let pids = |found: Vec<Found>| found.into_iter().map(|f| f.0).collect();
                    let got: [Vec<u64>; 3] = [
                        reg.overlapping(&txn).into_iter().map(|f| f.0).collect(),
                        pids(reg.touched_by_query(&query)),
                        pids(reg.touched_by_write(&write)),
                    ];
                    let scan = |hit: &dyn Fn(&Footprint) -> bool| {
                        rebuilt.iter().filter(|f| hit(&f.1)).map(|f| f.0).collect()
                    };
                    let want: [Vec<u64>; 3] = [
                        scan(&|fp| fp.overlaps_txn(&txn)),
                        scan(&|fp| fp.touched_by_query(&query)),
                        scan(&|fp| fp.touched_by_write(&write)),
                    ];
                    assert_eq!(got, want, "case {case}: {txn} / {query:?} / {write}");
                    hits += want.iter().map(Vec::len).sum::<usize>();
                    let named = reg.candidates(all(&write));
                    pruned += reg.len() - named.len();
                }
            }
        }
        // Both answers occur, and the index leaves entries unvisited.
        assert!(hits > 1_000 && pruned > 1_000, "{hits} / {pruned}");
    }
}
