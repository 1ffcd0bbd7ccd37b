//! Grounding: fixing value assignments for pending transactions (§3.2.3).
//!
//! Grounding a transaction `Ti` means choosing a concrete valuation for its
//! variables, executing its update portion against the extensional
//! database, and removing it from the pending list — while keeping the
//! remaining pending transactions satisfiable.
//!
//! Two orders are supported (configured by
//! [`crate::Serializability`]):
//!
//! * **Strict** — ground `T0..Ti` in arrival order (the §3.2.3 "naïve
//!   approach"; classical serializability, over-constrains early).
//! * **Semantic** — move `Ti` to the *front* of the pending order,
//!   checking that the remaining formula stays satisfiable (the practical
//!   strategy of §3.2.3). When the front-move fails, fall back to strict.
//!
//! Optional atoms are maximized at grounding time (§2: "if there is an
//! assignment that satisfies optional as well as non-optional atoms, that
//! assignment is chosen"): promotion subsets are tried largest-first.
//!
//! # The untouched-residue lemma
//!
//! A partition keeps the virtual state of its cached solution — the
//! *pending world*, `Partition::overlay_cache` — alive across
//! groundings and blind writes instead of rebuilding it. What makes that
//! sound: a cached grounding stays valid exactly as long as each of its
//! grounded tuples `y` (required body atoms and updates, under the cached
//! valuation) keeps its visibility at the transaction's turn, and that
//! visibility is a function of `y`'s base membership and of the ordered
//! updates on `y` that run before it. Moving a group to the front (its old
//! updates leave the sequence, its new ones reach the base) or applying a
//! blind write changes neither for any `y` outside the *touched set* — the
//! tuples of the group's cached and new updates, or the written tuple. So
//! when [`residue_untouched`] holds, the residue keeps its cached
//! valuations unverified, and its world is the old one minus the group's
//! deltas ([`Overlay::retract_id`]). `plan_group_front` solves the group
//! *inside* that world, so first-fit cannot land on what the residue holds,
//! and accepts once the group also verifies on the bare base it will
//! actually run on. Debug builds re-check every acceptance with a full
//! [`qdb_solver::Solver::verify`] of the residue.

use qdb_logic::{Atom, ResourceTransaction, Term, Valuation};
use qdb_solver::{Overlay, TxnSpec};
use qdb_storage::{Tuple, WriteOp};

use crate::{Result, TxnId};

/// Why a grounding happened (drives the grounding metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroundReason {
    /// A read's unification check hit this transaction (§3.2.2).
    Read,
    /// The partition exceeded the `k` bound (§4).
    KBound,
    /// A coordination partner arrived (§5.1).
    Partner,
    /// The application asked explicitly.
    Explicit,
}

impl std::fmt::Display for GroundReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GroundReason::Read => write!(f, "read"),
            GroundReason::KBound => write!(f, "k-bound"),
            GroundReason::Partner => write!(f, "partner"),
            GroundReason::Explicit => write!(f, "explicit"),
        }
    }
}

/// Enumerate promotion sets for a group of transactions, best (most
/// optionals) first. Each element is one `Vec<usize>` of promoted body
/// indexes per transaction in group order.
///
/// For a single transaction, all subsets of its optional atoms are tried
/// in decreasing size (capped); for groups, promotion is all-or-none per
/// transaction (the combinatorics stay tiny and the workloads' optional
/// atoms come in all-or-nothing bundles anyway).
pub(crate) fn promotion_sets(optionals: &[Vec<usize>]) -> Vec<Vec<Vec<usize>>> {
    const MAX_SINGLE_SUBSETS: usize = 64;
    if optionals.len() == 1 {
        let opts = &optionals[0];
        let n = opts.len().min(6); // 2^6 = 64 subsets max
        let mut subsets: Vec<Vec<usize>> = (0..(1usize << n))
            .map(|mask| {
                opts.iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &idx)| idx)
                    .collect()
            })
            .collect();
        subsets.sort_by_key(|s| std::cmp::Reverse(s.len()));
        subsets.truncate(MAX_SINGLE_SUBSETS);
        subsets.into_iter().map(|s| vec![s]).collect()
    } else {
        let m = optionals.len().min(6);
        let mut masks: Vec<usize> = (0..(1usize << m)).collect();
        // Most promoted atoms first; ties prefer promoting *later*
        // transactions (higher mask bits) — later transactions can ground
        // their optional atoms on earlier pending inserts, the common
        // coordination shape.
        masks.sort_by_key(|&mask| {
            let total: usize = optionals
                .iter()
                .enumerate()
                .filter(|(i, _)| *i < m && mask >> i & 1 == 1)
                .map(|(_, o)| o.len())
                .sum();
            (std::cmp::Reverse(total), std::cmp::Reverse(mask))
        });
        let mut combos: Vec<Vec<Vec<usize>>> = masks
            .into_iter()
            .map(|mask| {
                optionals
                    .iter()
                    .enumerate()
                    .map(|(i, opts)| {
                        if i < m && mask >> i & 1 == 1 {
                            opts.clone()
                        } else {
                            Vec::new()
                        }
                    })
                    .collect()
            })
            .collect();
        // Transactions without optional atoms make distinct masks produce
        // identical combos — drop the duplicates.
        if optionals.iter().any(Vec::is_empty) {
            let mut seen: std::collections::BTreeSet<Vec<Vec<usize>>> =
                std::collections::BTreeSet::new();
            combos.retain(|c| seen.insert(c.clone()));
        }
        combos
    }
}

/// Score a candidate grounding for flexibility: after applying `ops`, sum
/// over the remaining pending transactions of the bottleneck candidate
/// count of their required atoms. Higher = more room left = closer to
/// "maximize the remaining number of possible worlds".
pub(crate) fn flexibility_score(
    base: &qdb_storage::Database,
    ops: &[WriteOp],
    rest: &[TxnSpec<'_>],
) -> Result<usize> {
    let mut overlay = Overlay::new();
    for op in ops {
        if !overlay.try_apply(base, op) {
            return Ok(0); // conflicting candidate: worthless
        }
    }
    let mut score = 0usize;
    for spec in rest {
        let mut bottleneck = usize::MAX;
        for atom in spec.atoms() {
            let bound: Vec<Option<qdb_storage::Value>> =
                atom.terms.iter().map(|t| t.as_const().cloned()).collect();
            let n = overlay
                .count(base, &atom.relation, &bound)
                .map_err(crate::EngineError::from)?;
            bottleneck = bottleneck.min(n);
        }
        if bottleneck != usize::MAX {
            score += bottleneck;
        }
    }
    Ok(score)
}

/// A tiny deterministic xorshift generator for
/// [`crate::GroundingPolicy::Random`] (keeps `qdb-core` free of the `rand`
/// dependency).
#[derive(Debug, Clone)]
pub(crate) struct XorShift(pub u64);

impl XorShift {
    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Fisher–Yates shuffle.
    pub(crate) fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// One grounded transaction as planned: the write ops of its chosen
/// valuation plus optional-atom accounting (drives the metrics).
#[derive(Debug, Clone)]
pub(crate) struct GroundedTxn {
    /// The grounded transaction.
    pub id: TxnId,
    /// Its concrete updates in execution order.
    pub ops: Vec<WriteOp>,
    /// Optional body atoms the chosen assignment satisfied.
    pub promoted: usize,
    /// Optional body atoms the transaction had.
    pub total_optionals: usize,
}

/// A complete plan for grounding a group within one partition: which
/// transactions leave the pending set (with their updates), and the
/// refreshed cache valuations for the transactions that remain. The
/// engine applies it to the base, the log and the partition.
#[derive(Debug)]
pub(crate) struct GroundPlan {
    /// Transactions leaving the pending set, in group order.
    pub grounded: Vec<GroundedTxn>,
    /// Re-solved cache valuations for the remaining pending transactions
    /// (in the partition's arrival order, group members skipped); `None`
    /// when the residue keeps the valuations it has.
    pub rest_vals: Option<Vec<Valuation>>,
    /// The residue's pending world, when the plan was made inside it.
    pub world: Option<Overlay>,
}

/// Does `atom` under `val` denote exactly `tuple` of `relation`? Compared
/// term by term; an unbound variable matches nothing.
fn grounds_to(atom: &Atom, val: &Valuation, relation: &str, tuple: &Tuple) -> bool {
    atom.relation.as_ref() == relation
        && atom.arity() == tuple.arity()
        && atom
            .terms
            .iter()
            .zip(tuple.iter())
            .all(|(term, value)| match term {
                Term::Const(c) => c == value,
                Term::Var(v) => val.get(v) == Some(value),
            })
}

/// The check of the module's lemma: no grounded atom of `residue` —
/// required body atom or update, under its cached valuation — equals a
/// tuple of `touched`. `true` means the residue's cached valuations (and
/// its pending world) survive the change that touches only those tuples.
pub fn residue_untouched<'a>(
    residue: impl IntoIterator<Item = (&'a ResourceTransaction, &'a Valuation)>,
    touched: &[WriteOp],
) -> bool {
    residue.into_iter().all(|(txn, val)| {
        let body = txn.body.iter().filter(|b| !b.optional).map(|b| &b.atom);
        body.chain(txn.updates.iter().map(|u| &u.atom)).all(|atom| {
            !touched
                .iter()
                .any(|op| grounds_to(atom, val, op.relation(), op.tuple()))
        })
    })
}

/// What a residue's cached valuations become under a change that was not
/// planned with them.
pub(crate) enum Residue {
    /// No cached grounding names a touched tuple: valuations and pending
    /// world stand (the module's lemma).
    Untouched,
    /// The cached valuations still verify; the pending world is stale.
    Verified,
    /// Re-solved valuations.
    Resolved(Vec<Valuation>),
    /// No valuation exists.
    Unsat,
}

/// The one residue check of a blind write and a replayed `Ground`: keep
/// the cached valuations when [`residue_untouched`] holds for the
/// `touched` tuples (every tuple the change adds, removes, or takes out of
/// the pending sequence), else verify them on `db` with `ops` run first,
/// else re-solve.
pub(crate) fn check_residue<'a>(
    solver: &mut qdb_solver::Solver,
    db: &qdb_storage::Database,
    ops: &[WriteOp],
    touched: &[WriteOp],
    residue: impl Iterator<Item = (&'a ResourceTransaction, &'a Valuation)> + Clone,
) -> Result<Residue> {
    if residue_untouched(residue.clone(), touched) {
        return Ok(Residue::Untouched);
    }
    let (specs, cached): (Vec<TxnSpec>, Vec<&Valuation>) =
        residue.map(|(t, v)| (TxnSpec::required_only(t), v)).unzip();
    if solver.verify(db, ops, &specs, &cached)? {
        return Ok(Residue::Verified);
    }
    Ok(match solver.solve(db, ops, &specs)? {
        Some(sol) => Residue::Resolved(sol.valuations),
        None => Residue::Unsat,
    })
}

/// §5.1: fixing a transaction fixes its coordination partners with it —
/// whoever is "in the system" when values are assigned gets to coordinate.
/// Expand the group by one level of partnership. `known` names members of
/// `ids` whose partners `ids` already holds (the caller found them with
/// [`crate::entangle::coordination_partners`]); they are not tested again.
pub(crate) fn expand_partners(p: &crate::Partition, ids: &[TxnId], known: &[TxnId]) -> Vec<TxnId> {
    let mut out: std::collections::BTreeSet<TxnId> = ids.iter().copied().collect();
    let seeds: Vec<&crate::PendingTxn> = (p.txns.iter())
        .filter(|t| out.contains(&t.id) && !known.contains(&t.id))
        .collect();
    let mut extra: Vec<TxnId> = Vec::new();
    for seed in seeds {
        for other in &p.txns {
            if !out.contains(&other.id)
                && !extra.contains(&other.id)
                && (crate::entangle::coordinates_with(&seed.txn, &other.txn)
                    || crate::entangle::coordinates_with(&other.txn, &seed.txn))
            {
                extra.push(other.id);
            }
        }
    }
    out.extend(extra);
    out.into_iter().collect()
}

/// Plan moving the group `ids` (in arrival order) to the front of the
/// pending order and grounding it jointly, maximizing satisfied optional
/// atoms, subject to the remaining pending transactions staying
/// satisfiable. Returns `None` if no promotion set admits a front-move
/// grounding.
///
/// When the partition carries its pending world (and the grounding is a
/// first-fit one), the world is taken, the group's cached deltas are
/// retracted from it, and each promotion set is first tried inside it —
/// see the module docs. Whatever the outcome the world
/// leaves the partition: an accepting plan carries it onward, any other
/// lets the next user rebuild it.
pub(crate) fn plan_group_front(
    solver: &mut qdb_solver::Solver,
    db: &qdb_storage::Database,
    config: &crate::QuantumDbConfig,
    p: &mut crate::Partition,
    ids: &[TxnId],
) -> Result<Option<GroundPlan>> {
    let mut world = if config.policy.sample() <= 1 {
        p.overlay_cache.take()
    } else {
        None
    };
    let mut group: Vec<&crate::PendingTxn> = Vec::new();
    let mut cached_ops: Vec<WriteOp> = Vec::new();
    let mut rest: Vec<(&crate::PendingTxn, &Valuation)> = Vec::new();
    for (t, v) in p.txns.iter().zip(&p.cache.valuations) {
        if ids.contains(&t.id) {
            group.push(t);
            if world.is_some() {
                cached_ops.extend(t.txn.write_ops(v)?);
            }
        } else {
            rest.push((t, v));
        }
    }
    // The residue's world is the partition's minus the group's cached
    // deltas — when the residue names none of their tuples and every delta
    // is still there to retract. An empty residue has no world to keep:
    // the bare base the existing path solves on is the same state.
    let mut clean = !rest.is_empty() && residue_untouched(residue(&rest), &cached_ops);
    if let Some(w) = world.as_mut().filter(|_| clean) {
        for op in &cached_ops {
            let rid = db.resolve(op.relation())?;
            clean = clean && w.retract_id(rid, op.is_insert(), op.tuple());
        }
    }
    if !clean {
        world = None;
    }
    let optionals: Vec<Vec<usize>> = group
        .iter()
        .map(|p| {
            p.txn
                .body
                .iter()
                .enumerate()
                .filter(|(_, b)| b.optional)
                .map(|(i, _)| i)
                .collect()
        })
        .collect();
    let dead = dead_optionals(db, world.as_ref(), &group)?;
    for promo in promotion_sets(&optionals) {
        let promotes_dead = |(pr, d): (&Vec<usize>, &Vec<usize>)| pr.iter().any(|i| d.contains(i));
        if promo.iter().zip(&dead).any(promotes_dead) {
            continue;
        }
        let plan = plan_solve_group(solver, db, config, &group, &rest, &mut world, &promo)?;
        if plan.is_some() {
            return Ok(plan);
        }
    }
    Ok(None)
}

/// The optional body atoms (body indexes, per group member) that no
/// promotion set can satisfy: no earlier member has an insert that unifies
/// with the atom, and no tuple matching its constants is visible in a state
/// the group is solved on — the residue's `world`, or the base. That is
/// condition (1) of the solver's lookahead with no source at all: a set
/// promoting such an atom fails on every state, so it is skipped before
/// anything is compiled. A group promotes a member's optional atoms all or
/// none, so there one per member is enough.
fn dead_optionals(
    db: &qdb_storage::Database,
    world: Option<&Overlay>,
    group: &[&crate::PendingTxn],
) -> Result<Vec<Vec<usize>>> {
    let mut dead = Vec::with_capacity(group.len());
    for (k, member) in group.iter().enumerate() {
        let mut never = Vec::new();
        for (i, b) in member.txn.body.iter().enumerate() {
            let inserted_before = |atom: &Atom| {
                let mut earlier = group[..k].iter().flat_map(|e| e.txn.inserts());
                earlier.any(|u| qdb_logic::unifiable(atom, &u.atom))
            };
            if b.optional && !inserted_before(&b.atom) && !may_be_visible(db, world, &b.atom)? {
                never.push(i);
                if group.len() > 1 {
                    break;
                }
            }
        }
        dead.push(never);
    }
    Ok(dead)
}

/// May a tuple matching `atom`'s constants be visible in `world`, or in the
/// base? Errs towards "yes": an unknown relation is left to the solve to
/// report.
fn may_be_visible(
    db: &qdb_storage::Database,
    world: Option<&Overlay>,
    atom: &Atom,
) -> Result<bool> {
    let Some(rid) = db.try_resolve(&atom.relation) else {
        return Ok(true);
    };
    let pattern: Vec<Option<qdb_storage::Value>> =
        atom.terms.iter().map(|t| t.as_const().cloned()).collect();
    let in_world = match world {
        Some(w) => w.count_up_to_id(db, rid, &pattern, 1)?.0 > 0,
        None => false,
    };
    Ok(in_world || db.table_by_id(rid).count_up_to(&pattern, 1).0 > 0)
}

/// The (transaction, cached valuation) pairs [`residue_untouched`] reads.
fn residue<'a>(
    rest: &'a [(&'a crate::PendingTxn, &'a Valuation)],
) -> impl Iterator<Item = (&'a ResourceTransaction, &'a Valuation)> {
    rest.iter().map(|(t, v)| (&t.txn, *v))
}

/// Find a grounding for `group` executed before `rest`, with the given
/// per-transaction promotions: inside the residue's `world` when there is
/// one (taken on acceptance), else — or when that fails — on the bare
/// base with the residue re-verified or re-solved. Applies the configured
/// [`crate::GroundingPolicy`] when the group is a single transaction.
fn plan_solve_group(
    solver: &mut qdb_solver::Solver,
    db: &qdb_storage::Database,
    config: &crate::QuantumDbConfig,
    group: &[&crate::PendingTxn],
    rest: &[(&crate::PendingTxn, &Valuation)],
    world: &mut Option<Overlay>,
    promo: &[Vec<usize>],
) -> Result<Option<GroundPlan>> {
    let group_specs: Vec<TxnSpec> = group
        .iter()
        .zip(promo)
        .map(|(p, pr)| TxnSpec::with_promoted(&p.txn, pr.clone()))
        .collect();
    let finish =
        |group_vals: Vec<Valuation>, rest_vals: Option<Vec<Valuation>>| -> Result<GroundPlan> {
            let mut grounded = Vec::with_capacity(group.len());
            for ((pt, val), pr) in group.iter().zip(&group_vals).zip(promo) {
                grounded.push(GroundedTxn {
                    id: pt.id,
                    ops: pt.txn.write_ops(val)?,
                    promoted: pr.len(),
                    total_optionals: pt.txn.optional_body().count(),
                });
            }
            Ok(GroundPlan {
                grounded,
                rest_vals,
                world: None,
            })
        };
    // The residue as the solver takes it: specs and cached valuations.
    let split_rest = || -> (Vec<TxnSpec>, Vec<&Valuation>) {
        let each = rest
            .iter()
            .map(|(p, v)| (TxnSpec::required_only(&p.txn), *v));
        each.unzip()
    };

    // In the residue's world (module docs): the group's cached deltas are
    // already retracted and the residue does not touch them; accept when
    // the solution also runs on the bare base and its updates leave the
    // residue untouched. `solve_in` leaves the group's updates applied —
    // they go to the base, not into the residue's world.
    if let Some(w) = world.as_mut() {
        let mark = w.mark();
        if let Some(gsol) = solver.solve_in(db, w, &group_specs)? {
            w.rollback(mark);
            if solver.verify(db, &[], &group_specs, &gsol.valuations)? {
                let mut plan = finish(gsol.valuations, None)?;
                if (plan.grounded.iter()).all(|g| residue_untouched(residue(rest), &g.ops)) {
                    debug_assert!(
                        {
                            let ops = plan.grounded.iter().flat_map(|g| g.ops.clone());
                            let ops: Vec<WriteOp> = ops.collect();
                            let (specs, cached) = split_rest();
                            qdb_solver::Solver::default().verify(db, &ops, &specs, &cached)?
                        },
                        "untouched residue failed verification"
                    );
                    plan.world = world.take();
                    return Ok(Some(plan));
                }
            }
        }
    }
    let (rest_specs, rest_cached) = split_rest();

    let sample = config.policy.sample();
    if group.len() == 1 && sample > 1 {
        // Enumerate alternatives for the single target, order them per
        // policy, and take the first whose residue stays satisfiable.
        let mut cands = solver.enumerate_one(db, &[], &group_specs[0], sample)?;
        match config.policy {
            crate::GroundingPolicy::MaxFlexibility { .. } => {
                let mut scored: Vec<(usize, Valuation)> = Vec::with_capacity(cands.len());
                for cand in cands {
                    let ops = group[0].txn.write_ops(&cand)?;
                    let score = flexibility_score(db, &ops, &rest_specs)?;
                    scored.push((score, cand));
                }
                scored.sort_by_key(|(score, _)| std::cmp::Reverse(*score));
                cands = scored.into_iter().map(|(_, c)| c).collect();
            }
            crate::GroundingPolicy::Random { seed, .. } => {
                // The policy seed and the engine seed both participate, so
                // a sim run can vary the whole engine with one knob while
                // ablations can still pin the policy independently.
                let mut rng = XorShift(
                    seed ^ config.seed ^ (group[0].id.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                );
                rng.shuffle(&mut cands);
            }
            crate::GroundingPolicy::FirstFit => unreachable!("sample > 1"),
        }
        for cand in cands {
            let ops = group[0].txn.write_ops(&cand)?;
            if let Some(sol) = solver.solve(db, &ops, &rest_specs)? {
                return finish(vec![cand], Some(sol.valuations)).map(Some);
            }
        }
        return Ok(None);
    }

    // On the bare base: solve the group alone, then check whether the
    // *cached* residue groundings survive the group's updates — the §4
    // solution-cache amortization applied to grounding. Falls through to a
    // joint re-solve when the cached residue breaks.
    if let Some(gsol) = solver.solve(db, &[], &group_specs)? {
        let mut ops = Vec::new();
        for (p, v) in group.iter().zip(&gsol.valuations) {
            ops.extend(p.txn.write_ops(v)?);
        }
        if solver.verify(db, &ops, &rest_specs, &rest_cached)? {
            return finish(gsol.valuations, None).map(Some);
        }
    } else {
        // The group alone (with these promotions) is unsatisfiable — the
        // joint solve below cannot succeed either.
        return Ok(None);
    }

    // FirstFit (or joint group): one solve over group ++ rest.
    let mut all = group_specs;
    all.extend(rest_specs);
    match solver.solve(db, &[], &all)? {
        Some(sol) => {
            let mut vals = sol.valuations;
            let rest_vals = vals.split_off(group.len());
            finish(vals, Some(rest_vals)).map(Some)
        }
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_txn_promotions_are_subsets_desc() {
        let sets = promotion_sets(&[vec![2, 4]]);
        assert_eq!(sets.len(), 4);
        assert_eq!(sets[0], vec![vec![2, 4]]);
        assert_eq!(sets[3], vec![Vec::<usize>::new()]);
        // Sizes never increase.
        let sizes: Vec<usize> = sets.iter().map(|c| c[0].len()).collect();
        assert!(sizes.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn group_promotions_all_or_none_per_txn() {
        let sets = promotion_sets(&[vec![1], vec![3, 4]]);
        assert_eq!(sets.len(), 4);
        // Best first: both fully promoted.
        assert_eq!(sets[0], vec![vec![1], vec![3, 4]]);
        // Worst last: nothing promoted.
        assert_eq!(sets[3], vec![Vec::<usize>::new(), Vec::<usize>::new()]);
    }

    #[test]
    fn promotion_sets_cap_explosion() {
        let many: Vec<usize> = (0..20).collect();
        let sets = promotion_sets(&[many]);
        assert!(sets.len() <= 64);
    }

    #[test]
    fn xorshift_is_deterministic_and_shuffles() {
        let mut a = XorShift(42);
        let mut b = XorShift(42);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut items: Vec<u32> = (0..10).collect();
        let mut rng = XorShift(7);
        rng.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<u32>>());
        assert_ne!(items, (0..10).collect::<Vec<u32>>()); // overwhelmingly likely
    }
}
