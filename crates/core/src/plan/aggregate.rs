//! Vectorized hash aggregation, split into a mergeable partial phase and
//! a radix-partitioned parallel merge phase.
//!
//! Group keys are encoded per column into dense `u32` group ids (no
//! per-row `Vec<Value>` materialization): a column whose values fall in
//! a small dense domain — dictionary codes, BOOL, an INT column of
//! narrow span — numbers its rows through a slot table, any other
//! hashes (see [`hash::dense_fits`]). Aggregates accumulate through the
//! grouped kernels in `mosaic_storage::kernels`, and only the final
//! per-group outputs round-trip through [`Value`]. Each SELECT item is
//! typed (aggregate arguments included) before any aggregate runs.
//!
//! The split exists for the morsel-driven driver in
//! [`crate::plan::parallel`]: each worker computes a [`MorselPartial`]
//! over its morsel ([`compute_partial`]), and [`merge_finalize`] unifies
//! the per-morsel group keys (through a slot table when a single
//! dictionary or INT key allows it), hash-partitions the global group
//! space into P radix partitions by group-key hash, and merges each
//! partition independently on the shared worker pool — folding partial
//! states **in morsel order** within every group, so the result is
//! independent of which thread ran which morsel *and* of P (partition
//! outputs are scattered back into global first-appearance order).
//! Executing a table as one single morsel with P = 1 reproduces the
//! previous whole-table vectorized path bit-for-bit.

use std::borrow::Cow;
use std::hash::Hash;
use std::sync::Arc;

use mosaic_sql::{AggFunc, Expr, SelectItem};
use mosaic_storage::kernels::{self, AggState};
use mosaic_storage::{Column, DataType, Dictionary, Table, Value};

use crate::eval::{eval_scalar, expr_type};
use crate::plan::hash::{self, FoldMap};
use crate::plan::vector;
use crate::{MosaicError, Result};

/// A result whose error carries the rank of the stage that failed
/// (0 = group keys, `1 + i` = SELECT item `i`). The morsel driver picks
/// the error with the lowest (rank, morsel) pair, which reproduces the
/// stage-by-stage error order of a whole-table pass.
pub(crate) type Ranked<T> = std::result::Result<T, (u32, MosaicError)>;

/// The per-morsel output of the partial aggregation phase.
pub(crate) struct MorselPartial {
    /// Per local group (in first-appearance order), its GROUP BY key.
    keys: GroupKeys,
    /// Per SELECT item, its partial state.
    items: Vec<ItemPartial>,
}

/// The GROUP BY keys of a list of groups, typed where a single key
/// column allows it, so that neither a morsel nor the merge builds a
/// `Vec<Value>` per group of such a key.
enum GroupKeys {
    /// A single dictionary-encoded key: each group's code, `dict.len()`
    /// for the NULL group. Every morsel slices the same column, so the
    /// merge unifies codes without hashing and materializes one string
    /// per *global* group.
    Codes(Arc<Dictionary>, Vec<u32>),
    /// A single INT key: each group's value (`None`: the NULL group).
    Ints(Vec<Option<i64>>),
    /// Any other key (several columns, FLOAT, BOOL, plain strings): each
    /// group's key tuple. A single empty tuple for a global aggregate.
    Tuples(Vec<Vec<Value>>),
}

impl GroupKeys {
    fn len(&self) -> usize {
        match self {
            GroupKeys::Codes(_, codes) => codes.len(),
            GroupKeys::Ints(ints) => ints.len(),
            GroupKeys::Tuples(tuples) => tuples.len(),
        }
    }

    /// Component `pos` of group `g`'s key.
    fn value(&self, g: usize, pos: usize) -> Value {
        match self {
            GroupKeys::Codes(dict, codes) => match codes[g] {
                c if c as usize == dict.len() => Value::Null,
                c => Value::Str(dict.get(c).to_string()),
            },
            GroupKeys::Ints(ints) => ints[g].map_or(Value::Null, Value::Int),
            GroupKeys::Tuples(tuples) => tuples[g][pos].clone(),
        }
    }

    /// Every group's key tuple, borrowed when the keys are tuples.
    fn tuples(&self) -> Cow<'_, [Vec<Value>]> {
        match self {
            GroupKeys::Tuples(tuples) => Cow::Borrowed(tuples),
            typed => Cow::Owned((0..typed.len()).map(|g| vec![typed.value(g, 0)]).collect()),
        }
    }
}

enum ItemPartial {
    /// The item projects GROUP BY expression `pos`.
    Key(usize),
    /// The item aggregates: partial state per distinct base aggregate.
    Aggs(Vec<(Expr, AggPartial)>),
}

enum AggPartial {
    /// COUNT / SUM / AVG accumulators. `int_typed` records whether the
    /// argument column evaluated to Int in this morsel (drives the
    /// Int-vs-Float output typing of unweighted SUM).
    Num { state: AggState, int_typed: bool },
    /// MIN / MAX best-so-far per local group (`Value::Null` = no
    /// qualifying row), under `sql_cmp` first-wins semantics.
    MinMax(Vec<Value>),
}

/// Compute the partial aggregate state of one (already filtered) morsel.
/// Group keys and items are processed in SELECT order, and errors carry
/// the failing stage's rank, so the error the driver ultimately selects
/// matches what the whole-table executor would report on the same data.
pub(crate) fn compute_partial(
    items: &[SelectItem],
    group_by: &[Expr],
    table: &Table,
    weights: Option<&[f64]>,
    params: &[Value],
) -> Ranked<MorselPartial> {
    let n = table.num_rows();
    let column_type = |c: &str| Ok(table.column_by_name(c)?.data_type());
    // Positional parameters bind up front; grouped-projection matching
    // below compares the *bound* forms, so `GROUP BY x + ?` pairs with
    // the projection `x + ?` even though the two placeholders carry
    // different lexical indices.
    let group_by: Vec<std::borrow::Cow<'_, Expr>> = group_by
        .iter()
        .map(|e| super::bind_expr(e, params))
        .collect::<Result<_>>()
        .map_err(|e| (0, e))?;
    // 1. Group identification (stage rank 0).
    let (group_ids, rep_rows, key_cols) = if group_by.is_empty() {
        (vec![0u32; n], Vec::new(), Vec::new())
    } else {
        let key_cols: Vec<Column> = group_by
            .iter()
            .map(|e| vector::eval_expr(e, table))
            .collect::<Result<_>>()
            .map_err(|e| (0, e))?;
        let (ids, reps) = compute_group_ids(&key_cols);
        (ids, reps, key_cols)
    };
    // A single dictionary or INT key keeps each local group's key typed:
    // no per-group Value tuple is built, and the merge unifies groups
    // through a slot table where the key's span allows.
    let keys = match &key_cols[..] {
        [] => GroupKeys::Tuples(vec![Vec::new()]),
        [col] if col.is_dict() => {
            let (codes, dict) = col.dict_parts().expect("dictionary-encoded");
            let null = dict.len() as u32;
            let codes = rep_rows
                .iter()
                .map(|&r| if col.is_null(r) { null } else { codes[r] })
                .collect();
            GroupKeys::Codes(Arc::clone(dict), codes)
        }
        [col] if col.data_type() == DataType::Int => {
            let data = col.i64_data().expect("typed");
            GroupKeys::Ints(
                rep_rows
                    .iter()
                    .map(|&r| (!col.is_null(r)).then_some(data[r]))
                    .collect(),
            )
        }
        cols => GroupKeys::Tuples(
            rep_rows
                .iter()
                .map(|&row| cols.iter().map(|c| c.value(row)).collect())
                .collect(),
        ),
    };
    let n_groups = keys.len();

    // 2. Per-item partial state (item `ii` is stage rank `1 + ii`).
    let mut item_partials = Vec::with_capacity(items.len());
    for (ii, item) in items.iter().enumerate() {
        let rank = 1 + ii as u32;
        let expr = match item {
            SelectItem::Wildcard => {
                return Err((
                    rank,
                    MosaicError::Execution(
                        "SELECT * cannot be combined with GROUP BY / aggregates".into(),
                    ),
                ))
            }
            SelectItem::Expr { expr, .. } => expr,
        };
        let expr = super::bind_expr(expr, params).map_err(|e| (rank, e))?;
        expr_type(&expr, &column_type, true).map_err(|e| (rank, e))?;
        if expr.contains_aggregate() {
            let mut base: Vec<(Expr, Vec<Value>)> = Vec::new();
            collect_aggregates(&expr, &mut base).map_err(|e| (rank, e))?;
            let mut states = Vec::with_capacity(base.len());
            for (agg_expr, _) in &base {
                let Expr::Agg { func, arg } = agg_expr else {
                    unreachable!("collect_aggregates only collects Agg nodes")
                };
                let state =
                    partial_aggregate(*func, arg.as_deref(), table, &group_ids, n_groups, weights)
                        .map_err(|e| (rank, e))?;
                states.push((agg_expr.clone(), state));
            }
            item_partials.push(ItemPartial::Aggs(states));
        } else {
            let pos = group_by
                .iter()
                .position(|g| g.as_ref() == expr.as_ref())
                .ok_or_else(|| {
                    (
                        rank,
                        MosaicError::Execution(format!(
                            "projection {expr} is neither an aggregate nor a GROUP BY expression"
                        )),
                    )
                })?;
            item_partials.push(ItemPartial::Key(pos));
        }
    }
    Ok(MorselPartial {
        keys,
        items: item_partials,
    })
}

/// Minimum global group count for the partitioned merge to engage:
/// below this, partition-layout bookkeeping costs more than the merge
/// itself, so the single-partition path runs regardless of the setting.
const MIN_PARTITION_GROUPS: usize = 64;

/// Unify the per-morsel group dictionaries (global group order =
/// first-appearance order across morsels, which for a single morsel is
/// the serial order), hash-partition the group space into `partitions`
/// radix partitions, merge each partition independently on the shared
/// worker pool (folding partial states in morsel order within every
/// group), and assemble the output table in global group order.
///
/// The partition count never changes results: per-group fold order is
/// morsel order for any P, and partition outputs are scattered back to
/// first-appearance positions before assembly.
pub(crate) fn merge_finalize(
    items: &[SelectItem],
    weighted: bool,
    partials: &[MorselPartial],
    params: &[Value],
    threads: usize,
    partitions: usize,
) -> Result<Table> {
    // 1. Global groups + per-morsel local→global maps (serial:
    // first-appearance order is inherently sequential), and per global
    // group the hash its radix partition is taken from.
    let (order, maps) = unify_keys(partials);
    let ghash: Vec<u64> = match &order {
        GroupKeys::Codes(_, codes) => codes.iter().map(hash::hash_one).collect(),
        GroupKeys::Ints(ints) => ints.iter().map(hash::hash_one).collect(),
        GroupKeys::Tuples(tuples) => tuples
            .iter()
            .map(|k| hash::hash_one(k.as_slice()))
            .collect(),
    };
    let n_global = order.len();

    // 2. Radix partition layout. Groups keep ascending (= first
    // appearance) order within each partition; each morsel's local
    // groups scatter into per-partition (local, dense) pairs in one pass
    // over the maps.
    let p = if partitions > 1 && n_global >= MIN_PARTITION_GROUPS {
        partitions
    } else {
        1
    };
    let part_of: Vec<usize> = ghash.iter().map(|&h| hash::partition(h, p)).collect();
    let mut pgroups: Vec<Vec<u32>> = vec![Vec::new(); p];
    let mut pdense: Vec<u32> = vec![0; n_global];
    for (g, &pi) in part_of.iter().enumerate() {
        pdense[g] = pgroups[pi].len() as u32;
        pgroups[pi].push(g as u32);
    }
    let mut ppairs: Vec<Vec<Vec<(u32, u32)>>> = vec![vec![Vec::new(); partials.len()]; p];
    for (mi, map) in maps.iter().enumerate() {
        for (l, &g) in map.iter().enumerate() {
            ppairs[part_of[g as usize]][mi].push((l as u32, pdense[g as usize]));
        }
    }

    // Pre-bind aggregate item shells the same way the partial phase did,
    // so they match the stored (bound) base aggregates. The partial
    // phase already bound these expressions, so this cannot newly fail.
    let mut bound: Vec<Option<std::borrow::Cow<'_, Expr>>> = Vec::with_capacity(items.len());
    for (ii, item) in items.iter().enumerate() {
        match first_item_partial(partials, ii) {
            ItemPartial::Key(_) => bound.push(None),
            ItemPartial::Aggs(_) => {
                let SelectItem::Expr { expr, .. } = item else {
                    unreachable!("wildcards were rejected in the partial phase")
                };
                bound.push(Some(super::bind_expr(expr, params)?));
            }
        }
    }

    // 3. Merge every partition independently (p == 1 runs inline).
    let results = super::parallel::run_ordered(p, threads, |pi| {
        merge_partition(
            items,
            weighted,
            partials,
            &bound,
            &order,
            &pgroups[pi],
            &ppairs[pi],
        )
    });

    // Deterministic error selection: each partition reports its first
    // error in (item, global group) order, so the minimum across
    // partitions is exactly the error a serial pass would hit first.
    let mut outs = Vec::with_capacity(p);
    let mut first_err: Option<(usize, u32, MosaicError)> = None;
    for r in results {
        match r {
            Ok(cols) => outs.push(cols),
            Err(e) => {
                if first_err
                    .as_ref()
                    .is_none_or(|(ii, g, _)| (e.0, e.1) < (*ii, *g))
                {
                    first_err = Some(e);
                }
                outs.push(Vec::new());
            }
        }
    }
    if let Some((_, _, e)) = first_err {
        return Err(e);
    }

    // 4. Scatter partition outputs back into global group order (making
    // the result invariant in P), then assemble. Partitions hold disjoint
    // group sets, so draining each partition's columns in item order
    // fills every group's row in item order.
    let mut value_rows: Vec<Vec<Value>> = vec![Vec::with_capacity(items.len()); n_global];
    for (out, groups) in outs.iter_mut().zip(&pgroups) {
        for col in out.drain(..) {
            for (&g, v) in groups.iter().zip(col) {
                value_rows[g as usize].push(v);
            }
        }
    }
    let fields: Vec<String> = items.iter().map(super::output_name).collect();
    super::assemble_value_rows(&fields, &value_rows)
}

/// Unify the morsels' local groups into global groups, numbered in
/// first-appearance order across morsels, and map each morsel's local
/// groups to them. When every morsel keys its groups by codes of one
/// dictionary, or every morsel by INT values, the global groups stay
/// typed and a slot table over the codes or the global INT span numbers
/// them where [`hash::dense_fits`] allows (else the typed key hashes).
/// Morsels that disagree on the key's kind unify as tuples.
fn unify_keys(partials: &[MorselPartial]) -> (GroupKeys, Vec<Vec<u32>>) {
    let entries = partials.iter().map(|p| p.keys.len()).sum();
    let dict = match partials.first().map(|p| &p.keys) {
        Some(GroupKeys::Codes(d, _)) => Some(d),
        _ => None,
    };
    let codes: Option<Vec<&[u32]>> = partials
        .iter()
        .map(|p| match &p.keys {
            GroupKeys::Codes(d, codes) if dict.is_some_and(|dict| Arc::ptr_eq(d, dict)) => {
                Some(codes.as_slice())
            }
            _ => None,
        })
        .collect();
    if let (Some(dict), Some(lists)) = (dict, codes) {
        let slots = dict.len() as u128 + 1;
        let dense = hash::dense_fits(slots, entries).then_some(slots as usize);
        let (gcodes, maps) = number_keys(&lists, dense, |&c| c as usize);
        return (GroupKeys::Codes(Arc::clone(dict), gcodes), maps);
    }
    let ints: Option<Vec<&[Option<i64>]>> = partials
        .iter()
        .map(|p| match &p.keys {
            GroupKeys::Ints(ints) => Some(ints.as_slice()),
            _ => None,
        })
        .collect();
    if let Some(lists) = ints {
        let values = lists.iter().flat_map(|l| l.iter().flatten().copied());
        let (min, slots) = hash::int_slots(values);
        let dense = hash::dense_fits(slots, entries).then_some(slots as usize);
        let null = (slots - 1) as usize;
        let slot = |k: &Option<i64>| k.map_or(null, |v| hash::int_slot(v, min));
        let (gints, maps) = number_keys(&lists, dense, slot);
        return (GroupKeys::Ints(gints), maps);
    }
    let tuples: Vec<Cow<'_, [Vec<Value>]>> = partials.iter().map(|p| p.keys.tuples()).collect();
    let lists: Vec<&[Vec<Value>]> = tuples.iter().map(Cow::as_ref).collect();
    let (gtuples, maps) = number_keys(&lists, None, |_| unreachable!("tuples hash"));
    (GroupKeys::Tuples(gtuples), maps)
}

/// Number the distinct keys of `lists` (one list per morsel) in
/// first-appearance order: through a table of `dense` slots indexed by
/// `slot` when given, else through a [`FoldMap`]. Returns the distinct
/// keys and, per list, each key's number.
fn number_keys<K: Hash + Eq + Clone>(
    lists: &[&[K]],
    dense: Option<usize>,
    slot: impl Fn(&K) -> usize,
) -> (Vec<K>, Vec<Vec<u32>>) {
    let mut keys: Vec<K> = Vec::new();
    let mut number = |key: &K, id: &mut u32| {
        if *id == u32::MAX {
            *id = keys.len() as u32;
            keys.push(key.clone());
        }
        *id
    };
    let maps = match dense {
        Some(slots) => {
            let mut table = vec![u32::MAX; slots];
            lists
                .iter()
                .map(|l| l.iter().map(|k| number(k, &mut table[slot(k)])).collect())
                .collect()
        }
        None => {
            let mut index: FoldMap<&K, u32> = FoldMap::default();
            lists
                .iter()
                .map(|l| {
                    l.iter()
                        .map(|k| number(k, index.entry(k).or_insert(u32::MAX)))
                        .collect()
                })
                .collect()
        }
    };
    (keys, maps)
}

/// Merge and finalize one radix partition. `pgroups` lists the
/// partition's global groups (ascending), `ppairs[mi]` the morsel-local →
/// partition-dense index pairs of morsel `mi`. Returns one output column
/// (over the partition's groups) per item, or the partition's first
/// error in (item, global group) order.
#[allow(clippy::type_complexity)]
fn merge_partition(
    items: &[SelectItem],
    weighted: bool,
    partials: &[MorselPartial],
    bound: &[Option<std::borrow::Cow<'_, Expr>>],
    order: &GroupKeys,
    pgroups: &[u32],
    ppairs: &[Vec<(u32, u32)>],
) -> std::result::Result<Vec<Vec<Value>>, (usize, u32, MosaicError)> {
    let n_local = pgroups.len();
    let mut cols = Vec::with_capacity(items.len());
    for (ii, bound_item) in bound.iter().enumerate() {
        match first_item_partial(partials, ii) {
            ItemPartial::Key(pos) => {
                cols.push(
                    pgroups
                        .iter()
                        .map(|&g| order.value(g as usize, *pos))
                        .collect(),
                );
            }
            ItemPartial::Aggs(bases) => {
                let mut merged: Vec<(Expr, Vec<Value>)> = Vec::with_capacity(bases.len());
                for (bi, (agg_expr, _)) in bases.iter().enumerate() {
                    let Expr::Agg { func, .. } = agg_expr else {
                        unreachable!("collect_aggregates only collects Agg nodes")
                    };
                    let values =
                        merge_base_aggregate(*func, weighted, partials, ppairs, ii, bi, n_local);
                    merged.push((agg_expr.clone(), values));
                }
                let expr = bound_item.as_ref().expect("aggregate items are pre-bound");
                let mut out = Vec::with_capacity(n_local);
                for (dense, &g) in pgroups.iter().enumerate() {
                    out.push(eval_over_groups(expr, dense, &merged).map_err(|e| (ii, g, e))?);
                }
                cols.push(out);
            }
        }
    }
    Ok(cols)
}

/// The item partial of item `ii` in the first morsel (every morsel has
/// the same item structure — it depends only on the statement).
fn first_item_partial(partials: &[MorselPartial], ii: usize) -> &ItemPartial {
    &partials.first().expect("at least one morsel partial").items[ii]
}

/// Merge base aggregate `bi` of item `ii` across all morsels (in morsel
/// order) and finalize it into one `Value` per group of this partition.
/// Each morsel contributes at most one local group per target group, so
/// folding morsels in order gives every group the same addition order as
/// a dense whole-space merge — the partition count cannot perturb floats.
fn merge_base_aggregate(
    func: AggFunc,
    weighted: bool,
    partials: &[MorselPartial],
    ppairs: &[Vec<(u32, u32)>],
    ii: usize,
    bi: usize,
    n_local: usize,
) -> Vec<Value> {
    let locals = partials.iter().zip(ppairs).map(|(p, pairs)| {
        let ItemPartial::Aggs(bases) = &p.items[ii] else {
            unreachable!("item structure is morsel-invariant")
        };
        (&bases[bi].1, pairs.as_slice())
    });
    match func {
        AggFunc::Count | AggFunc::Sum | AggFunc::Avg => {
            let mut state = AggState::new(n_local);
            let mut int_typed = true;
            for (local, pairs) in locals {
                let AggPartial::Num {
                    state: ls,
                    int_typed: li,
                } = local
                else {
                    unreachable!("numeric aggregate has numeric partials")
                };
                // A morsel whose argument column came out all-NULL
                // reports Int (the evaluator's degenerate-type rule); it
                // contributes no rows, so only real Int morsels keep the
                // output integral — exactly the whole-column rule.
                int_typed &= *li;
                state.merge_pairs(ls, pairs);
            }
            (0..n_local)
                .map(|g| match func {
                    AggFunc::Count => {
                        if weighted {
                            Value::Float(state.wsums[g])
                        } else {
                            Value::Int(state.wsums[g] as i64)
                        }
                    }
                    AggFunc::Sum => {
                        if state.counts[g] == 0 {
                            Value::Null
                        } else if !weighted && int_typed {
                            Value::Int(state.sums[g] as i64)
                        } else {
                            Value::Float(state.sums[g])
                        }
                    }
                    AggFunc::Avg => {
                        if state.counts[g] == 0 {
                            Value::Null
                        } else {
                            Value::Float(state.sums[g] / state.wsums[g])
                        }
                    }
                    _ => unreachable!(),
                })
                .collect()
        }
        AggFunc::Min | AggFunc::Max => {
            let mut best: Vec<Value> = vec![Value::Null; n_local];
            for (local, pairs) in locals {
                let AggPartial::MinMax(lb) = local else {
                    unreachable!("min/max aggregate has min/max partials")
                };
                for &(l, d) in pairs {
                    let v = &lb[l as usize];
                    if v.is_null() {
                        continue;
                    }
                    let b = &mut best[d as usize];
                    if b.is_null() {
                        *b = v.clone();
                        continue;
                    }
                    // First-wins on incomparable values, like
                    // `min_max_by_cmp` — merging per-morsel bests in morsel
                    // order preserves the sequential-scan outcome.
                    let keep_new = match v.sql_cmp(b) {
                        Some(std::cmp::Ordering::Less) => func == AggFunc::Min,
                        Some(std::cmp::Ordering::Greater) => func == AggFunc::Max,
                        _ => false,
                    };
                    if keep_new {
                        *b = v.clone();
                    }
                }
            }
            best
        }
    }
}

/// Group rows by their key tuple: per-row group ids in first-appearance
/// order, plus each group's first row. Each further key column folds in
/// pairwise — the (ids so far, column ids) pair of a row is one word.
fn compute_group_ids(key_cols: &[Column]) -> (Vec<u32>, Vec<usize>) {
    let n = key_cols[0].len();
    let (mut ids, mut reps) = encode_column(&key_cols[0]);
    for col in &key_cols[1..] {
        let (next, _) = encode_column(col);
        (ids, reps) = first_appearance(n, |i| (u64::from(ids[i]) << 32) | u64::from(next[i]));
    }
    (ids, reps)
}

/// One key column's group ids and first rows (see [`compute_group_ids`]).
/// Equality matches `Value` equality within the column's type: exact for
/// ints/bools/strings, bit-pattern for floats (`Value::PartialEq`
/// compares floats by `to_bits`, so `-0.0` / `+0.0` and distinct NaN
/// payloads are distinct groups). NULL is one group.
///
/// Dictionary codes, BOOL and an INT column whose span passes
/// [`hash::dense_fits`] index a slot table (the last slot is NULL's);
/// FLOAT, plain strings and wider INT spans hash. Both number groups in
/// order of first appearance, so the choice never shows in the ids.
fn encode_column(col: &Column) -> (Vec<u32>, Vec<usize>) {
    let n = col.len();
    let valid = |i: usize| !col.is_null(i);
    if let Some(data) = col.i64_data() {
        let (min, slots) = match col.validity() {
            None => hash::int_slots(data.iter().copied()),
            Some(v) => hash::int_slots(v.iter_ones().map(|i| data[i])),
        };
        if !hash::dense_fits(slots, n) {
            return first_appearance(n, |i| valid(i).then_some(data[i]));
        }
        let null = (slots - 1) as usize;
        slot_appearance(n, slots as usize, |i| {
            if valid(i) {
                hash::int_slot(data[i], min)
            } else {
                null
            }
        })
    } else if let Some(data) = col.f64_data() {
        first_appearance(n, |i| valid(i).then_some(data[i].to_bits()))
    } else if let Some((codes, dict)) = col.dict_parts() {
        // Dictionary-encoded strings: the column's own codes already
        // identify distinct values, so no per-row string hashing at all.
        // `dict.len()` stands for NULL.
        let null = dict.len() as u32;
        let code = |i: usize| if valid(i) { codes[i] } else { null };
        if hash::dense_fits(dict.len() as u128 + 1, n) {
            slot_appearance(n, dict.len() + 1, |i| code(i) as usize)
        } else {
            first_appearance(n, code)
        }
    } else if let Some(data) = col.str_data() {
        first_appearance(n, |i| valid(i).then_some(data[i].as_str()))
    } else {
        let data = col.bool_data().expect("bool is the remaining column kind");
        slot_appearance(n, 3, |i| if valid(i) { usize::from(data[i]) } else { 2 })
    }
}

/// Per-row ids of `key(row)` over rows `0..n`, numbered in order of
/// first appearance, plus each id's first row.
fn first_appearance<K: Hash + Eq>(n: usize, key: impl Fn(usize) -> K) -> (Vec<u32>, Vec<usize>) {
    let mut index: FoldMap<K, u32> = FoldMap::default();
    let mut reps = Vec::new();
    let ids = (0..n)
        .map(|row| {
            let next = reps.len() as u32;
            *index.entry(key(row)).or_insert_with(|| {
                reps.push(row);
                next
            })
        })
        .collect();
    (ids, reps)
}

/// [`first_appearance`] over a key given as its slot in a table of
/// `slots` slots: a load and a compare per row, no hashing.
fn slot_appearance(
    n: usize,
    slots: usize,
    slot: impl Fn(usize) -> usize,
) -> (Vec<u32>, Vec<usize>) {
    let mut table = vec![u32::MAX; slots];
    let mut reps = Vec::new();
    let ids = (0..n)
        .map(|row| {
            let id = &mut table[slot(row)];
            if *id == u32::MAX {
                *id = reps.len() as u32;
                reps.push(row);
            }
            *id
        })
        .collect();
    (ids, reps)
}

/// Collect the distinct `Agg` nodes of an aggregate expression, erroring
/// on an item that mixes aggregates with row-level terms.
fn collect_aggregates(expr: &Expr, out: &mut Vec<(Expr, Vec<Value>)>) -> Result<()> {
    match expr {
        Expr::Agg { .. } => {
            if !out.iter().any(|(e, _)| e == expr) {
                out.push((expr.clone(), Vec::new()));
            }
            Ok(())
        }
        Expr::Binary { left, right, .. } => {
            collect_aggregates(left, out)?;
            collect_aggregates(right, out)
        }
        Expr::Unary { expr, .. } => collect_aggregates(expr, out),
        Expr::Literal(_) => Ok(()),
        other => Err(MosaicError::Execution(format!(
            "expression {other} mixes aggregates with row-level terms"
        ))),
    }
}

/// Evaluate the non-aggregate shell of an item for one group, with every
/// `Agg` node replaced by its precomputed per-group value.
fn eval_over_groups(expr: &Expr, gi: usize, base: &[(Expr, Vec<Value>)]) -> Result<Value> {
    let literal = |e: &Expr| eval_over_groups(e, gi, base).map(|v| Box::new(Expr::Literal(v)));
    match expr {
        Expr::Agg { .. } => Ok(base
            .iter()
            .find(|(e, _)| e == expr)
            .expect("collected above")
            .1[gi]
            .clone()),
        Expr::Binary { left, op, right } => eval_scalar(&Expr::Binary {
            left: literal(left)?,
            op: *op,
            right: literal(right)?,
        }),
        Expr::Unary { op, expr } => eval_scalar(&Expr::Unary {
            op: *op,
            expr: literal(expr)?,
        }),
        Expr::Literal(v) => Ok(v.clone()),
        other => Err(MosaicError::Execution(format!(
            "expression {other} mixes aggregates with row-level terms"
        ))),
    }
}

/// Compute the partial state of one base aggregate over one morsel
/// through the grouped kernels.
fn partial_aggregate(
    func: AggFunc,
    arg: Option<&Expr>,
    table: &Table,
    group_ids: &[u32],
    n_groups: usize,
    weights: Option<&[f64]>,
) -> Result<AggPartial> {
    match func {
        AggFunc::Count => {
            let arg_col = arg.map(|e| vector::eval_expr(e, table)).transpose()?;
            let mut state = AggState::new(n_groups);
            kernels::group_count(
                arg_col.as_ref().and_then(Column::validity),
                group_ids,
                weights,
                &mut state.wsums,
                &mut state.counts,
            );
            Ok(AggPartial::Num {
                state,
                int_typed: false,
            })
        }
        AggFunc::Sum | AggFunc::Avg => {
            let e = arg.ok_or_else(|| {
                MosaicError::Execution(format!("{}(*) requires an argument", func.name()))
            })?;
            let col = vector::eval_expr(e, table)?;
            let mut state = AggState::new(n_groups);
            let int_typed = col.data_type() == DataType::Int;
            match col.data_type() {
                DataType::Int if weights.is_none() => {
                    kernels::group_sum_i64(
                        col.i64_data().expect("typed"),
                        col.validity(),
                        group_ids,
                        &mut state.sums,
                        &mut state.counts,
                    );
                    for (w, &c) in state.wsums.iter_mut().zip(&state.counts) {
                        *w = c as f64;
                    }
                }
                DataType::Int => {
                    let widened = kernels::widen_i64(col.i64_data().expect("typed"));
                    kernels::group_sum_f64(
                        &widened,
                        col.validity(),
                        group_ids,
                        weights,
                        &mut state.sums,
                        &mut state.wsums,
                        &mut state.counts,
                    );
                }
                DataType::Float => {
                    kernels::group_sum_f64(
                        col.f64_data().expect("typed"),
                        col.validity(),
                        group_ids,
                        weights,
                        &mut state.sums,
                        &mut state.wsums,
                        &mut state.counts,
                    );
                }
                // The item was typed before any aggregate ran.
                DataType::Bool | DataType::Str => {
                    return Err(MosaicError::Execution(format!(
                        "{} has no kernel over {}",
                        func.name(),
                        col.data_type()
                    )))
                }
            }
            Ok(AggPartial::Num { state, int_typed })
        }
        AggFunc::Min | AggFunc::Max => {
            let e = arg.ok_or_else(|| {
                MosaicError::Execution(format!("{}(*) requires an argument", func.name()))
            })?;
            let col = vector::eval_expr(e, table)?;
            compute_min_max(func, &col, group_ids, n_groups).map(AggPartial::MinMax)
        }
    }
}

fn compute_min_max(
    func: AggFunc,
    col: &Column,
    group_ids: &[u32],
    n_groups: usize,
) -> Result<Vec<Value>> {
    let mut counts = vec![0u64; n_groups];
    match col.data_type() {
        DataType::Int => {
            // MIN/MAX compare through sql_cmp's f64 coercion with
            // first-wins ties, so ints beyond 2^53 (where f64 collapses
            // neighbours) take the `min_max_by_cmp` loop.
            // Below 2^53 the i64 and f64 orders agree, so the kernel and
            // the cmp loop pick identical bests — which also keeps this
            // per-morsel choice consistent with the whole-column one.
            let data = col.i64_data().expect("typed");
            if data.iter().any(|v| v.unsigned_abs() >= (1u64 << 53)) {
                return min_max_by_cmp(func, col, group_ids, n_groups);
            }
            let mut mins = vec![i64::MAX; n_groups];
            let mut maxs = vec![i64::MIN; n_groups];
            kernels::group_min_max_i64(
                col.i64_data().expect("typed"),
                col.validity(),
                group_ids,
                &mut mins,
                &mut maxs,
                &mut counts,
            );
            Ok((0..n_groups)
                .map(|g| {
                    if counts[g] == 0 {
                        Value::Null
                    } else if func == AggFunc::Min {
                        Value::Int(mins[g])
                    } else {
                        Value::Int(maxs[g])
                    }
                })
                .collect())
        }
        DataType::Float => {
            let data = col.f64_data().expect("typed");
            if data.iter().any(|v| v.is_nan()) {
                // NaN compares as incomparable in sql_cmp (the earlier
                // value survives); take the `min_max_by_cmp` loop.
                return min_max_by_cmp(func, col, group_ids, n_groups);
            }
            let mut mins = vec![f64::INFINITY; n_groups];
            let mut maxs = vec![f64::NEG_INFINITY; n_groups];
            kernels::group_min_max_f64(
                data,
                col.validity(),
                group_ids,
                &mut mins,
                &mut maxs,
                &mut counts,
            );
            Ok((0..n_groups)
                .map(|g| {
                    if counts[g] == 0 {
                        Value::Null
                    } else if func == AggFunc::Min {
                        Value::Float(mins[g])
                    } else {
                        Value::Float(maxs[g])
                    }
                })
                .collect())
        }
        DataType::Str | DataType::Bool => min_max_by_cmp(func, col, group_ids, n_groups),
    }
}

/// Scalar min/max under `sql_cmp` semantics, first-wins on
/// incomparable values.
fn min_max_by_cmp(
    func: AggFunc,
    col: &Column,
    group_ids: &[u32],
    n_groups: usize,
) -> Result<Vec<Value>> {
    let mut best: Vec<Value> = vec![Value::Null; n_groups];
    for row in 0..col.len() {
        let v = col.value(row);
        if v.is_null() {
            continue;
        }
        let b = &mut best[group_ids[row] as usize];
        if b.is_null() {
            *b = v;
            continue;
        }
        let keep_new = match v.sql_cmp(b) {
            Some(std::cmp::Ordering::Less) => func == AggFunc::Min,
            Some(std::cmp::Ordering::Greater) => func == AggFunc::Max,
            _ => false,
        };
        if keep_new {
            *b = v;
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::parallel::MORSEL_ROWS;
    use mosaic_storage::Bitmap;

    /// A xorshift stream of pseudo-random words.
    fn stream(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// The ids and first rows a hash map gives one key column.
    fn hashed(col: &Column) -> (Vec<u32>, Vec<usize>) {
        let valid = |i: usize| !col.is_null(i);
        if let Some(data) = col.i64_data() {
            first_appearance(col.len(), |i| valid(i).then_some(data[i]))
        } else if let Some((codes, _)) = col.dict_parts() {
            first_appearance(col.len(), |i| valid(i).then_some(codes[i]))
        } else {
            let data = col.bool_data().expect("bool");
            first_appearance(col.len(), |i| valid(i).then_some(data[i]))
        }
    }

    /// Slot tables number INT spans (narrow, at the gate, beyond it, at
    /// both ends of `i64`), dictionary codes and BOOL exactly as a hash
    /// map does, with NULLs whose payloads lie outside the span.
    #[test]
    fn dense_and_hashed_group_ids_agree() {
        let mut next = stream(0x9e37_79b9_7f4a_7c15);
        for n in [0usize, 1, 7, 1000, MORSEL_ROWS] {
            for span in [1u64, 3, 1000, 4 * MORSEL_ROWS as u64 - 1, 1 << 40] {
                for base in [-5i64, i64::MIN, i64::MAX - (span as i64 - 1)] {
                    let valid: Vec<bool> = (0..n).map(|_| !next().is_multiple_of(5)).collect();
                    let data: Vec<i64> = valid
                        .iter()
                        .map(|&v| match v {
                            true => base + (next() % span) as i64,
                            false => next() as i64,
                        })
                        .collect();
                    let col = Column::from_i64_opt(data, Some(Bitmap::from_iter(valid)));
                    assert_eq!(encode_column(&col), hashed(&col), "{n} rows, span {span}");
                }
            }
            let strings: Vec<Value> = (0..n)
                .map(|_| match next() % 40 {
                    0 => Value::Null,
                    k => Value::Str(format!("s{k}")),
                })
                .collect();
            let col = Column::from_values(DataType::Str, &strings)
                .unwrap()
                .dict_encoded();
            assert_eq!(encode_column(&col), hashed(&col), "{n} strings");
            let bools: Vec<Value> = (0..n)
                .map(|_| match next() % 3 {
                    0 => Value::Null,
                    b => Value::Bool(b == 1),
                })
                .collect();
            let col = Column::from_values(DataType::Bool, &bools).unwrap();
            assert_eq!(encode_column(&col), hashed(&col), "{n} bools");
        }
    }

    /// The merge numbers typed keys alike through its slot table and its
    /// hash map.
    #[test]
    fn dense_and_hashed_merge_numbering_agree() {
        let mut next = stream(0x2545_f491_4f6c_dd1d);
        let lists: Vec<Vec<Option<i64>>> = (0..9)
            .map(|m| {
                (0..(m * 37) % 100)
                    .map(|_| (!next().is_multiple_of(7)).then(|| (next() % 500) as i64 - 250))
                    .collect()
            })
            .collect();
        let lists: Vec<&[Option<i64>]> = lists.iter().map(Vec::as_slice).collect();
        let (min, slots) = hash::int_slots(lists.iter().flat_map(|l| l.iter().flatten().copied()));
        let null = (slots - 1) as usize;
        let slot = |k: &Option<i64>| k.map_or(null, |v| hash::int_slot(v, min));
        assert_eq!(
            number_keys(&lists, Some(slots as usize), slot),
            number_keys(&lists, None, slot)
        );
        let codes: Vec<Vec<u32>> = (0..9)
            .map(|m| (0..(m * 53) % 70).map(|_| (next() % 24) as u32).collect())
            .collect();
        let codes: Vec<&[u32]> = codes.iter().map(Vec::as_slice).collect();
        let slot = |&c: &u32| c as usize;
        assert_eq!(
            number_keys(&codes, Some(24), slot),
            number_keys(&codes, None, slot)
        );
    }
}
