//! Sharded execution of proper-hom `set-reduce` folds across a scoped
//! worker pool.
//!
//! The paper's expressiveness results hinge on folds whose combiners are
//! **proper homomorphisms** (Section 7): commutative-associative accumulator
//! steps for which the traversal order is provably unobservable. That same
//! algebraic condition is exactly what makes a fold *splittable*: for a
//! proper hom, folding contiguous shards of the input independently and
//! merging the partial accumulators in shard order computes the same value
//! as the sequential left fold. The compile-time side of this analysis lives
//! in [`FoldClass`] — the lowered-IR descendant
//! of `srl-analysis`'s `combiner_is_proper` — which codegen records on every
//! fused `Reduce` instruction; this module is the runtime side.
//!
//! ## Execution model
//!
//! A work-stealing-free, scoped-thread pool: when `try_run` accepts a
//! fold, the input `SetRepr`'s element sequence is partitioned into `k =
//! min(threads, n)` contiguous windows whose sizes differ by at most one;
//! each worker walks its window through [`SetRepr::iter_range`], so a
//! columnar (atoms/bits tier) input is decoded shard-locally and never
//! materialized whole. Shards `1..k` are spawned as [`std::thread::scope`]
//! workers (so they may borrow the chunk, the compiled program and the
//! input set — no `Arc` restructuring, no `unsafe`); shard `0` runs on the
//! calling thread while
//! the workers are in flight; joins happen in shard order. Each worker gets
//! its own `EvalCore`: a clone of the current frame (O(frame) `Arc`
//! bumps), zeroed statistics, and the *remaining* step/allocation budget at
//! fold entry. Workers execute the **same per-element helpers** as the
//! sequential loops (`vm::boolacc_element` and friends), so one element
//! charges one identical stat sequence on either path. Nested folds inside
//! a sharded lambda run sequentially (`VmCtx::sequential`) — shard workers
//! never spawn again, so the pool width bounds total thread count.
//!
//! ## The stats-determinism contract
//!
//! `EvalStats` are **byte-identical across thread counts** on every
//! successful evaluation — the thread axis extends the backend axis's
//! contract. This falls out of three properties:
//!
//! 1. every additive counter (`steps`, `reduce_iterations`, `inserts`,
//!    `new_values`, allocation totals) is a sum of identical per-element
//!    charges, and sums are partition-invariant — the merge absorbs worker
//!    statistics **in shard order**, re-basing the allocation high-water on
//!    the cumulative total so `max_value_weight` matches the sequential
//!    running count;
//! 2. the high-water marks (`max_depth`, nested folds'
//!    `max_accumulator_weight`) are maxima of per-element observations,
//!    also partition-invariant;
//! 3. the sharded fold's *own* accumulator-weight trajectory is monotone
//!    (set accumulators only grow; bool accumulators flip once), so its
//!    maximum is reconstructed exactly from the shard results: the merge
//!    unions the shard accumulators in order and notes the merged set's
//!    capped weight (an O(1) read), the final and largest value the
//!    sequential loop notes.
//!
//! Limit errors stay faithful too: a worker runs against the budget that
//! remained at fold entry (so a shard that alone exhausts it fails with the
//! right error), and the ordered merge re-checks the cumulative totals
//! shard by shard (so a crossing that only the *sum* of shards produces is
//! still reported, with the step error taking precedence over the size
//! error within one shard's batch — the same precedence
//! `EvalCore::bump_batch` documents). On error paths the error kind
//! matches sequential execution while partial counters may differ, exactly
//! as on the backend axis.
//!
//! ## Panic isolation
//!
//! Each worker body runs inside `catch_unwind` (the per-element helpers are
//! the only code that executes there, so the unwind boundary is one
//! closure). A panicking shard is converted into
//! [`EvalError::Internal`] instead of poisoning the join. Sibling shards
//! run to completion or to their own error (each polls the fold's inherited
//! deadline on its own clock); the merge reports the `Internal` error in
//! preference to every sibling outcome, so the root cause is never masked.
//! The process, the pool and the evaluator all survive: the caller's stats
//! roll back at the root frame and the next query runs clean.
//!
//! ## What is sharded
//!
//! Only folds whose [`FoldClass`] is
//! `ProperHom` *and* whose kind has real per-element lambda work:
//! `InsertApp`, `Filter`, `BoolAcc`, and `Generic` folds whose accumulator
//! body was proved an insert spine, local or call-threaded
//! ([`FoldOrigin::Spine`](crate::bytecode::FoldOrigin::Spine)). `Member`,
//! `Union` and `Product` are proper homs too, but their data path is
//! already one binary search / one bulk merge / one ordered pass over
//! `A × B` — there is nothing left to fan out. Set-building folds are
//! sharded only when the base is a set (any other base is an error or
//! degenerate case the sequential path reproduces exactly). The handoff is
//! gated by [`PAR_WORK_THRESHOLD`]: input cardinality times the fold's
//! static [`unit_cost`](crate::bytecode::ReduceInsn::unit_cost) must reach
//! about a millisecond of sequential work (2^16 units) before the spawn
//! pays on real cores. The E1–E9 queries that perfbench's batch workload
//! times stay below it and run sequentially; powerset sift folds from 11
//! atoms up and selects over thousands of elements with a nested
//! quantifier shard. The constant's doc holds the calibration. Declining
//! never changes results or statistics — gating is pure strategy.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;

use crate::bytecode::{Chunk, FoldClass, ReduceInsn, ReduceKind};
use crate::error::EvalError;
use crate::eval::{weight_capped, EvalCore, TierEngagements, ACCUMULATOR_WEIGHT_CAP, POLL_STRIDE};
use crate::faultpoint;
use crate::limits::{EvalLimits, EvalStats};
use crate::setrepr::SetRepr;
use crate::value::Value;
use crate::vm::{boolacc_element, filter_element, generic_element, insertapp_element, VmCtx};

/// Minimum estimated fold work (input cardinality × static per-element
/// cost, see [`crate::bytecode::ReduceInsn::unit_cost`]) before a fold is
/// handed to the worker pool. Below it, the scoped-thread spawn and merge
/// overhead would outweigh the per-shard work; above it, the shards
/// amortize the handoff. Gating is pure execution strategy — results and
/// statistics are identical either way.
///
/// **Calibration** (2 vCPU host, nproc = 2). 2^16 units is about 1 ms of
/// sequential fold work at the 13–20 ns per unit the E1–E9 batch folds
/// run at. Below that, sharding loses on real cores:
///
/// - one `thread::scope` spawn plus join costs 37–40 µs per fold;
/// - shards that run concurrently each take 0.6–0.85× of the sequential
///   fold's time, not 0.5× (E9's filter over 600 pairs: 134 µs
///   sequential, 113–200 µs per 300-element shard).
///
/// The batch folds span 4.7k–37k units and every one of them lost when
/// sharded, so they run sequentially. Raising the gate from 4,096 to this
/// value, perfbench `batch-experiments` at `threads = nproc = 2`
/// (10 alternating pairs, medians, change/parent):
///
/// | metric | ratio | pairs won |
/// |---|---|---|
/// | `e9_join_ms` (0.497 → 0.308) | 0.62 | 10/10 |
/// | `e5_tc_dtc_ms` (2.55 → 1.83) | 0.72 | 10/10 |
/// | `e2_powerset_ms` | 0.74 | 10/10 |
/// | `throughput_qps` | 1.28 | 10/10 |
/// | `peak_rss_mb` | 0.90 | 10/10 |
/// | `latency_p50_us` | 0.79 | 9/10 |
/// | `e1`/`e3`/`e7` | 0.82–0.83 | 8–9/10 |
///
/// Folds above the gate still shard: E2's powerset sift folds from 11
/// atoms up (1,024 subsets × 73 = 74,752 units; 2,048 × 73 at 12 atoms)
/// and the `E9 inter-pairs n=4096` probe (4,096 × 265 ≈ 1.09M units).
pub const PAR_WORK_THRESHOLD: u64 = 1 << 16;

/// What one shard hands back to the merge.
struct ShardRun {
    /// The worker's statistics (zero-based; absorbed in shard order).
    stats: EvalStats,
    /// The worker's total allocated leaves (zero-based; summed into the
    /// caller's running allocation count).
    allocated: usize,
    /// The worker's per-tier columnar engagement counts (diagnostic, see
    /// [`EvalCore::tier_engagements`]; summed in shard order).
    tier_engagements: TierEngagements,
    /// The shard's data outcome, or the error its earliest element raised.
    outcome: Result<ShardData, EvalError>,
}

/// The kind-specific payload of a completed shard.
enum ShardData {
    /// `BoolAcc`: index (within the shard) of the first accumulator flip —
    /// the first `or`-hit / `and`-miss — if any.
    Flip(Option<usize>),
    /// Set-building kinds: the shard-local accumulator, folded from the
    /// empty set over the shard's elements in order.
    Set(SetRepr),
}

/// Attempts sharded execution of a fused set fold. Returns `None` when the
/// fold should run sequentially (wrong class or kind, too little work, a
/// non-set base for a set-building kind, or a sequential context); the
/// caller falls through to the sequential arms with all operands untouched.
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_run(
    core: &mut EvalCore,
    ctx: &VmCtx<'_>,
    chunk: &Chunk,
    r: &ReduceInsn,
    d: usize,
    items: &Arc<SetRepr>,
    base_v: &Value,
    extra_v: &Value,
) -> Option<Result<Value, EvalError>> {
    let n = items.len();
    if ctx.threads <= 1 || r.is_list || r.class != FoldClass::ProperHom || n < 2 {
        return None;
    }
    if (n as u64).saturating_mul(r.unit_cost as u64) < PAR_WORK_THRESHOLD {
        return None;
    }
    let base_is_set = matches!(base_v, Value::Set(_));
    match &r.kind {
        // Already closed-form single-pass operations: nothing to fan out.
        ReduceKind::Member | ReduceKind::Union | ReduceKind::Product => None,
        ReduceKind::BoolAcc { .. } => {
            Some(run_sharded(core, ctx, chunk, r, d, items, base_v, extra_v))
        }
        // `Generic` reaches here only as `ProperHom` (the class gate above),
        // i.e. when the spine proof showed its accumulator, local or
        // call-threaded, only grows by inserts: the merge then notes the
        // final weight, the maximum of the sequential trajectory.
        ReduceKind::InsertApp { .. } | ReduceKind::Filter { .. } | ReduceKind::Generic { .. }
            if base_is_set =>
        {
            Some(run_sharded(core, ctx, chunk, r, d, items, base_v, extra_v))
        }
        _ => None,
    }
}

/// Contiguous shard windows over `n` elements: `k` ranges whose lengths
/// differ by at most one (the first `n % k` get the extra element).
fn shard_bounds(n: usize, k: usize) -> Vec<Range<usize>> {
    let base = n / k;
    let extra = n % k;
    let mut bounds = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let len = base + usize::from(i < extra);
        bounds.push(start..start + len);
        start += len;
    }
    bounds
}

/// The accepted path: spawn the shard workers, run shard 0 locally, then
/// merge in shard order.
#[allow(clippy::too_many_arguments)]
fn run_sharded(
    core: &mut EvalCore,
    ctx: &VmCtx<'_>,
    chunk: &Chunk,
    r: &ReduceInsn,
    d: usize,
    items: &Arc<SetRepr>,
    base_v: &Value,
    extra_v: &Value,
) -> Result<Value, EvalError> {
    let n = items.len();
    let k = ctx.threads.min(n);
    let bounds = shard_bounds(n, k);
    // Each worker frame is a clone of the caller's current frame: the lambda
    // blocks may read any enclosing lexical slot (always via `Copy` — takes
    // never reach below the fold's floor), and cloning is O(frame) Arc
    // bumps. Registers at and above the lambda parameters are written before
    // they are read, so the clone's stale temporaries are never observed.
    let frame: Vec<Value> = core.locals[core.frame_base..].to_vec();
    // Workers check against the budget that remains at fold entry; the
    // ordered merge below re-checks the cumulative totals.
    let worker_limits = EvalLimits {
        max_steps: core.limits.max_steps.saturating_sub(core.stats.steps),
        max_value_weight: core
            .limits
            .max_value_weight
            .saturating_sub(core.allocated_leaves),
        max_depth: core.limits.max_depth,
        max_nat_bits: core.limits.max_nat_bits,
        deadline: core.limits.deadline,
    };
    // Workers inherit the armed deadline, so each shard stops at its own
    // next poll once it passes.
    let deadline_at = core.deadline_at;
    // The columnar-tier toggle is thread-local; scoped workers start from
    // its default, so the caller's setting is captured here and re-applied
    // in every shard (a differential run with the tier disabled must stay
    // disabled inside the pool).
    let tier_on = crate::setrepr::atom_tier_enabled();
    let worker = |shard: usize, range: Range<usize>| -> ShardRun {
        // The unwind boundary: everything a shard executes — including the
        // injected `worker_panic` fault — is caught here and converted into
        // a structured `Internal` error. The join below can then never see
        // a poisoned handle.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            if faultpoint::armed(faultpoint::WORKER_PANIC) == Some(shard as u64) {
                panic!("fault injection: worker_panic@shard_{shard}");
            }
            crate::setrepr::set_atom_tier_enabled(tier_on);
            let mut wcore = EvalCore {
                limits: worker_limits,
                stats: EvalStats::default(),
                allocated_leaves: 0,
                locals: frame.clone(),
                frame_base: 0,
                parallel_folds: 0,
                tier_engagements: TierEngagements::default(),
                deadline_at,
                next_poll: POLL_STRIDE,
                last_error_stats: None,
            };
            let wctx = ctx.sequential();
            let outcome = run_shard(
                &mut wcore,
                &wctx,
                chunk,
                r,
                d,
                items.iter_range(range),
                extra_v,
            );
            ShardRun {
                stats: wcore.stats,
                allocated: wcore.allocated_leaves,
                tier_engagements: wcore.tier_engagements,
                outcome,
            }
        }));
        caught.unwrap_or_else(|payload| ShardRun {
            stats: EvalStats::default(),
            allocated: 0,
            tier_engagements: TierEngagements::default(),
            outcome: Err(EvalError::Internal {
                detail: format!(
                    "shard {shard} worker panicked: {}",
                    panic_detail(payload.as_ref())
                ),
            }),
        })
    };
    let runs: Vec<ShardRun> = thread::scope(|scope| {
        let handles: Vec<_> = bounds[1..]
            .iter()
            .enumerate()
            .map(|(i, range)| {
                let range = range.clone();
                scope.spawn(move || worker(i + 1, range))
            })
            .collect();
        let mut runs = Vec::with_capacity(k);
        runs.push(worker(0, bounds[0].clone()));
        for handle in handles {
            runs.push(
                handle
                    .join()
                    .expect("unreachable: worker bodies are unwind-caught"),
            );
        }
        runs
    });
    core.parallel_folds += 1;
    // Post-fold frame hygiene, as in the sequential loops: the lambda
    // parameter slots must not pin the last element's payload.
    core.clear_lambda_slots(r.x_slot);
    merge(core, r, &bounds, runs, base_v)
}

/// Folds one contiguous shard on a worker core, charging exactly what the
/// sequential loop charges for the same elements.
fn run_shard(
    core: &mut EvalCore,
    ctx: &VmCtx<'_>,
    chunk: &Chunk,
    r: &ReduceInsn,
    d: usize,
    shard: impl Iterator<Item = Value>,
    extra_v: &Value,
) -> Result<ShardData, EvalError> {
    let x = r.x_slot;
    // Lambda bodies run two levels below the reduce node, exactly as in
    // `run_reduce`: apply() at d+1, the body at d+2.
    let lb = d + 2;
    match &r.kind {
        ReduceKind::BoolAcc { app, is_or } => {
            let mut first_flip = None;
            for (i, elem) in shard.enumerate() {
                let hit = boolacc_element(core, ctx, chunk, *app, x, elem, extra_v, lb, d)?;
                let flips = if *is_or { hit } else { !hit };
                if flips && first_flip.is_none() {
                    first_flip = Some(i);
                }
            }
            Ok(ShardData::Flip(first_flip))
        }
        ReduceKind::InsertApp { app } => {
            let mut acc = Value::empty_set();
            for elem in shard {
                let applied = insertapp_element(core, ctx, chunk, *app, x, elem, extra_v, lb, d)?;
                acc = core.insert_value(applied, acc)?;
            }
            Ok(ShardData::Set(into_set(acc)))
        }
        ReduceKind::Filter {
            app,
            keep_on_true,
            cond_index,
            value_index,
        } => {
            let mut acc = Value::empty_set();
            for elem in shard {
                let kept = filter_element(
                    core,
                    ctx,
                    chunk,
                    *app,
                    *keep_on_true,
                    *cond_index,
                    *value_index,
                    x,
                    elem,
                    extra_v,
                    lb,
                    d,
                )?;
                if let Some(v) = kept {
                    acc = core.insert_value(v, acc)?;
                }
            }
            Ok(ShardData::Set(into_set(acc)))
        }
        ReduceKind::Generic { app, acc } => {
            // Only spine-proved folds arrive here (see `try_run`): the
            // combiner never inspects its accumulator, so the shard can fold
            // from the empty set, and the sequential loop's per-iteration
            // weight observation (growing along a spine) collapses to the
            // final weight the merge notes.
            let mut accumulator = Value::empty_set();
            for elem in shard {
                accumulator = generic_element(
                    core,
                    ctx,
                    chunk,
                    *app,
                    *acc,
                    x,
                    elem,
                    extra_v,
                    lb,
                    accumulator,
                )?;
            }
            Ok(ShardData::Set(into_set(accumulator)))
        }
        other => unreachable!("try_run only accepts shardable kinds, got {other:?}"),
    }
}

/// Unwraps a set accumulator. Shard accumulators start from the empty set
/// and only ever grow by inserts (or pass through an insert spine), so
/// they stay sets by construction.
fn into_set(v: Value) -> SetRepr {
    match v {
        Value::Set(s) => Arc::try_unwrap(s).unwrap_or_else(|shared| (*shared).clone()),
        other => unreachable!("shard accumulator left the set domain: {other}"),
    }
}

/// Absorbs the shard runs into the caller's core in shard order, re-checking
/// the cumulative budgets, then builds the fold's value and notes its
/// accumulator weight.
fn merge(
    core: &mut EvalCore,
    r: &ReduceInsn,
    bounds: &[Range<usize>],
    runs: Vec<ShardRun>,
    base_v: &Value,
) -> Result<Value, EvalError> {
    if let Some(ms) = faultpoint::armed(faultpoint::MERGE_DELAY) {
        thread::sleep(std::time::Duration::from_millis(ms));
    }
    // A worker panic outranks every sibling outcome: an earlier shard's
    // limit or deadline error must not mask the panic, the root cause.
    if let Some(detail) = runs.iter().find_map(|run| match &run.outcome {
        Err(EvalError::Internal { detail }) => Some(detail.clone()),
        _ => None,
    }) {
        return Err(EvalError::Internal { detail });
    }
    let mut datas: Vec<ShardData> = Vec::with_capacity(runs.len());
    for run in runs {
        // Additive counters first, with the sequential loop's limit checks
        // re-applied against the cumulative totals (batch semantics: the
        // step error wins over the size error within one shard, mirroring
        // `bump_batch`'s documented precedence).
        core.stats.steps += run.stats.steps;
        if core.stats.steps > core.limits.max_steps {
            return Err(EvalError::StepLimitExceeded {
                limit: core.limits.max_steps,
            });
        }
        core.stats.max_depth = core.stats.max_depth.max(run.stats.max_depth);
        core.allocated_leaves = core.allocated_leaves.saturating_add(run.allocated);
        core.stats.max_value_weight = core.stats.max_value_weight.max(core.allocated_leaves);
        if core.allocated_leaves > core.limits.max_value_weight {
            return Err(EvalError::SizeLimitExceeded {
                limit: core.limits.max_value_weight,
            });
        }
        core.stats.reduce_iterations += run.stats.reduce_iterations;
        core.stats.inserts += run.stats.inserts;
        core.stats.new_values += run.stats.new_values;
        core.tier_engagements += run.tier_engagements;
        // Nested folds' accumulator observations are per-element maxima:
        // partition-invariant, absorbed directly.
        core.stats.max_accumulator_weight = core
            .stats
            .max_accumulator_weight
            .max(run.stats.max_accumulator_weight);
        // The earliest shard's error is the fold's error (its partial
        // charges were just absorbed; later shards ran but — like the
        // elements sequential execution never reached — leave no trace).
        datas.push(run.outcome?);
    }

    match &r.kind {
        ReduceKind::BoolAcc { is_or, .. } => {
            // The sequential trajectory notes w0 until the first flip and 1
            // from it on; its maximum is 1 only when the very first element
            // flips (weights are ≥ 1, so w0 dominates otherwise).
            let w0 = weight_capped(base_v, ACCUMULATOR_WEIGHT_CAP);
            let mut first_flip = None;
            for (data, range) in datas.iter().zip(bounds) {
                if let ShardData::Flip(Some(i)) = data {
                    first_flip = Some(range.start + i);
                    break;
                }
            }
            core.note_accumulator_weight(if first_flip == Some(0) { 1 } else { w0 });
            Ok(match (first_flip.is_some(), is_or) {
                (true, true) => Value::Bool(true),
                (true, false) => Value::Bool(false),
                (false, _) => base_v.clone(),
            })
        }
        _ => {
            // Set-building kinds: base ∪ shard₀ ∪ shard₁ ∪ … with the
            // leftmost copy kept on ties — shard order is element order, so
            // this is exactly the sequential first-wins rule. The sequential
            // accumulator only grows, so its final weight is the maximum
            // the sequential loop notes.
            let mut merged: SetRepr = match base_v {
                Value::Set(s) => (**s).clone(),
                other => unreachable!("set-building fold sharded over non-set base {other}"),
            };
            for data in &datas {
                let shard_set = match data {
                    ShardData::Set(s) => s,
                    ShardData::Flip(_) => unreachable!("set fold produced a flip payload"),
                };
                merged.merge_union(shard_set);
            }
            let merged = Value::Set(Arc::new(merged));
            core.note_accumulator_weight(weight_capped(&merged, ACCUMULATOR_WEIGHT_CAP));
            Ok(merged)
        }
    }
}

/// Renders a panic payload for the `Internal` error detail (panics carry a
/// `&str` or `String` in practice; anything else gets a placeholder).
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_bounds_partition_contiguously() {
        for (n, k) in [(10, 4), (4, 4), (5, 2), (7, 3), (100, 7), (2, 2)] {
            let bounds = shard_bounds(n, k);
            assert_eq!(bounds.len(), k);
            assert_eq!(bounds[0].start, 0);
            assert_eq!(bounds[k - 1].end, n);
            for w in bounds.windows(2) {
                assert_eq!(w[0].end, w[1].start, "contiguous at {n}/{k}");
            }
            let (min, max) = bounds
                .iter()
                .map(|r| r.len())
                .fold((usize::MAX, 0), |(lo, hi), l| (lo.min(l), hi.max(l)));
            assert!(max - min <= 1, "balanced at {n}/{k}: {bounds:?}");
        }
    }

    #[test]
    fn novel_weight_counts_only_new_elements() {
        // `merge_union` grows the merged accumulator's cached weight by the
        // weight of the globally novel elements.
        let novel_weight = |acc: &SetRepr, incoming: &SetRepr| {
            let mut merged = acc.clone();
            merged.merge_union(incoming);
            merged.weight_sum() - acc.weight_sum()
        };
        let acc: SetRepr = [Value::atom(1), Value::atom(3)].into_iter().collect();
        let incoming: SetRepr = [
            Value::atom(1),
            Value::atom(2),
            Value::tuple([Value::atom(4), Value::atom(5)]),
        ]
        .into_iter()
        .collect();
        // atom(2) weighs 1; the pair weighs 3 (tuple node + two atoms).
        assert_eq!(novel_weight(&acc, &incoming), 1 + 3);
        assert_eq!(novel_weight(&incoming, &incoming), 0);
        assert_eq!(novel_weight(&SetRepr::new(), &acc), 2);
    }
}
