//! Dense odometer-indexed kernels for complete (or near-complete) factors.
//!
//! The paper's inference workloads run over *complete* relations — one row
//! per point of the schema's domain cross product — where the hash
//! operators pay key extraction and probing for structure the row order
//! already encodes. The kernels here drop the keys entirely:
//!
//! * [`join`] computes the product join as a stride-aligned broadcast
//!   multiply — each output grid index decomposes into the two input
//!   offsets through precomputed strides, advanced incrementally by an
//!   odometer (no division, no hashing, no key allocation per cell);
//! * [`agg`] computes marginalization output-major: each output cell
//!   folds its eliminated-variable subgrid in fixed odometer order, so
//!   the result is bit-identical at any thread count *by construction*
//!   (the same cell always folds the same values in the same order);
//! * [`to_dense`] / [`from_dense`] are the boundary conversions. Absent
//!   cells take the semiring's additive identity, which is what a missing
//!   row denotes under MPF semantics ([`SemiringKind::mul`] annihilates on
//!   the identity), so densification preserves the *function* at any
//!   density. It does not preserve the *support* — a zero-filled grid
//!   materializes identity rows the sparse operators never emit — so the
//!   public operators only run the kernels when the inputs are
//!   support-exact ([`join_support_exact`] / [`agg_support_exact`]) and
//!   the outputs are row-identical to the sparse path, falling back to
//!   the hash operators otherwise.
//!
//! Operators have no catalog, so grids come from
//! [`FunctionalRelation::inferred_domains`] (a pure function of the input
//! data — deterministic across threads); for a variable shared by both
//! join sides the larger inferred domain wins. Every kernel charges the
//! [`crate::ExecBudget`] one `produced` per output cell — identical to
//! the sparse operators on complete inputs — and the conversions charge
//! nothing (the dense factor replaces the sparse operand) but poll
//! cancellation and the deadline. When a grid is infeasible (beyond
//! [`mpf_storage::dense::MAX_DENSE_CELLS`], or the rows do not embed in
//! it), or the inputs are not support-exact, the public operators fall
//! back to the sparse hash implementations, so a planner mis-estimate
//! costs the fast path, never an error.
//!
//! Parallelism splits the *output index range* into contiguous chunks
//! (not hash partitions): workers write disjoint slices of the output
//! array and errors surface in chunk order, so answers, budget trips, and
//! error precedence match the sequential kernel exactly.
//!
//! # Kernel shape
//!
//! Every kernel here is generic over a statically-known semiring
//! ([`mpf_semiring::kernel::SemiringOps`], instantiated for all seven
//! through [`mpf_semiring::for_each_semiring`]), so the inner loops are
//! straight-line per-semiring code with no dispatch branch per cell.
//! The loops are chunked: elementwise loops (join) write whole runs with
//! one budget charge per [`KERNEL_BLOCK`] cells, and marginalization
//! folds contiguous runs through [`mpf_semiring::kernel::LANES`]-wide
//! accumulators with the fixed reduction tree of
//! [`mpf_semiring::kernel::reduce_lanes`]. The fold shape is a pure
//! function of the run length — never of thread count or chunk
//! scheduling — so results are bit-identical at any thread count.
//! Against the one-cell-at-a-time scalar reference kept in this module's
//! tests, join cells are identical bit for bit (elementwise either way);
//! marginalization agrees exactly for the association-insensitive
//! min/max-family semirings and within floating-point tolerance for
//! `SumProduct`/`LogSumProduct`.
//!
//! # Fused join→marginalize
//!
//! [`join_agg`] contracts a product join directly into the
//! marginalization's output grid — the canonical VE elimination step —
//! without materializing the intermediate join factor: each output cell
//! folds `mul(a, b)` over its eliminated subgrid in the exact order the
//! unfused join-then-agg pipeline would, so the fused result is
//! bit-identical to the unfused dense pipeline, while peak memory drops
//! from the union grid to the output grid.

use mpf_semiring::kernel::{fold_run, reduce_lanes, SemiringOps, LANES};
use mpf_semiring::for_each_semiring;
use mpf_storage::dense::{grid_cells, is_odometer_ordered, strides_of};
use mpf_storage::{DenseFactor, FunctionalRelation, Schema, VarId};

use crate::limits::{ExecBudget, OpGuard};
use crate::{ops, AlgebraError, ExecContext, ReprMode, Result};

/// Minimum output cells before the dense kernels fan out to worker
/// threads; below this the spawn cost dominates.
pub const PARALLEL_MIN_CELLS: usize = 1 << 15;

/// Cells per budget charge in the chunked elementwise kernels: large
/// enough that guard traffic vanishes from the profile, small enough
/// that a budget trip still stops an exploding operator within a few
/// thousand cells of its cap.
pub(crate) const KERNEL_BLOCK: usize = 4096;

/// Inputs at least this large switch to the cache-blocked kernel
/// variants when their axis order conflicts with the output's (the
/// implicit-transpose case); below it everything fits in cache anyway.
const TILE_MIN_CELLS: usize = 1 << 16;

/// Tile edge for the blocked join kernel: 64 f64 cells is one 512-byte
/// run, so a 64×64 tile touches 64 such runs of each array — they all
/// stay resident across the tile and every cache line is used 64 times.
const TILE: u64 = 64;

/// Minimum stride along the output's inner axis before blocking pays;
/// short strides stay within a cache line or two per step.
const TILE_MIN_STRIDE: usize = 64;

/// The O(1) grid hint: for a relation whose rows are the odometer
/// sequence of some grid — every dense-kernel product, and everything
/// [`FunctionalRelation::complete`] builds — the *last* row is the grid's
/// maximum point, so `last row + 1` is the domain vector, and the row
/// count must equal the grid size. The hint is plausible, not proven:
/// [`DenseFactor::from_relation`]'s verifying fast path confirms it
/// during densification, and any mismatch (shuffled rows, duplicates, a
/// value beyond the hint) fails the conversion, falling back to the
/// sparse operators. A complete relation in non-odometer row order
/// therefore skips the dense path by design — proving completeness
/// without the order would cost the full O(rows × arity) scan this hint
/// exists to avoid.
fn ordered_grid_hint(rel: &FunctionalRelation) -> Option<Vec<u64>> {
    if rel.is_empty() {
        return None;
    }
    // Grid-certified relations (every dense-kernel product, everything
    // `complete` builds) carry their domain vector outright — and reading
    // the last row below would force them to materialize packed keys.
    if let Some(g) = rel.grid_domains() {
        let domains = g.to_vec();
        return (grid_cells(&domains) == Some(rel.len() as u64)).then_some(domains);
    }
    let last = rel.row(rel.len() - 1);
    let domains: Vec<u64> = last.iter().map(|&v| v as u64 + 1).collect();
    (grid_cells(&domains) == Some(rel.len() as u64)).then_some(domains)
}

/// Whether the sides' grids agree on every shared variable (given their
/// domain vectors) — the remaining condition for a support-exact join.
fn shared_domains_agree(
    l: &FunctionalRelation,
    r: &FunctionalRelation,
    ld: &[u64],
    rd: &[u64],
) -> bool {
    l.schema()
        .iter()
        .enumerate()
        .all(|(p, v)| r.schema().position(v).map_or(true, |q| ld[p] == rd[q]))
}

/// Whether `rel` is complete over its inferred grid: exactly one row per
/// point of the cross product of its per-column value ranges. A complete
/// relation densifies with zero fill cells, so the dense kernels touch
/// only real data. (A full-scan property check; the operators themselves
/// gate on the O(1) odometer hint instead.)
pub fn is_complete_on_inferred(rel: &FunctionalRelation) -> bool {
    grid_cells(&rel.inferred_domains()) == Some(rel.len() as u64)
}

/// Whether the dense join is *support-exact* for these inputs: both sides
/// in dense-kernel form (rows are the odometer sequence of their grid, so
/// the side is complete on it), with the grids agreeing on every shared
/// variable. Under these conditions the sparse join's output support is
/// exactly the union grid, so the dense kernel produces a
/// [`FunctionalRelation::function_eq`]-identical result (same rows, not
/// just the same function modulo explicit identity rows). [`join`]
/// enforces this at runtime — the O(1) hint here, the row order during
/// densification — falling back to the hash join otherwise, so a planner
/// mis-estimate costs the fast path, never correctness.
pub fn join_support_exact(l: &FunctionalRelation, r: &FunctionalRelation) -> bool {
    match (ordered_grid_hint(l), ordered_grid_hint(r)) {
        (Some(ld), Some(rd)) => shared_domains_agree(l, r, &ld, &rd),
        _ => false,
    }
}

/// Whether the dense marginalization is *support-exact* for this input:
/// in dense-kernel form (so every output group grid point has input rows,
/// matching the sparse operator's group set) and non-empty (a zero-ary
/// marginal of an empty input is empty on the sparse path, not a single
/// identity cell).
pub fn agg_support_exact(input: &FunctionalRelation) -> bool {
    ordered_grid_hint(input).is_some()
}

/// Whether [`join`] would take the dense path for these inputs under
/// `mode`. [`ReprMode::Dense`] and [`ReprMode::Auto`] agree at runtime —
/// support-exactness is a hard precondition of the kernels — and differ
/// only in how eagerly the *planner* annotates operators from its
/// estimates.
pub fn dense_join_applies(
    mode: ReprMode,
    l: &FunctionalRelation,
    r: &FunctionalRelation,
) -> bool {
    if !mode.allows_dense() {
        return false;
    }
    let (Some(ld), Some(rd)) = (ordered_grid_hint(l), ordered_grid_hint(r)) else {
        return false;
    };
    if !shared_domains_agree(l, r, &ld, &rd) {
        return false;
    }
    let out_schema = l.schema().union(r.schema());
    grid_cells(&union_domains(l, r, &out_schema, &ld, &rd)).is_some()
}

/// Whether [`agg`] would take the dense path for this input under `mode`.
pub fn dense_agg_applies(mode: ReprMode, input: &FunctionalRelation) -> bool {
    mode.allows_dense() && agg_support_exact(input)
}

/// Densify `rel` onto `domains`, filling absent cells with the semiring's
/// additive identity. Charges no budget cells (the factor replaces the
/// sparse operand rather than augmenting it) but polls cancellation and
/// the deadline; `None` when the grid is infeasible or the rows do not
/// embed in it.
pub fn to_dense(
    cx: &mut ExecContext<'_>,
    rel: &FunctionalRelation,
    domains: &[u64],
) -> Result<Option<DenseFactor>> {
    cx.fault("dense::convert")?;
    cx.checkpoint()?;
    let fill = cx.semiring().zero();
    let df = DenseFactor::from_relation(rel, domains, fill);
    if df.is_some() {
        cx.note_dense_convert();
    }
    Ok(df)
}

/// Materialize a dense factor back into a sparse relation (every grid
/// cell, odometer order — the same row order
/// [`FunctionalRelation::complete`] produces).
pub fn from_dense(cx: &mut ExecContext<'_>, df: DenseFactor) -> Result<FunctionalRelation> {
    cx.fault("dense::convert")?;
    cx.checkpoint()?;
    cx.note_dense_convert();
    Ok(df.into_relation())
}

/// A zero-copy dense operand: an odometer-ordered relation's measure
/// column read in place as its grid's value array. On large factors the
/// conversion *copy* costs as much as the kernel itself, so the kernels
/// borrow their inputs and only the output is ever materialized.
struct DenseInput<'a> {
    strides: Vec<u64>,
    values: &'a [f64],
}

/// Borrow `rel` as a dense factor over `domains` without copying: one
/// verifying scan ([`is_odometer_ordered`]) proves the measure column is
/// the grid's value array (and, with it, completeness, uniqueness, and
/// bounds — the support-exactness precondition). Counts as a dense
/// conversion in the context stats: it is one, just O(1) in space.
/// `None` when the rows are not the grid's odometer sequence; the caller
/// then falls back to the sparse operator.
fn dense_input<'a>(
    cx: &mut ExecContext<'_>,
    rel: &'a FunctionalRelation,
    domains: &[u64],
) -> Result<Option<DenseInput<'a>>> {
    cx.fault("dense::convert")?;
    cx.checkpoint()?;
    if !is_odometer_ordered(rel, domains) {
        return Ok(None);
    }
    cx.note_dense_convert();
    Ok(Some(DenseInput {
        strides: strides_of(domains),
        values: rel.measures(),
    }))
}

/// Dense product join: densify both inputs onto the union grid and
/// broadcast-multiply along precomputed strides. Row-identical to
/// [`ops::product_join`] (verified by `tests/dense_parity.rs`); falls
/// back to it when the inputs are not support-exact or the union grid is
/// infeasible.
pub fn join(
    cx: &mut ExecContext<'_>,
    l: &FunctionalRelation,
    r: &FunctionalRelation,
) -> Result<FunctionalRelation> {
    cx.fault("dense::join")?;
    let (Some(ld), Some(rd)) = (ordered_grid_hint(l), ordered_grid_hint(r)) else {
        return ops::product_join(cx, l, r);
    };
    if !shared_domains_agree(l, r, &ld, &rd) {
        return ops::product_join(cx, l, r);
    }
    match join_impl(cx, l, r, &ld, &rd)? {
        Some(out) => {
            let rel = from_dense(cx, out)?;
            cx.record_join_ex(&[l, r], &rel, crate::trace::OpRepr::Dense);
            cx.note_kernel_op();
            Ok(rel)
        }
        None => ops::product_join(cx, l, r),
    }
}

/// Dense marginalization: each output cell folds its eliminated-variable
/// subgrid in fixed odometer order. Row-identical to [`ops::group_by`];
/// falls back to it when the input is not support-exact or its grid is
/// infeasible.
pub fn agg(
    cx: &mut ExecContext<'_>,
    input: &FunctionalRelation,
    group_vars: &[VarId],
) -> Result<FunctionalRelation> {
    cx.fault("dense::agg")?;
    for &v in group_vars {
        if !input.schema().contains(v) {
            return Err(AlgebraError::GroupVarNotInInput(v));
        }
    }
    let Some(domains) = ordered_grid_hint(input) else {
        return ops::group_by(cx, input, group_vars);
    };
    match agg_impl(cx, input, group_vars, &domains)? {
        Some(out) => {
            let rel = from_dense(cx, out)?;
            cx.record_group_by_ex(&[input], &rel, crate::trace::OpRepr::Dense);
            cx.note_kernel_op();
            Ok(rel)
        }
        None => ops::group_by(cx, input, group_vars),
    }
}

/// Fused dense join→marginalize: contract the product join of `l` and
/// `r` directly into the marginal's output grid, never materializing
/// the intermediate join factor. Each output cell folds
/// `mul(a, b)` over its eliminated subgrid in join-grid odometer order
/// — exactly the order the unfused dense join-then-agg pipeline folds
/// it — so the result is bit-identical to
/// the unfused dense pipeline, while peak memory drops from the union
/// grid to the output grid. Falls back to the fused hash operator
/// ([`ops::join_group_by`], itself row- and bit-identical to hash
/// join→group-by) when the inputs are not support-exact or the union
/// grid is infeasible.
pub fn join_agg(
    cx: &mut ExecContext<'_>,
    l: &FunctionalRelation,
    r: &FunctionalRelation,
    group_vars: &[VarId],
) -> Result<FunctionalRelation> {
    cx.fault("dense::join_agg")?;
    for &v in group_vars {
        if !l.schema().contains(v) && !r.schema().contains(v) {
            return Err(AlgebraError::GroupVarNotInInput(v));
        }
    }
    let (Some(ld), Some(rd)) = (ordered_grid_hint(l), ordered_grid_hint(r)) else {
        return ops::join_group_by(cx, l, r, group_vars);
    };
    if !shared_domains_agree(l, r, &ld, &rd) {
        return ops::join_group_by(cx, l, r, group_vars);
    }
    match join_agg_impl(cx, l, r, group_vars, &ld, &rd)? {
        Some(out) => {
            let rel = from_dense(cx, out)?;
            cx.record_join_agg_ex(&[l, r], &rel, crate::trace::OpRepr::Dense);
            cx.note_kernel_op();
            Ok(rel)
        }
        None => ops::join_group_by(cx, l, r, group_vars),
    }
}

/// [`join_agg`] dispatched through the context's [`ReprMode`]: the
/// fused dense kernel when dense is allowed (it falls back itself when
/// the inputs do not densify), else the fused hash operator. This is the
/// interpreter's entry point for the planner's `JoinAgg` nodes.
pub fn join_agg_auto(
    cx: &mut ExecContext<'_>,
    l: &FunctionalRelation,
    r: &FunctionalRelation,
    group_vars: &[VarId],
) -> Result<FunctionalRelation> {
    if cx.repr_mode().allows_dense() {
        join_agg(cx, l, r, group_vars)
    } else {
        ops::join_group_by(cx, l, r, group_vars)
    }
}

/// Per-variable odometer step for the fused kernel: the variable's
/// domain (in the join grid) and its stride in each input (0 when the
/// input lacks it — the broadcast, exactly as in [`JoinDim`]).
struct FusedDim {
    dom: u64,
    sa: usize,
    sb: usize,
}

fn join_agg_impl(
    cx: &mut ExecContext<'_>,
    l: &FunctionalRelation,
    r: &FunctionalRelation,
    group_vars: &[VarId],
    ld: &[u64],
    rd: &[u64],
) -> Result<Option<DenseFactor>> {
    let join_schema = l.schema().union(r.schema());
    let join_domains = union_domains(l, r, &join_schema, ld, rd);
    let Some(join_cells_total) = grid_cells(&join_domains) else {
        return Ok(None);
    };
    let side_domains = |s: &Schema| -> Vec<u64> {
        s.iter()
            .map(|v| join_domains[join_schema.position(v).expect("var in union")])
            .collect()
    };
    let Some(a) = dense_input(cx, l, &side_domains(l.schema()))? else {
        return Ok(None);
    };
    let Some(b) = dense_input(cx, r, &side_domains(r.schema()))? else {
        return Ok(None);
    };

    let out_schema = Schema::new(group_vars.to_vec())?;
    let out_domains: Vec<u64> = group_vars
        .iter()
        .map(|&v| join_domains[join_schema.position(v).expect("validated")])
        .collect();
    let name = format!("γ({}⨝*{})", l.name(), r.name());
    let Some(mut out) = DenseFactor::filled(name, out_schema.clone(), out_domains, 0.0) else {
        return Ok(None);
    };
    let stride_in = |v: VarId, s: &Schema, strides: &[u64]| -> usize {
        s.position(v).ok().map_or(0, |p| strides[p] as usize)
    };
    // Group axes in output-schema order; eliminated axes in join-schema
    // order — the intermediate factor's fold order, which keeps the
    // fused result bit-identical to the unfused dense pipeline.
    let gdims: Vec<FusedDim> = group_vars
        .iter()
        .enumerate()
        .map(|(j, &v)| FusedDim {
            dom: out.domains()[j],
            sa: stride_in(v, l.schema(), &a.strides),
            sb: stride_in(v, r.schema(), &b.strides),
        })
        .collect();
    let edims: Vec<FusedDim> = join_schema
        .iter()
        .enumerate()
        .filter(|(_, v)| !group_vars.contains(v))
        .map(|(p, v)| FusedDim {
            dom: join_domains[p],
            sa: stride_in(v, l.schema(), &a.strides),
            sb: stride_in(v, r.schema(), &b.strides),
        })
        .collect();
    let out_strides = out.strides().to_vec();

    let sr = cx.semiring();
    let arity = out_schema.arity();
    let threads = cx.threads();
    let budget = cx.budget();
    let total = out.len();
    // The lane-fold gate must mirror the unfused agg's (`selast == 1` on
    // the intermediate grid): the innermost eliminated run is contiguous
    // there exactly when the join grid's innermost axis is eliminated.
    let lane_ok = join_schema
        .iter()
        .last()
        .is_some_and(|v| !group_vars.contains(&v));
    let workers = if join_cells_total >= PARALLEL_MIN_CELLS as u64 && total > 1 {
        threads.max(1)
    } else {
        1
    };
    if workers <= 1 {
        for_each_semiring!(sr, join_agg_cells(
            a.values, b.values, &gdims, &out_strides, &edims, 0, out.values_mut(),
            budget, arity, lane_ok,
        ))?;
    } else {
        // Chunk along output axis 0, as the unfused kernels do: each
        // worker owns a contiguous output slice and every cell's fold
        // runs entirely in one worker, so results are thread-invariant.
        let stride0 = out_strides[0] as usize;
        let workers = workers.min(gdims[0].dom as usize).max(1);
        let chunk_rows = gdims[0].dom.div_ceil(workers as u64);
        let chunk = chunk_rows as usize * stride0;
        let results: Vec<Result<()>> = std::thread::scope(|scope| {
            let handles: Vec<_> = out
                .values_mut()
                .chunks_mut(chunk)
                .enumerate()
                .map(|(i, slice)| {
                    let (gdims, edims, out_strides) = (&gdims, &edims, &out_strides);
                    let (av, bv) = (a.values, b.values);
                    scope.spawn(move || {
                        for_each_semiring!(sr, join_agg_cells(
                            av, bv, gdims, out_strides, edims, i * chunk, slice, budget,
                            arity, lane_ok,
                        ))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err(AlgebraError::Internal("dense join-agg worker panicked".into()))
                    })
                })
                .collect()
        });
        for r in results {
            r?;
        }
        if let Some(b) = budget {
            b.check_rows(total as u64)?;
            b.checkpoint()?;
        }
    }
    Ok(Some(out))
}

/// Fused contraction kernel over one contiguous output-cell range: the
/// [`agg_cells`] fold with the intermediate's value computed on the fly
/// as `mul(a, b)` through two strided odometers. `lane_ok` marks the
/// layouts whose unfused counterpart would lane-fold (contiguous
/// innermost eliminated runs); [`fold_products`] then reproduces
/// [`fold_run`]'s exact shape over the same value sequence, keeping
/// fused and unfused results bit-identical.
#[allow(clippy::too_many_arguments)]
fn join_agg_cells<S: SemiringOps>(
    av: &[f64],
    bv: &[f64],
    gdims: &[FusedDim],
    out_strides: &[u64],
    edims: &[FusedDim],
    start: usize,
    out: &mut [f64],
    budget: Option<&ExecBudget>,
    arity: usize,
    lane_ok: bool,
) -> Result<()> {
    let mut guard = OpGuard::new(budget, arity);
    let k = gdims.len();
    let mut coords = vec![0u64; k];
    let (mut abase, mut bbase) = (0usize, 0usize);
    let mut rem = start as u64;
    for j in 0..k {
        let c = rem / out_strides[j];
        rem %= out_strides[j];
        coords[j] = c;
        abase += c as usize * gdims[j].sa;
        bbase += c as usize * gdims[j].sb;
    }
    let ecells: u64 = edims.iter().map(|d| d.dom).product();
    let ek = edims.len();
    let (delast, sal, sbl) = if ek == 0 {
        (1u64, 0usize, 0usize)
    } else {
        (edims[ek - 1].dom, edims[ek - 1].sa, edims[ek - 1].sb)
    };
    let eruns = ecells.checked_div(delast).unwrap_or(0);
    let mut ecoords = vec![0u64; ek.saturating_sub(1)];
    let lane = lane_ok && ek > 0;
    for slot in out.iter_mut() {
        guard.poll()?;
        let mut acc = if lane {
            fold_products::<S>(av, abase, sal, bv, bbase, sbl, delast as usize)
        } else {
            let mut acc = S::mul(av[abase], bv[bbase]);
            for j in 1..delast as usize {
                acc = S::add(acc, S::mul(av[abase + j * sal], bv[bbase + j * sbl]));
            }
            acc
        };
        let (mut ea, mut eb) = (0usize, 0usize);
        for _ in 1..eruns {
            for j in (0..ek - 1).rev() {
                ecoords[j] += 1;
                ea += edims[j].sa;
                eb += edims[j].sb;
                if ecoords[j] < edims[j].dom {
                    break;
                }
                ecoords[j] = 0;
                ea -= edims[j].sa * edims[j].dom as usize;
                eb -= edims[j].sb * edims[j].dom as usize;
            }
            let (ra, rb) = (abase + ea, bbase + eb);
            if lane {
                acc = S::add(acc, fold_products::<S>(av, ra, sal, bv, rb, sbl, delast as usize));
            } else {
                for j in 0..delast as usize {
                    acc = S::add(acc, S::mul(av[ra + j * sal], bv[rb + j * sbl]));
                }
            }
        }
        for e in ecoords.iter_mut() {
            *e = 0;
        }
        if !S::KIND.is_valid_accumulation(acc) {
            return Err(AlgebraError::NonFiniteMeasure {
                op: "dense::join_agg",
                value: acc,
            });
        }
        *slot = acc;
        guard.produced()?;
        for j in (0..k).rev() {
            coords[j] += 1;
            abase += gdims[j].sa;
            bbase += gdims[j].sb;
            if coords[j] < gdims[j].dom {
                break;
            }
            coords[j] = 0;
            abase -= gdims[j].sa * gdims[j].dom as usize;
            bbase -= gdims[j].sb * gdims[j].dom as usize;
        }
    }
    guard.finish()?;
    Ok(())
}

/// The union grid: for each output variable, the larger of the two
/// sides' inferred domains (a variable on one side only takes that
/// side's). `ld`/`rd` are the sides' precomputed inferred domains.
fn union_domains(
    l: &FunctionalRelation,
    r: &FunctionalRelation,
    out_schema: &Schema,
    ld: &[u64],
    rd: &[u64],
) -> Vec<u64> {
    out_schema
        .iter()
        .map(|v| {
            let from_l = l.schema().position(v).ok().map_or(0, |p| ld[p]);
            let from_r = r.schema().position(v).ok().map_or(0, |p| rd[p]);
            from_l.max(from_r)
        })
        .collect()
}

/// Per-output-variable odometer step for the join kernel: the variable's
/// domain and its stride in each input (0 when the input lacks it, so the
/// input offset simply never moves along that axis — the broadcast).
struct JoinDim {
    dom: u64,
    sa: usize,
    sb: usize,
}

/// Elementwise product of one contiguous output run, specialized per
/// input-stride pattern so the common broadcast shapes ((1,1), (1,0),
/// (0,1)) compile to vector loops. Every branch computes the same
/// values in the same cells — the specialization is for the compiler,
/// not the semantics.
#[inline(always)]
fn write_products<S: SemiringOps>(
    av: &[f64],
    ai: usize,
    sal: usize,
    bv: &[f64],
    bi: usize,
    sbl: usize,
    out: &mut [f64],
) {
    match (sal, sbl) {
        (1, 1) => {
            let (xs, ys) = (&av[ai..ai + out.len()], &bv[bi..bi + out.len()]);
            for (t, slot) in out.iter_mut().enumerate() {
                *slot = S::mul(xs[t], ys[t]);
            }
        }
        (1, 0) => {
            let (xs, y) = (&av[ai..ai + out.len()], bv[bi]);
            for (t, slot) in out.iter_mut().enumerate() {
                *slot = S::mul(xs[t], y);
            }
        }
        (0, 1) => {
            let (x, ys) = (av[ai], &bv[bi..bi + out.len()]);
            for (t, slot) in out.iter_mut().enumerate() {
                *slot = S::mul(x, ys[t]);
            }
        }
        _ => {
            for (t, slot) in out.iter_mut().enumerate() {
                *slot = S::mul(av[ai + t * sal], bv[bi + t * sbl]);
            }
        }
    }
}

/// Chunked fold of `add(mul(a, b))` over one eliminated run of length
/// `n`: [`LANES`] independent accumulators seeded with the additive
/// identity, combined by the fixed [`reduce_lanes`] tree, remainder
/// folded last — the same shape (and therefore the same bits) as
/// [`fold_run`] over the materialized products, which is what the
/// unfused chunked pipeline computes. The shape depends only on `n`.
#[inline(always)]
fn fold_products<S: SemiringOps>(
    av: &[f64],
    ai: usize,
    sal: usize,
    bv: &[f64],
    bi: usize,
    sbl: usize,
    n: usize,
) -> f64 {
    #[inline(always)]
    fn go<S: SemiringOps>(n: usize, f: impl Fn(usize) -> f64) -> f64 {
        let mut lanes = [S::ZERO; LANES];
        let mut t = 0usize;
        while t + LANES <= n {
            for (q, lane) in lanes.iter_mut().enumerate() {
                *lane = S::add(*lane, f(t + q));
            }
            t += LANES;
        }
        let mut acc = reduce_lanes::<S>(lanes);
        while t < n {
            acc = S::add(acc, f(t));
            t += 1;
        }
        acc
    }
    match (sal, sbl) {
        (1, 1) => {
            let (xs, ys) = (&av[ai..ai + n], &bv[bi..bi + n]);
            go::<S>(n, |t| S::mul(xs[t], ys[t]))
        }
        (1, 0) => {
            let (xs, y) = (&av[ai..ai + n], bv[bi]);
            go::<S>(n, |t| S::mul(xs[t], y))
        }
        (0, 1) => {
            let (x, ys) = (av[ai], &bv[bi..bi + n]);
            go::<S>(n, |t| S::mul(x, ys[t]))
        }
        _ => go::<S>(n, |t| S::mul(av[ai + t * sal], bv[bi + t * sbl])),
    }
}

fn join_impl(
    cx: &mut ExecContext<'_>,
    l: &FunctionalRelation,
    r: &FunctionalRelation,
    ld: &[u64],
    rd: &[u64],
) -> Result<Option<DenseFactor>> {
    let out_schema = l.schema().union(r.schema());
    let out_domains = union_domains(l, r, &out_schema, ld, rd);
    if grid_cells(&out_domains).is_none() {
        return Ok(None);
    }
    // Each side densifies onto the union grid's domains restricted to its
    // own schema, so shared variables index consistently on both sides.
    let side_domains = |s: &Schema| -> Vec<u64> {
        s.iter()
            .map(|v| out_domains[out_schema.position(v).expect("var in union")])
            .collect()
    };
    let Some(a) = dense_input(cx, l, &side_domains(l.schema()))? else {
        return Ok(None);
    };
    let Some(b) = dense_input(cx, r, &side_domains(r.schema()))? else {
        return Ok(None);
    };

    let name = format!("({}⨝*{})", l.name(), r.name());
    let Some(mut out) = DenseFactor::filled(name, out_schema.clone(), out_domains, 0.0) else {
        return Ok(None);
    };
    let dims: Vec<JoinDim> = out_schema
        .iter()
        .enumerate()
        .map(|(j, v)| JoinDim {
            dom: out.domains()[j],
            sa: l.schema().position(v).ok().map_or(0, |p| a.strides[p] as usize),
            sb: r.schema().position(v).ok().map_or(0, |p| b.strides[p] as usize),
        })
        .collect();
    let out_strides = out.strides().to_vec();

    let sr = cx.semiring();
    let arity = out_schema.arity();
    let threads = cx.threads();
    let budget = cx.budget();
    let total = out.len();
    let tiled = tile_axes(&dims, a.values.len(), b.values.len());
    let workers = if total >= PARALLEL_MIN_CELLS { threads.max(1) } else { 1 };
    if workers <= 1 {
        match tiled {
            Some((x, y)) => for_each_semiring!(sr, join_cells_tiled(
                a.values, b.values, &dims, &out_strides, x, y,
                0, dims[0].dom, out.values_mut(), budget, arity,
            ))?,
            None => for_each_semiring!(sr, join_cells(
                a.values, b.values, &dims, &out_strides, 0,
                out.values_mut(), budget, arity,
            ))?,
        }
    } else if let Some((x, y)) = tiled {
        // Blocked kernel: chunk along the output's first axis, so each
        // worker's box is still one contiguous output slice.
        let stride0 = out_strides[0] as usize;
        let workers = workers.min(dims[0].dom as usize).max(1);
        let chunk_rows = dims[0].dom.div_ceil(workers as u64);
        let chunk = chunk_rows as usize * stride0;
        let results: Vec<Result<()>> = std::thread::scope(|scope| {
            let handles: Vec<_> = out
                .values_mut()
                .chunks_mut(chunk)
                .enumerate()
                .map(|(i, slice)| {
                    let (dims, out_strides) = (&dims, &out_strides);
                    let (av, bv) = (a.values, b.values);
                    let lo0 = i as u64 * chunk_rows;
                    let hi0 = (lo0 + chunk_rows).min(dims[0].dom);
                    scope.spawn(move || {
                        for_each_semiring!(sr, join_cells_tiled(
                            av, bv, dims, out_strides, x, y, lo0, hi0, slice, budget, arity,
                        ))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err(AlgebraError::Internal("dense join worker panicked".into()))
                    })
                })
                .collect()
        });
        for r in results {
            r?;
        }
        if let Some(b) = budget {
            b.check_rows(total as u64)?;
            b.checkpoint()?;
        }
    } else {
        let chunk = total.div_ceil(workers);
        let results: Vec<Result<()>> = std::thread::scope(|scope| {
            let handles: Vec<_> = out
                .values_mut()
                .chunks_mut(chunk)
                .enumerate()
                .map(|(i, slice)| {
                    let (dims, out_strides) = (&dims, &out_strides);
                    let (av, bv) = (a.values, b.values);
                    scope.spawn(move || {
                        for_each_semiring!(sr, join_cells(
                            av, bv, dims, out_strides, i * chunk, slice, budget, arity,
                        ))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err(AlgebraError::Internal("dense join worker panicked".into()))
                    })
                })
                .collect()
        });
        // Chunk order: deterministic error precedence, like the
        // partitioned operators merge in partition order.
        for r in results {
            r?;
        }
        if let Some(b) = budget {
            b.check_rows(total as u64)?;
            b.checkpoint()?;
        }
    }
    Ok(Some(out))
}

/// Detect the implicit-transpose case: a large input whose own innermost
/// axis (`y`, input stride 1) differs from the output's innermost axis
/// (`x`), with a long input stride along `x`. The flat odometer kernel
/// would then take that stride once per cell — with power-of-two grids a
/// cache-set-aliasing, TLB-thrashing worst case — so [`join_cells_tiled`]
/// iterates `x`×`y` tiles instead. `None` means flat iteration is already
/// cache-friendly.
fn tile_axes(dims: &[JoinDim], a_len: usize, b_len: usize) -> Option<(usize, usize)> {
    let k = dims.len();
    if k < 2 {
        return None;
    }
    let x = k - 1;
    let conflicted = |len: usize, stride_at_x: usize, inner: Option<usize>| -> Option<usize> {
        let y = inner?;
        (len >= TILE_MIN_CELLS && y != x && stride_at_x >= TILE_MIN_STRIDE).then_some(y)
    };
    let ya = conflicted(a_len, dims[x].sa, (0..k).find(|&j| dims[j].sa == 1));
    let yb = conflicted(b_len, dims[x].sb, (0..k).find(|&j| dims[j].sb == 1));
    match (ya, yb) {
        (Some(y), None) => Some((x, y)),
        (None, Some(y)) => Some((x, y)),
        // Both sides conflict: block for the larger one.
        (Some(y1), Some(y2)) => Some((x, if a_len >= b_len { y1 } else { y2 })),
        (None, None) => None,
    }
}

/// Cache-blocked join kernel over the box where output axis 0 ranges in
/// `[lo0, hi0)` (the worker's contiguous output slice). Axes `x` and `y`
/// are iterated in [`TILE`]×[`TILE`] tiles; the remaining axes run as an
/// outer odometer. Every cell computes the same value as the flat kernel
/// — only the visit order changes, which the budget (a count) and the
/// output (one write per cell) cannot observe. Each tile row is written
/// as one run ([`write_products`]) with a single budget charge.
#[allow(clippy::too_many_arguments)]
fn join_cells_tiled<S: SemiringOps>(
    av: &[f64],
    bv: &[f64],
    dims: &[JoinDim],
    out_strides: &[u64],
    x: usize,
    y: usize,
    lo0: u64,
    hi0: u64,
    out: &mut [f64],
    budget: Option<&ExecBudget>,
    arity: usize,
) -> Result<()> {
    let mut guard = OpGuard::new(budget, arity);
    let k = dims.len();
    let box_base = lo0 as usize * out_strides[0] as usize;
    let macro_axes: Vec<usize> = (0..k).filter(|&j| j != x && j != y).collect();
    let mut mcoords: Vec<u64> = macro_axes
        .iter()
        .map(|&j| if j == 0 { lo0 } else { 0 })
        .collect();
    let (ylo, yhi) = if y == 0 { (lo0, hi0) } else { (0, dims[y].dom) };
    let (xlo, xhi) = if x == 0 { (lo0, hi0) } else { (0, dims[x].dom) };
    let (sax, sbx, sox) = (dims[x].sa, dims[x].sb, out_strides[x] as usize);
    let (say, sby, soy) = (dims[y].sa, dims[y].sb, out_strides[y] as usize);
    loop {
        let mut ma = 0usize;
        let mut mb = 0usize;
        let mut mo = 0usize;
        for (i, &j) in macro_axes.iter().enumerate() {
            ma += mcoords[i] as usize * dims[j].sa;
            mb += mcoords[i] as usize * dims[j].sb;
            mo += mcoords[i] as usize * out_strides[j] as usize;
        }
        let mut y0 = ylo;
        while y0 < yhi {
            let yend = (y0 + TILE).min(yhi);
            let mut x0 = xlo;
            while x0 < xhi {
                let xend = (x0 + TILE).min(xhi);
                for yl in y0..yend {
                    let ra = ma + yl as usize * say + x0 as usize * sax;
                    let rb = mb + yl as usize * sby + x0 as usize * sbx;
                    let ro = mo + yl as usize * soy + x0 as usize * sox - box_base;
                    let n = (xend - x0) as usize;
                    guard.poll()?;
                    if sox == 1 {
                        write_products::<S>(av, ra, sax, bv, rb, sbx, &mut out[ro..ro + n]);
                    } else {
                        for xi in 0..n {
                            out[ro + xi * sox] = S::mul(av[ra + xi * sax], bv[rb + xi * sbx]);
                        }
                    }
                    guard.produced_many(n as u64)?;
                }
                x0 = xend;
            }
            y0 = yend;
        }
        // Advance the macro odometer (axis 0 wraps at the box bound).
        let mut done = true;
        for i in (0..macro_axes.len()).rev() {
            let j = macro_axes[i];
            let (lo, hi) = if j == 0 { (lo0, hi0) } else { (0, dims[j].dom) };
            mcoords[i] += 1;
            if mcoords[i] < hi {
                done = false;
                break;
            }
            mcoords[i] = lo;
        }
        if done {
            break;
        }
    }
    guard.finish()?;
    Ok(())
}

/// Join kernel over one contiguous output-cell range: an incremental
/// odometer advances both input offsets per cell (no division in the
/// loop); `start` seeds the coordinates for chunked parallel runs.
/// Each innermost run is written in [`KERNEL_BLOCK`]-cell blocks through
/// [`write_products`]; the cell values are identical to a one-cell-at-a-
/// time loop (the join is elementwise — there is nothing to
/// reassociate).
#[allow(clippy::too_many_arguments)]
fn join_cells<S: SemiringOps>(
    av: &[f64],
    bv: &[f64],
    dims: &[JoinDim],
    out_strides: &[u64],
    start: usize,
    out: &mut [f64],
    budget: Option<&ExecBudget>,
    arity: usize,
) -> Result<()> {
    let mut guard = OpGuard::new(budget, arity);
    let k = dims.len();
    let mut coords = vec![0u64; k];
    let (mut ai, mut bi) = (0usize, 0usize);
    let mut rem = start as u64;
    for j in 0..k {
        let c = rem / out_strides[j];
        rem %= out_strides[j];
        coords[j] = c;
        ai += c as usize * dims[j].sa;
        bi += c as usize * dims[j].sb;
    }
    if k == 0 {
        for slot in out.iter_mut() {
            guard.poll()?;
            *slot = S::mul(av[0], bv[0]);
            guard.produced()?;
        }
        guard.finish()?;
        return Ok(());
    }
    // The innermost axis is hoisted into a tight run (a chunk may start
    // mid-run); the odometer only advances on run boundaries.
    let (dlast, sal, sbl) = (dims[k - 1].dom, dims[k - 1].sa, dims[k - 1].sb);
    let mut idx = 0usize;
    while idx < out.len() {
        let run = ((dlast - coords[k - 1]) as usize).min(out.len() - idx);
        let mut done = 0usize;
        while done < run {
            let n = (run - done).min(KERNEL_BLOCK);
            guard.poll()?;
            write_products::<S>(
                av,
                ai,
                sal,
                bv,
                bi,
                sbl,
                &mut out[idx + done..idx + done + n],
            );
            ai += sal * n;
            bi += sbl * n;
            guard.produced_many(n as u64)?;
            done += n;
        }
        idx += run;
        coords[k - 1] += run as u64;
        if coords[k - 1] == dlast {
            coords[k - 1] = 0;
            ai -= sal * dlast as usize;
            bi -= sbl * dlast as usize;
            for j in (0..k - 1).rev() {
                coords[j] += 1;
                ai += dims[j].sa;
                bi += dims[j].sb;
                if coords[j] < dims[j].dom {
                    break;
                }
                coords[j] = 0;
                ai -= dims[j].sa * dims[j].dom as usize;
                bi -= dims[j].sb * dims[j].dom as usize;
            }
        }
    }
    guard.finish()?;
    Ok(())
}

fn agg_impl(
    cx: &mut ExecContext<'_>,
    input: &FunctionalRelation,
    group_vars: &[VarId],
    in_domains: &[u64],
) -> Result<Option<DenseFactor>> {
    if grid_cells(in_domains).is_none() {
        return Ok(None);
    }
    let Some(a) = dense_input(cx, input, in_domains)? else {
        return Ok(None);
    };
    let out_schema = Schema::new(group_vars.to_vec())?;
    let out_domains: Vec<u64> = group_vars
        .iter()
        .map(|&v| in_domains[input.schema().position(v).expect("validated")])
        .collect();
    let name = format!("γ({})", input.name());
    let Some(mut out) = DenseFactor::filled(name, out_schema.clone(), out_domains, 0.0) else {
        return Ok(None);
    };
    // Output axes: domain + input stride per group variable (output
    // schema order). Eliminated axes: domain + input stride for every
    // input variable not grouped on, in input schema order — the fixed
    // fold order that makes the result thread-count-invariant.
    let gdims: Vec<(u64, usize)> = group_vars
        .iter()
        .enumerate()
        .map(|(j, &v)| {
            let p = input.schema().position(v).expect("validated");
            (out.domains()[j], a.strides[p] as usize)
        })
        .collect();
    let edims: Vec<(u64, usize)> = input
        .schema()
        .iter()
        .enumerate()
        .filter(|(_, v)| !group_vars.contains(v))
        .map(|(p, _)| (in_domains[p], a.strides[p] as usize))
        .collect();
    let out_strides = out.strides().to_vec();

    let sr = cx.semiring();
    let arity = out_schema.arity();
    let threads = cx.threads();
    let budget = cx.budget();
    let total = out.len();
    let in_cells = a.values.len();
    // When the input's stride-1 axis is a *group* axis, the per-cell fold
    // would take the eliminated axes' long strides once per input cell;
    // accumulate input-major instead (identical add order per output
    // cell, sequential access on both arrays).
    let input_major = in_cells >= TILE_MIN_CELLS
        && input
            .schema()
            .iter()
            .last()
            .is_some_and(|v| group_vars.contains(&v));
    let workers = if in_cells >= PARALLEL_MIN_CELLS && total > 1 { threads.max(1) } else { 1 };
    if workers <= 1 {
        if input_major {
            for_each_semiring!(sr, agg_cells_input_major(
                a.values, &gdims, &edims, 0, gdims[0].0, out.values_mut(), budget, arity,
            ))?;
        } else {
            for_each_semiring!(sr, agg_cells(
                a.values, &gdims, &out_strides, &edims, 0, out.values_mut(), budget, arity,
            ))?;
        }
    } else if input_major {
        // Chunk along output axis 0: each worker accumulates its own
        // contiguous output box from the disjoint input columns that map
        // to it.
        let stride0 = out_strides[0] as usize;
        let workers = workers.min(gdims[0].0 as usize).max(1);
        let chunk_rows = gdims[0].0.div_ceil(workers as u64);
        let chunk = chunk_rows as usize * stride0;
        let results: Vec<Result<()>> = std::thread::scope(|scope| {
            let handles: Vec<_> = out
                .values_mut()
                .chunks_mut(chunk)
                .enumerate()
                .map(|(i, slice)| {
                    let (gdims, edims) = (&gdims, &edims);
                    let av = a.values;
                    let lo0 = i as u64 * chunk_rows;
                    let hi0 = (lo0 + chunk_rows).min(gdims[0].0);
                    scope.spawn(move || {
                        for_each_semiring!(sr, agg_cells_input_major(
                            av, gdims, edims, lo0, hi0, slice, budget, arity,
                        ))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err(AlgebraError::Internal("dense agg worker panicked".into()))
                    })
                })
                .collect()
        });
        for r in results {
            r?;
        }
        if let Some(b) = budget {
            b.check_rows(total as u64)?;
            b.checkpoint()?;
        }
    } else {
        let chunk = total.div_ceil(workers);
        let results: Vec<Result<()>> = std::thread::scope(|scope| {
            let handles: Vec<_> = out
                .values_mut()
                .chunks_mut(chunk)
                .enumerate()
                .map(|(i, slice)| {
                    let (gdims, edims, out_strides) = (&gdims, &edims, &out_strides);
                    let av = a.values;
                    scope.spawn(move || {
                        for_each_semiring!(sr, agg_cells(
                            av, gdims, out_strides, edims, i * chunk, slice, budget, arity,
                        ))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err(AlgebraError::Internal("dense agg worker panicked".into()))
                    })
                })
                .collect()
        });
        for r in results {
            r?;
        }
        if let Some(b) = budget {
            b.check_rows(total as u64)?;
            b.checkpoint()?;
        }
    }
    Ok(Some(out))
}

/// Input-major aggregation kernel over the box where output axis 0
/// ranges in `[lo0, hi0)`: one pass over the group grid per eliminated
/// combination, in ascending eliminated-odometer order. Every output
/// cell therefore receives exactly the values a sequential per-cell fold
/// would give it, in the same order (the passes are elementwise, so the
/// run chunking changes the loop structure, never the per-cell add
/// order) — but both arrays are walked along the input's short strides.
/// Validation and budget charges happen once per output cell at the
/// end, like the per-cell kernel's.
#[allow(clippy::too_many_arguments)]
fn agg_cells_input_major<S: SemiringOps>(
    av: &[f64],
    gdims: &[(u64, usize)],
    edims: &[(u64, usize)],
    lo0: u64,
    hi0: u64,
    out: &mut [f64],
    budget: Option<&ExecBudget>,
    arity: usize,
) -> Result<()> {
    let mut guard = OpGuard::new(budget, arity);
    let k = gdims.len();
    let ecells: u64 = edims.iter().map(|d| d.0).product();
    let mut ecoords = vec![0u64; edims.len()];
    let mut eoff = 0usize;
    let mut gcoords: Vec<u64> = (0..k).map(|j| if j == 0 { lo0 } else { 0 }).collect();
    let mut goff = lo0 as usize * gdims[0].1;
    let (lo_last, hi_last) = if k == 1 { (lo0, hi0) } else { (0, gdims[k - 1].0) };
    let glast = gdims[k - 1].1;
    for pass in 0..ecells {
        if pass > 0 {
            for j in (0..edims.len()).rev() {
                ecoords[j] += 1;
                eoff += edims[j].1;
                if ecoords[j] < edims[j].0 {
                    break;
                }
                ecoords[j] = 0;
                eoff -= edims[j].1 * edims[j].0 as usize;
            }
        }
        // The group odometer walks the box in output order (so `out` is
        // written sequentially) and wraps back to the box origin, one run
        // along the innermost group axis at a time: contiguous in the
        // output, stride `glast` in the input (1 in the motivating
        // grouped-on-stride-1-axis case, where both sides vectorize).
        let mut s = 0usize;
        while s < out.len() {
            let run = ((hi_last - gcoords[k - 1]) as usize).min(out.len() - s);
            guard.poll()?;
            let src = eoff + goff;
            let dst = &mut out[s..s + run];
            if glast == 1 {
                let xs = &av[src..src + run];
                if pass == 0 {
                    dst.copy_from_slice(xs);
                } else {
                    for (t, slot) in dst.iter_mut().enumerate() {
                        *slot = S::add(*slot, xs[t]);
                    }
                }
            } else if pass == 0 {
                for (t, slot) in dst.iter_mut().enumerate() {
                    *slot = av[src + t * glast];
                }
            } else {
                for (t, slot) in dst.iter_mut().enumerate() {
                    *slot = S::add(*slot, av[src + t * glast]);
                }
            }
            s += run;
            gcoords[k - 1] += run as u64;
            goff += glast * run;
            if gcoords[k - 1] == hi_last {
                gcoords[k - 1] = lo_last;
                goff -= glast * (hi_last - lo_last) as usize;
                for j in (0..k - 1).rev() {
                    gcoords[j] += 1;
                    goff += gdims[j].1;
                    let (lo, hi) = if j == 0 { (lo0, hi0) } else { (0, gdims[j].0) };
                    if gcoords[j] < hi {
                        break;
                    }
                    gcoords[j] = lo;
                    goff -= gdims[j].1 * (hi - lo) as usize;
                }
            }
        }
    }
    for slot in out.iter() {
        if !S::KIND.is_valid_accumulation(*slot) {
            return Err(AlgebraError::NonFiniteMeasure {
                op: "dense::agg",
                value: *slot,
            });
        }
        guard.produced()?;
    }
    guard.finish()?;
    Ok(())
}

/// Aggregation kernel over one contiguous output-cell range. Each cell
/// folds its eliminated subgrid in input-schema odometer order. A
/// contiguous innermost run (eliminated stride 1) folds through
/// [`fold_run`]'s lane accumulators — an association whose shape is a
/// pure function of the run length, so results stay bit-identical at any
/// thread count (and exactly equal to the sequential scalar fold for the
/// min/max-family semirings); strided runs fold left to right, the order
/// the rows of that group appear in a complete relation. The
/// accumulator is validated once per cell: an invalid intermediate
/// (overflow to ∞, or ∞ − ∞ = NaN) can only end in an invalid final
/// value in these semirings, so the per-cell check catches everything
/// the sparse per-accumulation check does.
#[allow(clippy::too_many_arguments)]
fn agg_cells<S: SemiringOps>(
    av: &[f64],
    gdims: &[(u64, usize)],
    out_strides: &[u64],
    edims: &[(u64, usize)],
    start: usize,
    out: &mut [f64],
    budget: Option<&ExecBudget>,
    arity: usize,
) -> Result<()> {
    let mut guard = OpGuard::new(budget, arity);
    let k = gdims.len();
    let mut coords = vec![0u64; k];
    let mut base = 0usize;
    let mut rem = start as u64;
    for j in 0..k {
        let c = rem / out_strides[j];
        rem %= out_strides[j];
        coords[j] = c;
        base += c as usize * gdims[j].1;
    }
    let ecells: u64 = edims.iter().map(|d| d.0).product();
    // The innermost eliminated axis folds as a tight run; the outer
    // eliminated odometer advances once per run. Same accumulation
    // sequence as a flat per-cell odometer, just without its bookkeeping.
    let ek = edims.len();
    let (delast, selast) = if ek == 0 { (1u64, 0usize) } else { edims[ek - 1] };
    let eruns = ecells.checked_div(delast).unwrap_or(0);
    let mut ecoords = vec![0u64; ek.saturating_sub(1)];
    // Lane-fold only contiguous runs: strided gathers defeat the point,
    // and matching the unfused/fused shapes requires the gate to be a
    // property of the data layout, not the run values.
    let lane = selast == 1;
    for slot in out.iter_mut() {
        guard.poll()?;
        // Seed with the first value (the sparse operator pushes a group's
        // first row unaggregated), then fold the rest in odometer order.
        let mut acc = if lane {
            fold_run::<S>(&av[base..base + delast as usize])
        } else {
            let mut acc = av[base];
            for j in 1..delast as usize {
                acc = S::add(acc, av[base + j * selast]);
            }
            acc
        };
        let mut ebase = 0usize;
        for _ in 1..eruns {
            for j in (0..ek - 1).rev() {
                ecoords[j] += 1;
                ebase += edims[j].1;
                if ecoords[j] < edims[j].0 {
                    break;
                }
                ecoords[j] = 0;
                ebase -= edims[j].1 * edims[j].0 as usize;
            }
            let rbase = base + ebase;
            if lane {
                acc = S::add(acc, fold_run::<S>(&av[rbase..rbase + delast as usize]));
            } else {
                for j in 0..delast as usize {
                    acc = S::add(acc, av[rbase + j * selast]);
                }
            }
        }
        for e in ecoords.iter_mut() {
            *e = 0;
        }
        if !S::KIND.is_valid_accumulation(acc) {
            return Err(AlgebraError::NonFiniteMeasure {
                op: "dense::agg",
                value: acc,
            });
        }
        *slot = acc;
        guard.produced()?;
        for j in (0..k).rev() {
            coords[j] += 1;
            base += gdims[j].1;
            if coords[j] < gdims[j].0 {
                break;
            }
            coords[j] = 0;
            base -= gdims[j].1 * gdims[j].0 as usize;
        }
    }
    guard.finish()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpf_semiring::SemiringKind;
    use mpf_storage::{Catalog, Schema};

    fn fixtures() -> (Catalog, FunctionalRelation, FunctionalRelation) {
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 6).unwrap();
        let b = cat.add_var("b", 5).unwrap();
        let c = cat.add_var("c", 4).unwrap();
        let l = FunctionalRelation::complete(
            "l",
            Schema::new(vec![a, b]).unwrap(),
            &cat,
            |row| (row[0] * 3 + row[1] + 1) as f64,
        );
        let r = FunctionalRelation::complete(
            "r",
            Schema::new(vec![b, c]).unwrap(),
            &cat,
            |row| (row[0] + 5 * row[1] + 1) as f64,
        );
        (cat, l, r)
    }

    #[test]
    fn dense_join_matches_hash_join() {
        let (_, l, r) = fixtures();
        for sr in SemiringKind::ALL {
            let want = ops::raw::product_join(sr, &l, &r).unwrap();
            let got = join(&mut ExecContext::new(sr), &l, &r).unwrap();
            assert!(want.function_eq(&got), "{sr:?}");
        }
    }

    #[test]
    fn dense_agg_matches_group_by() {
        let (cat, l, _) = fixtures();
        let a = cat.var("a").unwrap();
        let b = cat.var("b").unwrap();
        for sr in SemiringKind::ALL {
            for gv in [vec![a], vec![b, a], vec![]] {
                let want = ops::raw::group_by(sr, &l, &gv).unwrap();
                let got = agg(&mut ExecContext::new(sr), &l, &gv).unwrap();
                assert!(want.function_eq(&got), "{sr:?} {gv:?}");
            }
        }
    }

    #[test]
    fn dense_results_bit_identical_across_threads() {
        let (cat, l, r) = fixtures();
        let b = cat.var("b").unwrap();
        let sr = SemiringKind::LogSumProduct;
        let j1 = join(&mut ExecContext::new(sr).with_threads(1), &l, &r).unwrap();
        let j4 = join(&mut ExecContext::new(sr).with_threads(4), &l, &r).unwrap();
        assert_eq!(j1, j4, "dense join output is odometer-ordered either way");
        let g1 = agg(&mut ExecContext::new(sr).with_threads(1), &j1, &[b]).unwrap();
        let g4 = agg(&mut ExecContext::new(sr).with_threads(4), &j4, &[b]).unwrap();
        assert_eq!(g1, g4);
    }

    #[test]
    fn tiled_join_matches_hash_join() {
        // The (c, b) output is ~69k cells (≥ TILE_MIN_CELLS) while `r`
        // is stored (b, c) — the implicit-transpose case the blocked
        // kernel exists for — and neither domain is a multiple of TILE,
        // so edge tiles clip on both axes.
        let mut cat = Catalog::new();
        let b = cat.add_var("b", 230).unwrap();
        let c = cat.add_var("c", 300).unwrap();
        let l = FunctionalRelation::complete("l", Schema::new(vec![c]).unwrap(), &cat, |row| {
            1.0 + row[0] as f64
        });
        let r =
            FunctionalRelation::complete("r", Schema::new(vec![b, c]).unwrap(), &cat, |row| {
                ((row[0] * 7 + row[1] * 3) % 11) as f64 + 0.25
            });
        let sr = SemiringKind::SumProduct;
        let want = ops::raw::product_join(sr, &l, &r).unwrap();
        let got1 = join(&mut ExecContext::new(sr).with_threads(1), &l, &r).unwrap();
        let got4 = join(&mut ExecContext::new(sr).with_threads(4), &l, &r).unwrap();
        assert!(want.function_eq(&got1));
        assert_eq!(got1, got4, "blocked kernel is chunk-invariant");
    }

    #[test]
    fn input_major_agg_matches_hash_group_by() {
        // Grouping on the input's stride-1 axis at ≥ TILE_MIN_CELLS
        // engages the input-major accumulation variant; the sparse
        // operator folds each group's rows in the same (first-axis
        // ascending) order, so results match bit for bit.
        let mut cat = Catalog::new();
        let e = cat.add_var("e", 260).unwrap();
        let g = cat.add_var("g", 300).unwrap();
        let input =
            FunctionalRelation::complete("t", Schema::new(vec![e, g]).unwrap(), &cat, |row| {
                0.5 + ((row[0] * 13 + row[1] * 5) % 17) as f64
            });
        let sr = SemiringKind::LogSumProduct;
        let want = ops::raw::group_by(sr, &input, &[g]).unwrap();
        let got1 = agg(&mut ExecContext::new(sr).with_threads(1), &input, &[g]).unwrap();
        let got4 = agg(&mut ExecContext::new(sr).with_threads(4), &input, &[g]).unwrap();
        assert!(want.function_eq(&got1));
        assert_eq!(got1, got4, "input-major kernel is chunk-invariant");
    }

    #[test]
    fn incomplete_inputs_fall_back_to_sparse() {
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 3).unwrap();
        let b = cat.add_var("b", 3).unwrap();
        let l = FunctionalRelation::from_rows(
            "l",
            Schema::new(vec![a]).unwrap(),
            [(vec![0], 2.0), (vec![2], 3.0)],
        )
        .unwrap();
        let r = FunctionalRelation::from_rows(
            "r",
            Schema::new(vec![a, b]).unwrap(),
            [(vec![0, 1], 5.0), (vec![2, 2], 7.0), (vec![1, 0], 11.0)],
        )
        .unwrap();
        for sr in SemiringKind::ALL {
            let want = ops::raw::product_join(sr, &l, &r).unwrap();
            // An incomplete input never borrows as a dense operand — the
            // kernel itself refuses (its support would differ from the
            // hash join's) and reports infeasibility to the caller...
            let kernel = join_impl(
                &mut ExecContext::new(sr),
                &l,
                &r,
                &l.inferred_domains(),
                &r.inferred_domains(),
            )
            .unwrap();
            assert!(kernel.is_none(), "{sr:?} kernel refuses incomplete input");
            // ...so the public operator takes the hash path instead.
            assert!(!join_support_exact(&l, &r));
            let mut cx = ExecContext::new(sr);
            let got = join(&mut cx, &l, &r).unwrap();
            assert_eq!(cx.stats().dense_joins, 0, "{sr:?} fell back");
            assert!(want.function_eq(&got), "{sr:?} row-identical");
            let wg = ops::raw::group_by(sr, &want, &[b]).unwrap();
            let mut gx = ExecContext::new(sr);
            let gg = agg(&mut gx, &got, &[b]).unwrap();
            assert_eq!(gx.stats().dense_group_bys, 0, "{sr:?} agg fell back");
            assert!(wg.function_eq(&gg), "{sr:?} agg");
        }
    }

    #[test]
    fn auto_dispatch_gates_on_completeness() {
        let (_, l, r) = fixtures();
        assert!(is_complete_on_inferred(&l));
        assert!(dense_join_applies(ReprMode::Auto, &l, &r));
        assert!(dense_join_applies(ReprMode::Dense, &l, &r));
        assert!(!dense_join_applies(ReprMode::Rows, &l, &r));
        assert!(!dense_join_applies(ReprMode::Sparse, &l, &r));
        let mut sparse = FunctionalRelation::new("s", l.schema().clone());
        sparse.push_row(&[5, 4], 1.0).unwrap();
        assert!(!is_complete_on_inferred(&sparse));
        assert!(!dense_join_applies(ReprMode::Auto, &sparse, &r));
        // Support-exactness is a hard precondition: even Dense refuses
        // incomplete inputs at runtime (the modes differ at the planner).
        assert!(!dense_join_applies(ReprMode::Dense, &sparse, &r));
        assert!(dense_agg_applies(ReprMode::Auto, &l));
        assert!(!dense_agg_applies(ReprMode::Rows, &l));
        assert!(!dense_agg_applies(ReprMode::Auto, &sparse));
        // Complete sides whose shared-variable ranges disagree would
        // zero-fill output cells the hash join never emits — refused too.
        let (cat, _, _) = fixtures();
        let b = cat.var("b").unwrap();
        let c = cat.var("c").unwrap();
        let narrow = FunctionalRelation::from_rows(
            "n",
            Schema::new(vec![b, c]).unwrap(),
            (0..6).map(|i| (vec![i / 2, i % 2], 1.0 + i as f64)),
        )
        .unwrap();
        assert!(is_complete_on_inferred(&narrow));
        assert!(!join_support_exact(&l, &narrow));
        assert!(!dense_join_applies(ReprMode::Dense, &l, &narrow));
    }

    #[test]
    fn infeasible_grid_falls_back_to_sparse() {
        // Two wide relations whose union grid exceeds MAX_DENSE_CELLS:
        // the dense operator silently runs the hash join instead.
        let mut cat = Catalog::new();
        let x = cat.add_var("x", 1 << 13).unwrap();
        let y = cat.add_var("y", 1 << 13).unwrap();
        let mut l = FunctionalRelation::new("l", Schema::new(vec![x]).unwrap());
        l.push_row(&[(1 << 13) - 1], 2.0).unwrap();
        let mut r = FunctionalRelation::new("r", Schema::new(vec![y]).unwrap());
        r.push_row(&[(1 << 13) - 1], 3.0).unwrap();
        let sr = SemiringKind::SumProduct;
        assert!(!dense_join_applies(ReprMode::Dense, &l, &r));
        // The internal kernel itself refuses the grid (support-exactness
        // aside): 2^13 × 2^13 cells exceeds MAX_DENSE_CELLS.
        let (ld, rd) = (l.inferred_domains(), r.inferred_domains());
        assert!(join_impl(&mut ExecContext::new(sr), &l, &r, &ld, &rd).unwrap().is_none());
        let mut cx = ExecContext::new(sr);
        let out = join(&mut cx, &l, &r).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(cx.stats().joins, 1);
        assert_eq!(cx.stats().dense_joins, 0, "fell back to the hash join");
    }

    #[test]
    fn dense_ops_account_like_sparse_and_mark_dense() {
        let (cat, l, r) = fixtures();
        let b = cat.var("b").unwrap();
        let sr = SemiringKind::SumProduct;
        let mut cx = ExecContext::new(sr);
        let j = join(&mut cx, &l, &r).unwrap();
        agg(&mut cx, &j, &[b]).unwrap();
        let stats = cx.stats();
        assert_eq!(stats.joins, 1);
        assert_eq!(stats.dense_joins, 1);
        assert_eq!(stats.group_bys, 1);
        assert_eq!(stats.dense_group_bys, 1);
        // join: 2 input conversions + 1 output; agg: 1 input + 1 output.
        assert_eq!(stats.dense_converts, 5);
        // Sparse runs count the same rows processed.
        let mut sx = ExecContext::new(sr);
        let js = ops::product_join(&mut sx, &l, &r).unwrap();
        ops::group_by(&mut sx, &js, &[b]).unwrap();
        assert_eq!(stats.rows_processed, sx.stats().rows_processed);
    }

    #[test]
    fn dense_budget_trips_like_sparse() {
        let (_, l, r) = fixtures();
        let sr = SemiringKind::SumProduct;
        let limits = crate::ExecLimits::none().with_max_output_rows(10);
        let err = join(&mut ExecContext::with_limits(sr, limits.clone()), &l, &r).unwrap_err();
        let sparse_err =
            ops::product_join(&mut ExecContext::with_limits(sr, limits), &l, &r).unwrap_err();
        assert_eq!(err, sparse_err);
    }

    /// Semirings whose additive operation is selective (min/max/or):
    /// the fold's value is one of its operands, so any reassociation —
    /// lane chunking included — is exact, not just within rounding.
    fn selective(sr: SemiringKind) -> bool {
        !matches!(sr, SemiringKind::SumProduct | SemiringKind::LogSumProduct)
    }

    /// Rows with measure bits, in canonical order: bitwise comparison
    /// (`FunctionalRelation`'s `==` allows float tolerance).
    fn bits(rel: &FunctionalRelation) -> Vec<(Vec<u32>, u64)> {
        let c = rel.canonicalized();
        c.rows()
            .map(|(row, m)| (row.to_vec(), m.to_bits()))
            .collect()
    }

    /// The chunked kernels against the scalar reference: bit-identical
    /// for the selective semirings, within `function_eq_in` tolerance for
    /// `SumProduct`/`LogSumProduct`. Both results must also have the
    /// same support (the reference emits every grid cell too).
    fn assert_matches_reference(
        sr: SemiringKind,
        got: &FunctionalRelation,
        want: &FunctionalRelation,
        what: &str,
    ) {
        assert_eq!(got.len(), want.len(), "{what}: {sr:?} support");
        if selective(sr) {
            assert_eq!(
                bits(got),
                bits(want),
                "{what}: {sr:?} reassociated a selective fold"
            );
        } else {
            assert!(
                want.function_eq_in(got, sr),
                "{what}: {sr:?} diverged from scalar"
            );
        }
    }

    /// Complete factors over `doms` with non-uniform, semiring-safe
    /// measures (two exact and inexact fractions, so float addition order
    /// is observable; {0, 1} for the Boolean semiring).
    fn grid(
        cat: &Catalog,
        name: &str,
        vars: &[VarId],
        sr: SemiringKind,
        salt: u64,
    ) -> FunctionalRelation {
        FunctionalRelation::complete(name, Schema::new(vars.to_vec()).unwrap(), cat, |row| {
            let cell = row
                .iter()
                .fold(salt, |h, &v| h.wrapping_mul(31).wrapping_add(v as u64));
            if sr == SemiringKind::BoolOrAnd {
                (cell % 2) as f64
            } else {
                (cell % 7 + 1) as f64 / 3.0
            }
        })
    }

    /// A VE chain r1(a,b) ⨝ r2(b,c) → γ{a,c} → ⨝ r3(c,d) → γ{a,d} → γ{a}
    /// over 12-value domains (innermost runs exceed one 8-lane chunk and
    /// leave a remainder), run through the production kernels — unfused
    /// and fused — at threads {1, 4}, against the same chain through the
    /// scalar reference.
    #[test]
    fn chunked_kernels_match_scalar_reference() {
        let mut cat = Catalog::new();
        let [a, b, c, d] = ["a", "b", "c", "d"].map(|n| cat.add_var(n, 12).unwrap());
        for sr in SemiringKind::ALL {
            let r1 = grid(&cat, "r1", &[a, b], sr, 1);
            let r2 = grid(&cat, "r2", &[b, c], sr, 2);
            let r3 = grid(&cat, "r3", &[c, d], sr, 3);
            let t1 = scalar_ref::join(sr, &r1, &r2);
            let t1 = scalar_ref::agg(sr, &t1, &[a, c]);
            let t2 = scalar_ref::join(sr, &t1, &r3);
            let t2 = scalar_ref::agg(sr, &t2, &[a, d]);
            let want = scalar_ref::agg(sr, &t2, &[a]);
            let fused_want = scalar_ref::join_agg(sr, &t1, &r3, &[a, d]);
            assert_eq!(
                bits(&fused_want),
                bits(&t2),
                "{sr:?}: reference fused == unfused"
            );
            let mut per_thread = Vec::new();
            for t in [1, 4] {
                let mut cx = ExecContext::new(sr).with_threads(t);
                let j1 = join(&mut cx, &r1, &r2).unwrap();
                assert_matches_reference(sr, &j1, &scalar_ref::join(sr, &r1, &r2), "join");
                let g1 = agg(&mut cx, &j1, &[a, c]).unwrap();
                let j2 = join(&mut cx, &g1, &r3).unwrap();
                let g2 = agg(&mut cx, &j2, &[a, d]).unwrap();
                let got = agg(&mut cx, &g2, &[a]).unwrap();
                let fused = join_agg(&mut cx, &g1, &r3, &[a, d]).unwrap();
                assert_eq!(cx.stats().dense_joins, 3, "{sr:?}: every step ran dense");
                assert_eq!(
                    bits(&fused),
                    bits(&g2),
                    "{sr:?}: fused == unfused, bit for bit"
                );
                assert_matches_reference(sr, &got, &want, "chain");
                assert_matches_reference(sr, &fused, &fused_want, "fused");
                per_thread.push(bits(&got));
            }
            assert_eq!(
                per_thread[0], per_thread[1],
                "{sr:?}: thread count changed bits"
            );
        }
    }

    /// The layout-specialized variants — the cache-blocked join, the
    /// input-major aggregation, and the chunk-parallel splits above
    /// [`PARALLEL_MIN_CELLS`] — against the scalar reference.
    #[test]
    fn blocked_and_input_major_kernels_match_scalar_reference() {
        let mut cat = Catalog::new();
        let b = cat.add_var("b", 230).unwrap();
        let c = cat.add_var("c", 300).unwrap();
        for sr in SemiringKind::ALL {
            // (c, b) output ≥ TILE_MIN_CELLS with `r` stored (b, c): the
            // implicit-transpose case the blocked kernel exists for.
            let l = grid(&cat, "l", &[c], sr, 4);
            let r = grid(&cat, "r", &[b, c], sr, 5);
            // Grouping on the stride-1 axis engages input-major order;
            // grouping on the outer axis lane-folds contiguous runs.
            let want_join = scalar_ref::join(sr, &l, &r);
            let wants: Vec<_> = [[c], [b]]
                .into_iter()
                .map(|gv| {
                    let agg = scalar_ref::agg(sr, &r, &gv);
                    (gv, agg, scalar_ref::join_agg(sr, &l, &r, &gv))
                })
                .collect();
            for t in [1, 4] {
                let mut cx = ExecContext::new(sr).with_threads(t);
                let j = join(&mut cx, &l, &r).unwrap();
                assert_matches_reference(sr, &j, &want_join, "blocked join");
                for (gv, want_agg, want_fused) in &wants {
                    let got = agg(&mut cx, &r, gv).unwrap();
                    assert_matches_reference(sr, &got, want_agg, "agg");
                    let fused = join_agg(&mut cx, &l, &r, gv).unwrap();
                    assert_matches_reference(sr, &fused, want_fused, "fused");
                }
                assert_eq!(cx.stats().dense_joins, 3, "{sr:?}: every join ran dense");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Random measures on complete grids: the chunked kernels, fused
        /// and unfused, never leave the scalar reference.
        #[test]
        fn random_measures_match_scalar_reference(
            m1 in proptest::collection::vec(0u8..10, 16),
            m2 in proptest::collection::vec(0u8..10, 16),
            sr_idx in 0usize..7,
        ) {
            let sr = SemiringKind::ALL[sr_idx];
            let mut cat = Catalog::new();
            let [a, b, c] = ["a", "b", "c"].map(|n| cat.add_var(n, 4).unwrap());
            let rel = |name: &str, vars: Vec<VarId>, m: &[u8]| {
                FunctionalRelation::complete(name, Schema::new(vars).unwrap(), &cat, |row| {
                    let v = m[(row[0] * 4 + row[1]) as usize];
                    if sr == SemiringKind::BoolOrAnd { (v % 2) as f64 } else { v as f64 }
                })
            };
            let (r1, r2) = (rel("r1", vec![a, b], &m1), rel("r2", vec![b, c], &m2));
            let mut cx = ExecContext::new(sr);
            let j = join(&mut cx, &r1, &r2).unwrap();
            let unfused = agg(&mut cx, &j, &[a]).unwrap();
            let fused = join_agg(&mut cx, &r1, &r2, &[a]).unwrap();
            proptest::prop_assert_eq!(bits(&fused), bits(&unfused));
            let want = scalar_ref::join_agg(sr, &r1, &r2, &[a]);
            assert_matches_reference(sr, &fused, &want, "fused");
            assert_matches_reference(sr, &j, &scalar_ref::join(sr, &r1, &r2), "join");
        }
    }
}

/// Scalar reference kernels: the one-cell-at-a-time loop shape the
/// chunked kernels are checked against. Each takes inputs in
/// dense-kernel form (the odometer sequence of their grid, agreeing on
/// shared variables — what the public operators densify) and returns the
/// output in odometer order. A join cell is one `mul`; a marginal cell
/// folds its eliminated subgrid left to right in odometer order, seeded
/// with the first value — the order the rows of that group appear in a
/// complete relation.
#[cfg(test)]
mod scalar_ref {
    use super::*;
    use mpf_semiring::SemiringKind;

    /// Grid coordinates of linear index `i` (last axis fastest).
    fn decode(mut i: u64, doms: &[u64]) -> Vec<u64> {
        let mut coords = vec![0u64; doms.len()];
        for (c, &d) in coords.iter_mut().zip(doms).rev() {
            *c = i % d;
            i /= d;
        }
        coords
    }

    /// Per axis of `schema` (over `doms`), `rel`'s stride along it (0
    /// when `rel` lacks the variable).
    fn side_strides(rel: &FunctionalRelation, schema: &Schema, doms: &[u64]) -> Vec<usize> {
        let own: Vec<u64> = rel
            .schema()
            .iter()
            .map(|v| doms[schema.position(v).expect("var in grid")])
            .collect();
        let strides = strides_of(&own);
        schema
            .iter()
            .map(|v| {
                rel.schema()
                    .position(v)
                    .ok()
                    .map_or(0, |p| strides[p] as usize)
            })
            .collect()
    }

    fn at(rel: &FunctionalRelation, strides: &[usize], coords: &[u64]) -> f64 {
        let off: usize = coords
            .iter()
            .zip(strides)
            .map(|(&c, &s)| c as usize * s)
            .sum();
        rel.measures()[off]
    }

    /// The union grid of two dense-kernel-form inputs.
    fn join_grid(l: &FunctionalRelation, r: &FunctionalRelation) -> (Schema, Vec<u64>) {
        let ld = ordered_grid_hint(l).expect("dense-kernel form");
        let rd = ordered_grid_hint(r).expect("dense-kernel form");
        assert!(
            shared_domains_agree(l, r, &ld, &rd),
            "grids agree on shared vars"
        );
        let schema = l.schema().union(r.schema());
        let doms = union_domains(l, r, &schema, &ld, &rd);
        (schema, doms)
    }

    /// Marginalize `value(coords over schema)` onto `group_vars`.
    fn fold<S: SemiringOps>(
        schema: &Schema,
        doms: &[u64],
        group_vars: &[VarId],
        value: impl Fn(&[u64]) -> f64,
    ) -> FunctionalRelation {
        let gpos: Vec<usize> = group_vars
            .iter()
            .map(|&v| schema.position(v).unwrap())
            .collect();
        let epos: Vec<usize> = (0..schema.arity()).filter(|p| !gpos.contains(p)).collect();
        let gdoms: Vec<u64> = gpos.iter().map(|&p| doms[p]).collect();
        let edoms: Vec<u64> = epos.iter().map(|&p| doms[p]).collect();
        let out_schema = Schema::new(group_vars.to_vec()).unwrap();
        let mut out = DenseFactor::filled("ref", out_schema, gdoms.clone(), 0.0).unwrap();
        let ecells: u64 = edoms.iter().product();
        let mut coords = vec![0u64; schema.arity()];
        for (g, slot) in out.values_mut().iter_mut().enumerate() {
            for (&p, c) in gpos.iter().zip(decode(g as u64, &gdoms)) {
                coords[p] = c;
            }
            let mut acc = None;
            for e in 0..ecells {
                for (&p, c) in epos.iter().zip(decode(e, &edoms)) {
                    coords[p] = c;
                }
                let v = value(&coords);
                acc = Some(acc.map_or(v, |a| S::add(a, v)));
            }
            *slot = acc.expect("non-empty subgrid");
        }
        out.into_relation()
    }

    fn join_s<S: SemiringOps>(
        l: &FunctionalRelation,
        r: &FunctionalRelation,
    ) -> FunctionalRelation {
        let (schema, doms) = join_grid(l, r);
        let vars: Vec<VarId> = schema.iter().collect();
        let (sa, sb) = (
            side_strides(l, &schema, &doms),
            side_strides(r, &schema, &doms),
        );
        fold::<S>(&schema, &doms, &vars, |c| {
            S::mul(at(l, &sa, c), at(r, &sb, c))
        })
    }

    fn agg_s<S: SemiringOps>(
        input: &FunctionalRelation,
        group_vars: &[VarId],
    ) -> FunctionalRelation {
        let doms = ordered_grid_hint(input).expect("dense-kernel form");
        let strides = side_strides(input, input.schema(), &doms);
        fold::<S>(input.schema(), &doms, group_vars, |c| {
            at(input, &strides, c)
        })
    }

    fn join_agg_s<S: SemiringOps>(
        l: &FunctionalRelation,
        r: &FunctionalRelation,
        group_vars: &[VarId],
    ) -> FunctionalRelation {
        let (schema, doms) = join_grid(l, r);
        let (sa, sb) = (
            side_strides(l, &schema, &doms),
            side_strides(r, &schema, &doms),
        );
        fold::<S>(&schema, &doms, group_vars, |c| {
            S::mul(at(l, &sa, c), at(r, &sb, c))
        })
    }

    /// Reference product join.
    pub(super) fn join(
        sr: SemiringKind,
        l: &FunctionalRelation,
        r: &FunctionalRelation,
    ) -> FunctionalRelation {
        for_each_semiring!(sr, join_s(l, r))
    }

    /// Reference marginalization.
    pub(super) fn agg(
        sr: SemiringKind,
        input: &FunctionalRelation,
        group_vars: &[VarId],
    ) -> FunctionalRelation {
        for_each_semiring!(sr, agg_s(input, group_vars))
    }

    /// Reference fused join→marginalize.
    pub(super) fn join_agg(
        sr: SemiringKind,
        l: &FunctionalRelation,
        r: &FunctionalRelation,
        group_vars: &[VarId],
    ) -> FunctionalRelation {
        for_each_semiring!(sr, join_agg_s(l, r, group_vars))
    }
}
