//! Order-space search utilities — toward the paper's future direction of
//! *automatically applying the best order*.
//!
//! The paper deliberately does not evaluate all `k!` orders on hardware;
//! instead it proposes metrics that characterize an order without running
//! it. This module builds on those metrics:
//!
//! * [`spreadness`] condenses the pairs-per-level percentages into a
//!   single `[0, 1]` score (0 = fully packed, 1 = fully spread);
//! * [`representatives`] prunes the order space to one order per
//!   mapping-equivalence class, preferring the lowest ring cost in each
//!   class (the cheapest rank assignment on the same resources);
//! * [`rank_orders_by`] evaluates a caller-supplied cost (e.g. a simulated
//!   collective duration) over the pruned space and returns the orders
//!   sorted best-first; [`rank_orders_by_par`] fans the evaluations out on
//!   the [`crate::par`] worker pool with byte-identical results;
//! * [`sweep`] evaluates a whole (order × subcommunicator size × payload
//!   size) grid in one parallel pass — the engine behind the figure
//!   binaries' size sweeps;
//! * [`rank_orders_pruned_ladder`] / [`sweep_pruned_axis`] are the
//!   branch-and-bound variants, both running one per-cell engine:
//!   candidates are visited in ascending order of a caller-supplied
//!   **admissible lower bound** (e.g. `mre-simnet`'s
//!   `schedule_lower_bound`), and any candidate whose bound exceeds the
//!   incumbent best cost is skipped without paying the full evaluation —
//!   provably returning the same best order per cell (DESIGN.md §7e).
//!   The frontier is evaluated **best-first in parallel** on the
//!   [`crate::par`] worker pool against a shared atomic incumbent; the
//!   winner stays byte-identical to the exhaustive search in every
//!   interleaving, and on one worker (`MRE_PAR_THREADS=1`) the same loop
//!   runs inline with a deterministic evaluated/pruned split. Both take
//!   the two-stage **bound ladder** (DESIGN.md §7g): a per-candidate
//!   `prepare` artifact built exactly once (typically the collective
//!   schedules — the dominant per-candidate cost), a cheap bound
//!   computed for every candidate to order the frontier, and a tighter
//!   still-admissible bound evaluated lazily only for candidates the
//!   cheap rung fails to prune. [`sweep_pruned_axis`] also hoists
//!   `prepare` out of the payload axis. The exhaustive [`rank_orders_by`]
//!   and [`sweep`] are the oracles the pruned searches are tested against.

use crate::error::Error;
use crate::hierarchy::Hierarchy;
use crate::metrics::{characterize_order, characterized_classes, OrderCharacterization};
use crate::par;
use crate::permutation::Permutation;

/// Spreadness score of an order for a given subcommunicator size: the
/// mean crossing level of a communicator's process pairs, normalized to
/// `[0, 1]`. A mapping whose pairs all sit inside the lowest level scores
/// 0; one whose pairs all cross the outermost level scores 1.
pub fn spreadness(h: &Hierarchy, sigma: &Permutation, subcomm_size: usize) -> Result<f64, Error> {
    let c = characterize_order(h, sigma, subcomm_size)?;
    let k = h.depth();
    if k <= 1 {
        return Ok(0.0);
    }
    let mean_level: f64 = c
        .percentages
        .iter()
        .enumerate()
        .map(|(i, pct)| pct / 100.0 * i as f64)
        .sum();
    Ok(mean_level / (k - 1) as f64)
}

/// One representative order per mapping-equivalence class: within each
/// class the order with the lowest ring cost (ties broken
/// lexicographically). Evaluating only these avoids the paper's redundant
/// measurements.
pub fn representatives(
    h: &Hierarchy,
    subcomm_size: usize,
) -> Result<Vec<OrderCharacterization>, Error> {
    // Every order is laid out and characterized exactly once (in parallel
    // inside `characterized_classes`); picking the class minimum then
    // compares the precomputed characterizations instead of re-deriving
    // them per comparison.
    let classes = characterized_classes(h, subcomm_size)?;
    if crate::telemetry::enabled() {
        let candidates: usize = classes.iter().map(Vec::len).sum();
        crate::telemetry::counter_add("core.order_search.candidates", candidates as u64);
        crate::telemetry::counter_add(
            "core.order_search.pruned",
            (candidates - classes.len()) as u64,
        );
    }
    Ok(classes
        .into_iter()
        .map(|class| {
            class
                .into_iter()
                .min_by(|a, b| {
                    a.ring_cost
                        .cmp(&b.ring_cost)
                        .then_with(|| a.order.cmp(&b.order))
                })
                .expect("equivalence classes are non-empty")
        })
        .collect())
}

/// Evaluates `cost` on the representative orders and returns
/// `(characterization, cost)` pairs sorted best (lowest cost) first.
///
/// `cost` is typically a simulated duration — e.g. closing over an
/// `mre-simnet` network model and a collective schedule generator.
pub fn rank_orders_by<F>(
    h: &Hierarchy,
    subcomm_size: usize,
    mut cost: F,
) -> Result<Vec<(OrderCharacterization, f64)>, Error>
where
    F: FnMut(&Permutation) -> f64,
{
    let mut scored: Vec<(OrderCharacterization, f64)> = representatives(h, subcomm_size)?
        .into_iter()
        .map(|c| {
            let value = cost(&c.order);
            (c, value)
        })
        .collect();
    scored.sort_by(|a, b| a.1.total_cmp(&b.1));
    Ok(scored)
}

/// [`rank_orders_by`] with the cost evaluations fanned out on the
/// [`crate::par`] worker pool.
///
/// The ranking is **byte-identical** to the serial path: representatives
/// are enumerated in the same deterministic order, `par::map` returns
/// costs in input order, and the final sort is stable — so equal costs tie
/// in the same positions regardless of thread count.
pub fn rank_orders_by_par<F>(
    h: &Hierarchy,
    subcomm_size: usize,
    cost: F,
) -> Result<Vec<(OrderCharacterization, f64)>, Error>
where
    F: Fn(&Permutation) -> f64 + Sync,
{
    let reps = representatives(h, subcomm_size)?;
    let costs = par::map(&reps, |_, c| cost(&c.order));
    let mut scored: Vec<(OrderCharacterization, f64)> = reps.into_iter().zip(costs).collect();
    scored.sort_by(|a, b| a.1.total_cmp(&b.1));
    Ok(scored)
}

/// Outcome counters of a branch-and-bound search: how many candidates
/// paid the full cost evaluation vs. were skipped on their lower bound
/// alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Candidates whose full cost was evaluated.
    pub evaluated: u64,
    /// Candidates skipped because a lower bound exceeded the incumbent
    /// best cost (cheap-rung and tight-rung skips combined).
    pub pruned: u64,
    /// The subset of `pruned` skipped by the **tight** ladder rung — the
    /// candidates the cheap bound let through but the lazily-evaluated
    /// tighter bound rejected. Zero when the tight rung is
    /// `|..| f64::NEG_INFINITY` (a single-bound search).
    pub tight_pruned: u64,
}

impl PruneStats {
    /// Total candidates considered (evaluated + pruned). Invariant under
    /// thread count and scheduling, unlike the evaluated/pruned split of
    /// the parallel engine (a worker may cost a candidate a slightly
    /// earlier incumbent would have pruned).
    pub fn candidates(&self) -> u64 {
        self.evaluated + self.pruned
    }

    fn merge(self, other: PruneStats) -> PruneStats {
        PruneStats {
            evaluated: self.evaluated + other.evaluated,
            pruned: self.pruned + other.pruned,
            tight_pruned: self.tight_pruned + other.tight_pruned,
        }
    }
}

/// Wall-time accumulators of one search, split by ladder stage: `bound`
/// covers prepare + cheap + tight rungs, `cost` the full evaluations.
/// Summed across workers, so the two are comparable CPU-time shares even
/// when the frontier runs in parallel.
#[derive(Debug, Default)]
struct SearchTiming {
    bound_ns: std::sync::atomic::AtomicU64,
    cost_ns: std::sync::atomic::AtomicU64,
}

impl SearchTiming {
    fn timed<R>(ns: &std::sync::atomic::AtomicU64, f: impl FnOnce() -> R) -> R {
        let start = std::time::Instant::now();
        let r = f();
        ns.fetch_add(
            start.elapsed().as_nanos() as u64,
            std::sync::atomic::Ordering::Relaxed,
        );
        r
    }

    fn bound<R>(&self, f: impl FnOnce() -> R) -> R {
        Self::timed(&self.bound_ns, f)
    }

    fn cost<R>(&self, f: impl FnOnce() -> R) -> R {
        Self::timed(&self.cost_ns, f)
    }
}

/// Result of [`rank_orders_pruned_ladder`]: the provably-best order plus
/// the subset of candidates that were actually evaluated.
#[derive(Debug, Clone)]
pub struct PrunedRanking {
    /// The best `(characterization, cost)` — byte-identical to
    /// `rank_orders_by(...)[0]` when the bounds are admissible.
    pub best: (OrderCharacterization, f64),
    /// The evaluated candidates, lowest cost first (pruned candidates are
    /// absent — their exact costs were never computed).
    pub ranked: Vec<(OrderCharacterization, f64)>,
    /// Evaluated/pruned counters.
    pub stats: PruneStats,
}

/// Lowers `current` to `candidate` if smaller (by `total_cmp`), CAS-ing
/// on the f64's bit pattern — the shared incumbent of the frontier.
fn cas_min_f64(current: &std::sync::atomic::AtomicU64, candidate: f64) {
    use std::sync::atomic::Ordering;
    let mut cur = current.load(Ordering::Acquire);
    while candidate.total_cmp(&f64::from_bits(cur)) == std::cmp::Ordering::Less {
        match current.compare_exchange_weak(
            cur,
            candidate.to_bits(),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

/// The branch-and-bound engine of one grid cell, behind both
/// [`rank_orders_pruned_ladder`] and [`sweep_pruned_axis`]: the frontier
/// of `reps`, ordered by `(bounds[i], i)` ascending (`bounds` is the
/// cheap rung), is drained best-first by the [`crate::par`] worker pool
/// against a shared atomic incumbent (CAS on the cost's f64 bits).
///
/// The bound-minimal candidate is costed **serially first** to seed the
/// incumbent — without it, `threads ≥ candidates` would cost the whole
/// frontier speculatively before any pruning could act. Workers then
/// claim positions from a shared cursor in bound order; a claim whose
/// cheap bound strictly exceeds the current incumbent proves every later
/// position prunable too (bounds ascend along the visit order and the
/// incumbent only decreases), so the worker forwards the cursor past the
/// end and retires. A candidate the cheap rung admits is re-checked
/// against the lazily-evaluated `tight(i)`; a tight rejection skips only
/// that candidate (tight bounds are not sorted). With one worker
/// (`MRE_PAR_THREADS=1`, or at most two candidates) [`par::broadcast`]
/// runs the loop inline and the evaluated/pruned split is deterministic.
///
/// **Determinism.** Strict inequality and the `(cost, enumeration index)`
/// tie-break make the winner byte-identical to the exhaustive search in
/// every interleaving: any candidate whose true cost equals the global
/// minimum has (by admissibility of **both** rungs) every bound ≤ that
/// cost ≤ every intermediate incumbent, so no interleaving ever prunes
/// it, and a candidate whose bound merely *equals* the incumbent is still
/// costed, as it could tie with a smaller index. The set of candidates
/// that pay the full cost may vary with scheduling (a worker can claim a
/// candidate an instant before a better incumbent lands);
/// `PruneStats::candidates` cannot.
fn branch_and_bound(
    reps: &[OrderCharacterization],
    bounds: &[f64],
    timing: &SearchTiming,
    tight: &(dyn Fn(usize) -> f64 + Sync),
    cost: &(dyn Fn(usize) -> f64 + Sync),
) -> PrunedRanking {
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    let n = bounds.len();
    let mut visit: Vec<usize> = (0..n).collect();
    visit.sort_by(|&a, &b| bounds[a].total_cmp(&bounds[b]).then(a.cmp(&b)));
    let seed_index = *visit
        .first()
        .expect("a valid subcommunicator size has at least one representative order");
    let seed_cost = timing.cost(|| cost(seed_index));
    let incumbent = AtomicU64::new(seed_cost.to_bits());
    let evaluated = std::sync::Mutex::new(vec![(seed_index, seed_cost)]);
    let tight_pruned = AtomicU64::new(0);
    let cursor = AtomicUsize::new(1);
    par::broadcast(par::threads().min(n - 1), |_| loop {
        let pos = cursor.fetch_add(1, Ordering::SeqCst);
        if pos >= n {
            break;
        }
        let i = visit[pos];
        let best = f64::from_bits(incumbent.load(Ordering::Acquire));
        if bounds[i].total_cmp(&best) == std::cmp::Ordering::Greater {
            // Every later position is prunable too: its cheap bound is at
            // least this one's, and the incumbent only decreases. Forward
            // the cursor so idle workers retire immediately. (A worker
            // that claimed a position just before this store still prunes
            // it on its own check — same monotonicity.)
            cursor.store(n, Ordering::SeqCst);
            break;
        }
        let best = f64::from_bits(incumbent.load(Ordering::Acquire));
        if timing.bound(|| tight(i)).total_cmp(&best) == std::cmp::Ordering::Greater {
            tight_pruned.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        let c = timing.cost(|| cost(i));
        cas_min_f64(&incumbent, c);
        evaluated
            .lock()
            .expect("a worker panicked while recording a cost")
            .push((i, c));
    });
    let mut evaluated = evaluated
        .into_inner()
        .expect("a worker panicked while recording a cost");
    evaluated.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    let stats = PruneStats {
        evaluated: evaluated.len() as u64,
        pruned: (n - evaluated.len()) as u64,
        tight_pruned: tight_pruned.load(Ordering::Relaxed),
    };
    let ranked: Vec<(OrderCharacterization, f64)> = evaluated
        .into_iter()
        .map(|(i, c)| (reps[i].clone(), c))
        .collect();
    PrunedRanking {
        best: ranked[0].clone(),
        ranked,
        stats,
    }
}

fn emit_prune_telemetry(stats: PruneStats, timing: &SearchTiming) {
    use std::sync::atomic::Ordering;
    if crate::telemetry::enabled() {
        crate::telemetry::counter_add("core.order_search.bound.evaluated", stats.evaluated);
        crate::telemetry::counter_add("core.order_search.bound.pruned", stats.pruned);
        crate::telemetry::counter_add("core.order_search.bound.tight_pruned", stats.tight_pruned);
        crate::telemetry::counter_add(
            "core.order_search.bound.bound_ns",
            timing.bound_ns.load(Ordering::Relaxed),
        );
        crate::telemetry::counter_add(
            "core.order_search.bound.cost_ns",
            timing.cost_ns.load(Ordering::Relaxed),
        );
    }
}

/// Branch-and-bound variant of [`rank_orders_by`] with the two-stage
/// **bound ladder** and per-candidate preparation (DESIGN.md §7e, §7g).
///
/// Per candidate σ, `prepare(σ)` builds an artifact `P` exactly once —
/// typically the collective schedules, the dominant per-candidate cost —
/// and every later stage receives `(σ, &P)` instead of rebuilding it:
///
/// 1. `cheap(σ, &P)` is evaluated for **every** candidate up front (on
///    the worker pool) and orders the frontier — e.g. the aggregate
///    capacity bound;
/// 2. `tight(σ, &P)` runs **lazily**, only for candidates the cheap rung
///    failed to prune — e.g. the per-rail histogram bound, which
///    dominates the aggregate on railed fabrics;
/// 3. `cost(σ, &P)` runs only for candidates both rungs admit.
///
/// A single-bound search is the ladder with a unit `prepare` and a
/// `|_, _| f64::NEG_INFINITY` tight rung, which never prunes.
///
/// **Both bounds must be admissible** (`cheap(σ) ≤ cost(σ)` and
/// `tight(σ) ≤ cost(σ)` pointwise, e.g. `mre-simnet`'s
/// `schedule_lower_bound` of the schedule `cost` prices). Under that
/// contract the returned [`PrunedRanking::best`] is byte-identical to the
/// exhaustive `rank_orders_by(...)[0]` **in every thread interleaving**;
/// a non-admissible bound can prune the true optimum. `tight` need not
/// dominate `cheap` for correctness — only for the second rung to ever
/// pay off. The evaluated/pruned *split* can vary with scheduling (never
/// the total); `MRE_PAR_THREADS=1` pins it. [`PruneStats::tight_pruned`]
/// counts the second rung's wins; the
/// `core.order_search.bound.{bound_ns,cost_ns}` telemetry counters expose
/// the ladder-vs-cost time split.
///
/// ```
/// use mre_core::{Hierarchy, order_search::{rank_orders_by, rank_orders_pruned_ladder}};
/// let h = Hierarchy::new(vec![4, 2, 8]).unwrap();
/// let cost = |sigma: &mre_core::Permutation| sigma.apply(0) as f64 + 1.0;
/// let pruned = rank_orders_pruned_ladder(
///     &h,
///     8,
///     |_| (),
///     |sigma, _| cost(sigma) * 0.5,
///     |_, _| f64::NEG_INFINITY,
///     |sigma, _| cost(sigma),
/// )
/// .unwrap();
/// assert_eq!(pruned.best, rank_orders_by(&h, 8, cost).unwrap()[0]);
/// ```
pub fn rank_orders_pruned_ladder<P, Prep, B1, B2, F>(
    h: &Hierarchy,
    subcomm_size: usize,
    prepare: Prep,
    cheap: B1,
    tight: B2,
    cost: F,
) -> Result<PrunedRanking, Error>
where
    P: Send + Sync,
    Prep: Fn(&Permutation) -> P + Sync,
    B1: Fn(&Permutation, &P) -> f64 + Sync,
    B2: Fn(&Permutation, &P) -> f64 + Sync,
    F: Fn(&Permutation, &P) -> f64 + Sync,
{
    let reps = representatives(h, subcomm_size)?;
    let timing = SearchTiming::default();
    let (prepared, bounds): (Vec<P>, Vec<f64>) = par::map(&reps, |_, c| {
        timing.bound(|| {
            let p = prepare(&c.order);
            let b = cheap(&c.order, &p);
            (p, b)
        })
    })
    .into_iter()
    .unzip();
    let ranking = branch_and_bound(
        &reps,
        &bounds,
        &timing,
        &|i| tight(&reps[i].order, &prepared[i]),
        &|i| cost(&reps[i].order, &prepared[i]),
    );
    emit_prune_telemetry(ranking.stats, &timing);
    Ok(ranking)
}

/// The grid a [`sweep`] evaluates: every representative order of each
/// subcommunicator size, at every payload size.
///
/// **Invariant:** duplicate values within an axis denote the *same* grid
/// cell — the sweep evaluates each distinct `(subcomm_size, payload)`
/// pair exactly once and clones the resulting cell into every spec
/// position that names it, so the output shape always matches
/// `subcomm_sizes.len() × payload_sizes.len()` but the work done matches
/// the deduplicated grid.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Subcommunicator sizes (each must divide the machine size).
    pub subcomm_sizes: Vec<usize>,
    /// Total payload sizes in bytes (the figure sweeps' x-axis).
    pub payload_sizes: Vec<u64>,
}

/// First-occurrence deduplication of a grid axis: the unique values in
/// order of first appearance, plus for each spec position the index of
/// its value in the unique list.
fn dedup_axis<T: Copy + Eq + std::hash::Hash>(values: &[T]) -> (Vec<T>, Vec<usize>) {
    let mut unique: Vec<T> = Vec::new();
    let mut index: std::collections::HashMap<T, usize> = std::collections::HashMap::new();
    let mut positions = Vec::with_capacity(values.len());
    for &v in values {
        let i = *index.entry(v).or_insert_with(|| {
            unique.push(v);
            unique.len() - 1
        });
        positions.push(i);
    }
    (unique, positions)
}

/// Expands the cells of a deduplicated grid (sizes outer, `payloads`
/// distinct payloads inner) back to spec order: duplicate spec positions
/// clone their cell.
fn expand_to_spec<T: Clone>(
    unique_cells: &[T],
    size_pos: &[usize],
    payload_pos: &[usize],
    payloads: usize,
) -> Vec<T> {
    let mut cells = Vec::with_capacity(size_pos.len() * payload_pos.len());
    for &si in size_pos {
        for &pi in payload_pos {
            cells.push(unique_cells[si * payloads + pi].clone());
        }
    }
    cells
}

/// One (subcommunicator size, payload size) cell of a sweep: the
/// representative orders ranked best-first by the evaluated cost.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Processes per subcommunicator for this cell.
    pub subcomm_size: usize,
    /// Payload size (bytes) for this cell.
    pub payload: u64,
    /// `(characterization, cost)` pairs, lowest cost first; ties keep the
    /// representatives' deterministic enumeration order.
    pub ranked: Vec<(OrderCharacterization, f64)>,
}

/// Evaluates `cost(order, subcomm_size, payload)` over the whole
/// (order × subcommunicator size × payload size) grid on the worker pool
/// and returns one ranked [`SweepCell`] per grid cell, in `spec` order
/// (subcommunicator sizes outer, payloads inner).
///
/// Representatives are computed once per *distinct* subcommunicator size
/// and duplicate grid cells are evaluated once (see [`SweepSpec`]); all
/// cost evaluations across all distinct cells form a single flat work
/// list, so a few expensive cells (large payloads, spread orders) still
/// load-balance across workers. Results are deterministic for the same
/// reasons as [`rank_orders_by_par`].
///
/// ```
/// use mre_core::{Hierarchy, order_search::{sweep, SweepSpec}};
/// let h = Hierarchy::new(vec![4, 2, 8]).unwrap();
/// let spec = SweepSpec { subcomm_sizes: vec![8, 16], payload_sizes: vec![1 << 14, 1 << 20] };
/// // A toy cost: spread orders pay per byte, packed ones less.
/// let cells = sweep(&h, &spec, |sigma, s, bytes| {
///     (sigma.apply(0) as f64 + 1.0) * s as f64 * bytes as f64
/// }).unwrap();
/// assert_eq!(cells.len(), 4);
/// assert!(cells.iter().all(|c| c.ranked.windows(2).all(|w| w[0].1 <= w[1].1)));
/// ```
pub fn sweep<F>(h: &Hierarchy, spec: &SweepSpec, cost: F) -> Result<Vec<SweepCell>, Error>
where
    F: Fn(&Permutation, usize, u64) -> f64 + Sync,
{
    let (sizes, size_pos) = dedup_axis(&spec.subcomm_sizes);
    let (payloads, payload_pos) = dedup_axis(&spec.payload_sizes);
    // Representatives once per distinct subcommunicator size (parallel
    // inside).
    let reps_per_size: Vec<Vec<OrderCharacterization>> = sizes
        .iter()
        .map(|&s| representatives(h, s))
        .collect::<Result<_, _>>()?;
    // One flat work list over the deduplicated grid, as
    // (size, rep, payload) index triples.
    let mut work: Vec<(usize, usize, usize)> = Vec::new();
    for (si, reps) in reps_per_size.iter().enumerate() {
        for ri in 0..reps.len() {
            for pi in 0..payloads.len() {
                work.push((si, ri, pi));
            }
        }
    }
    let costs = par::map(&work, |_, &(si, ri, pi)| {
        cost(&reps_per_size[si][ri].order, sizes[si], payloads[pi])
    });
    // Regroup the flat results into ranked cells of the deduplicated grid.
    let mut unique_cells: Vec<SweepCell> = Vec::with_capacity(sizes.len() * payloads.len());
    for &subcomm_size in &sizes {
        for &payload in &payloads {
            unique_cells.push(SweepCell {
                subcomm_size,
                payload,
                ranked: Vec::new(),
            });
        }
    }
    for (&(si, ri, pi), cost_value) in work.iter().zip(costs) {
        unique_cells[si * payloads.len() + pi]
            .ranked
            .push((reps_per_size[si][ri].clone(), cost_value));
    }
    for cell in &mut unique_cells {
        cell.ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
    }
    Ok(expand_to_spec(
        &unique_cells,
        &size_pos,
        &payload_pos,
        payloads.len(),
    ))
}

/// One cell of a [`sweep_pruned_axis`]: the provably-best order plus the
/// evaluated subset and prune counters.
#[derive(Debug, Clone)]
pub struct PrunedSweepCell {
    /// Processes per subcommunicator for this cell.
    pub subcomm_size: usize,
    /// Payload size (bytes) for this cell.
    pub payload: u64,
    /// The best `(characterization, cost)` — byte-identical to the
    /// corresponding exhaustive [`SweepCell`]'s `ranked[0]` when the
    /// bounds are admissible.
    pub best: (OrderCharacterization, f64),
    /// The evaluated candidates, lowest cost first (pruned candidates
    /// are absent).
    pub ranked: Vec<(OrderCharacterization, f64)>,
    /// Evaluated/pruned counters for this cell.
    pub stats: PruneStats,
}

/// Branch-and-bound variant of [`sweep`]: [`rank_orders_pruned_ladder`]
/// over every distinct grid cell, with the per-candidate preparation
/// hoisted out of the payload axis — `prepare(σ, subcomm_size)` runs
/// exactly **once per (subcommunicator size, candidate)**, not once per
/// (candidate, payload), and every payload cell of that size receives the
/// same `&P`.
///
/// This is the engine behind symbolic payload sweeps (DESIGN.md §7h): the
/// artifact `P` captures everything payload-independent about a candidate
/// — typically its schedule structure and solved contention profiles as a
/// piecewise-linear function of payload bytes — so an axis of `m` payload
/// points pays the expensive preparation once instead of `m` times, and
/// each cell's bound/cost evaluations are cheap per-payload lookups or
/// replays against `&P`. A single-bound grid is a unit `prepare` plus a
/// `|..| f64::NEG_INFINITY` tight rung; a grid whose preparation depends
/// on the payload is one [`rank_orders_pruned_ladder`] call per cell.
///
/// The admissibility contract and winner guarantee are exactly
/// [`rank_orders_pruned_ladder`]'s: both rungs admissible pointwise (now
/// also in `payload`) ⇒ every cell's [`PrunedSweepCell::best`] is
/// byte-identical to the exhaustive [`sweep`]'s, in every thread
/// interleaving. Distinct cells run in sequence; *within* each cell the
/// frontier is drained by the worker pool. The
/// `core.order_search.bound.*` telemetry counters are aggregated over all
/// distinct cells.
pub fn sweep_pruned_axis<P, Prep, B1, B2, F>(
    h: &Hierarchy,
    spec: &SweepSpec,
    prepare: Prep,
    cheap: B1,
    tight: B2,
    cost: F,
) -> Result<Vec<PrunedSweepCell>, Error>
where
    P: Send + Sync,
    Prep: Fn(&Permutation, usize) -> P + Sync,
    B1: Fn(&Permutation, usize, u64, &P) -> f64 + Sync,
    B2: Fn(&Permutation, usize, u64, &P) -> f64 + Sync,
    F: Fn(&Permutation, usize, u64, &P) -> f64 + Sync,
{
    let (sizes, size_pos) = dedup_axis(&spec.subcomm_sizes);
    let (payloads, payload_pos) = dedup_axis(&spec.payload_sizes);
    let reps_per_size: Vec<Vec<OrderCharacterization>> = sizes
        .iter()
        .map(|&s| representatives(h, s))
        .collect::<Result<_, _>>()?;
    let timing = SearchTiming::default();
    let mut unique_cells: Vec<PrunedSweepCell> = Vec::with_capacity(sizes.len() * payloads.len());
    // Cells run in sequence — the worker pool drains each cell's frontier,
    // so nesting a second fan-out across cells would only oversubscribe.
    for (reps, &subcomm_size) in reps_per_size.iter().zip(&sizes) {
        // The payload-independent prepare — once per candidate, shared by
        // every payload cell of this subcommunicator size.
        let prepared: Vec<P> = par::map(reps, |_, c| {
            timing.bound(|| prepare(&c.order, subcomm_size))
        });
        for &payload in &payloads {
            let bounds: Vec<f64> = par::map(reps, |i, c| {
                timing.bound(|| cheap(&c.order, subcomm_size, payload, &prepared[i]))
            });
            let PrunedRanking {
                best,
                ranked,
                stats,
            } = branch_and_bound(
                reps,
                &bounds,
                &timing,
                &|i| tight(&reps[i].order, subcomm_size, payload, &prepared[i]),
                &|i| cost(&reps[i].order, subcomm_size, payload, &prepared[i]),
            );
            unique_cells.push(PrunedSweepCell {
                subcomm_size,
                payload,
                best,
                ranked,
                stats,
            });
        }
    }
    let total = unique_cells
        .iter()
        .fold(PruneStats::default(), |acc, c| acc.merge(c.stats));
    emit_prune_telemetry(total, &timing);
    Ok(expand_to_spec(
        &unique_cells,
        &size_pos,
        &payload_pos,
        payloads.len(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hydra() -> Hierarchy {
        Hierarchy::new(vec![16, 2, 2, 8]).unwrap()
    }

    fn sig(order: &[usize]) -> Permutation {
        Permutation::new(order.to_vec()).unwrap()
    }

    #[test]
    fn spreadness_extremes() {
        let h = hydra();
        // Fully spread: all pairs cross nodes → 1.0 exactly? Entry k−1 =
        // 100 % → mean level = k−1 → score 1.
        let s = spreadness(&h, &sig(&[0, 1, 2, 3]), 16).unwrap();
        assert!((s - 1.0).abs() < 1e-12);
        // Packed socket: pairs at levels 0 and 1 only → score well below
        // 0.5.
        let p = spreadness(&h, &sig(&[3, 2, 1, 0]), 16).unwrap();
        assert!(p < 0.25, "packed score {p}");
        assert!(s > p);
    }

    #[test]
    fn spreadness_orders_the_figure3_legend() {
        // The Fig. 3 legend is sorted from most spread to most packed.
        let h = hydra();
        let legend: [&[usize]; 4] = [&[0, 1, 2, 3], &[2, 1, 0, 3], &[1, 3, 0, 2], &[3, 2, 1, 0]];
        let scores: Vec<f64> = legend
            .iter()
            .map(|o| spreadness(&h, &sig(o), 16).unwrap())
            .collect();
        for pair in scores.windows(2) {
            assert!(pair[0] >= pair[1], "scores must decrease: {scores:?}");
        }
    }

    #[test]
    fn representatives_pick_lowest_ring_cost() {
        let h = hydra();
        let reps = representatives(&h, 16).unwrap();
        // No two representatives share a mapping signature, and each has
        // the minimum ring cost of its class: e.g. the class of
        // {[1,3,0,2], [3,1,0,2], …} must be represented by ring cost 16
        // or 17, not 45.
        for rep in &reps {
            if rep.percentages[0] > 40.0 && rep.percentages[2] > 50.0 {
                assert!(
                    rep.ring_cost <= 17,
                    "class rep {} rc {}",
                    rep.order,
                    rep.ring_cost
                );
            }
        }
        let total_orders = 24;
        assert!(reps.len() < total_orders);
    }

    #[test]
    fn rank_orders_by_sorts_by_cost() {
        let h = hydra();
        // Cost = ring cost (as a stand-in for a simulated duration).
        let ranked = rank_orders_by(&h, 16, |sigma| {
            characterize_order(&h, sigma, 16).unwrap().ring_cost as f64
        })
        .unwrap();
        for pair in ranked.windows(2) {
            assert!(pair[0].1 <= pair[1].1);
        }
        // The best-ranked representative has the globally smallest ring
        // cost among representatives.
        assert_eq!(ranked[0].1, ranked[0].0.ring_cost as f64);
    }

    #[test]
    fn parallel_ranking_is_byte_identical_to_serial() {
        let h = hydra();
        // A cost with deliberate ties (spreadness buckets) so the stable
        // tie-break is exercised, not just the values.
        let cost = |sigma: &Permutation| (spreadness(&h, sigma, 16).unwrap() * 4.0).round();
        let serial = rank_orders_by(&h, 16, cost).unwrap();
        let parallel = rank_orders_by_par(&h, 16, cost).unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.0, p.0);
            assert_eq!(s.1.to_bits(), p.1.to_bits());
        }
    }

    #[test]
    fn sweep_covers_grid_and_ranks_cells() {
        let h = hydra();
        let spec = SweepSpec {
            subcomm_sizes: vec![16, 64],
            payload_sizes: vec![1 << 14, 1 << 20, 1 << 26],
        };
        let cells = sweep(&h, &spec, |sigma, s, bytes| {
            spreadness(&h, sigma, s).unwrap() * bytes as f64
        })
        .unwrap();
        assert_eq!(cells.len(), 6);
        // Cells come in spec order and each holds all representatives of
        // its subcommunicator size, sorted by cost.
        let mut i = 0;
        for &s in &spec.subcomm_sizes {
            let n_reps = representatives(&h, s).unwrap().len();
            for &p in &spec.payload_sizes {
                assert_eq!(cells[i].subcomm_size, s);
                assert_eq!(cells[i].payload, p);
                assert_eq!(cells[i].ranked.len(), n_reps);
                for pair in cells[i].ranked.windows(2) {
                    assert!(pair[0].1 <= pair[1].1);
                }
                i += 1;
            }
        }
    }

    #[test]
    fn sweep_matches_pointwise_ranking() {
        let h = hydra();
        let spec = SweepSpec {
            subcomm_sizes: vec![16],
            payload_sizes: vec![1 << 20],
        };
        let cost_of =
            |sigma: &Permutation| characterize_order(&h, sigma, 16).unwrap().ring_cost as f64;
        let cells = sweep(&h, &spec, |sigma, _, _| cost_of(sigma)).unwrap();
        let direct = rank_orders_by(&h, 16, cost_of).unwrap();
        assert_eq!(cells[0].ranked, direct);
    }

    #[test]
    fn sweep_dedups_duplicate_axes() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let h = hydra();
        let evals = AtomicU64::new(0);
        let cost = |sigma: &Permutation, s: usize, bytes: u64| {
            evals.fetch_add(1, Ordering::Relaxed);
            spreadness(&h, sigma, s).unwrap() * bytes as f64
        };
        let spec = SweepSpec {
            subcomm_sizes: vec![16, 16, 64],
            payload_sizes: vec![1 << 14, 1 << 14],
        };
        let cells = sweep(&h, &spec, cost).unwrap();
        // Output shape still matches the spec…
        assert_eq!(cells.len(), 6);
        assert_eq!(cells[0].subcomm_size, 16);
        assert_eq!(cells[5].subcomm_size, 64);
        // …duplicate positions are byte-identical clones…
        assert_eq!(cells[0].ranked, cells[1].ranked);
        assert_eq!(cells[0].ranked, cells[2].ranked);
        assert_eq!(cells[4].ranked, cells[5].ranked);
        // …and the work done matches the deduplicated 2×1 grid.
        let n16 = representatives(&h, 16).unwrap().len() as u64;
        let n64 = representatives(&h, 64).unwrap().len() as u64;
        assert_eq!(evals.load(Ordering::Relaxed), n16 + n64);
    }

    /// A cost with a matching admissible bound for branch-and-bound tests:
    /// cost = ring cost scaled by payload, bound = half of it (admissible
    /// but informative enough to prune).
    fn bb_cost(h: &Hierarchy) -> impl Fn(&Permutation, usize, u64) -> f64 + Sync + '_ {
        |sigma, s, bytes| {
            characterize_order(h, sigma, s).unwrap().ring_cost as f64 * (1.0 + bytes as f64)
        }
    }

    /// A single-bound ranking: the ladder with a unit `prepare` and a
    /// tight rung that never prunes.
    fn single_bound_ranking(
        h: &Hierarchy,
        s: usize,
        bound: impl Fn(&Permutation) -> f64 + Sync,
        cost: impl Fn(&Permutation) -> f64 + Sync,
    ) -> PrunedRanking {
        rank_orders_pruned_ladder(
            h,
            s,
            |_| (),
            |sigma, _| bound(sigma),
            |_, _| f64::NEG_INFINITY,
            |sigma, _| cost(sigma),
        )
        .unwrap()
    }

    /// A single-bound grid: the axis sweep with a unit `prepare` and a
    /// tight rung that never prunes.
    fn single_bound_sweep(
        h: &Hierarchy,
        spec: &SweepSpec,
        bound: impl Fn(&Permutation, usize, u64) -> f64 + Sync,
        cost: impl Fn(&Permutation, usize, u64) -> f64 + Sync,
    ) -> Vec<PrunedSweepCell> {
        sweep_pruned_axis(
            h,
            spec,
            |_, _| (),
            |sigma, s, b, _| bound(sigma, s, b),
            |_, _, _, _| f64::NEG_INFINITY,
            |sigma, s, b, _| cost(sigma, s, b),
        )
        .unwrap()
    }

    #[test]
    fn pruned_ranking_matches_exhaustive_best_and_prunes() {
        let h = hydra();
        let cost = bb_cost(&h);
        let result = single_bound_ranking(
            &h,
            16,
            |sigma| cost(sigma, 16, 1024) * 0.5,
            |sigma| cost(sigma, 16, 1024),
        );
        let exhaustive = rank_orders_by(&h, 16, |sigma| cost(sigma, 16, 1024)).unwrap();
        assert_eq!(result.best.0, exhaustive[0].0);
        assert_eq!(result.best.1.to_bits(), exhaustive[0].1.to_bits());
        assert_eq!(result.best, result.ranked[0].clone());
        assert!(result.stats.pruned > 0, "stats {:?}", result.stats);
        assert_eq!(result.stats.tight_pruned, 0);
        assert_eq!(
            result.stats.candidates(),
            representatives(&h, 16).unwrap().len() as u64
        );
        // Evaluated subset is ranked best-first.
        for pair in result.ranked.windows(2) {
            assert!(pair[0].1 <= pair[1].1);
        }
    }

    #[test]
    fn pruned_sweep_best_is_byte_identical_to_exhaustive() {
        let h = hydra();
        let cost = bb_cost(&h);
        let spec = SweepSpec {
            subcomm_sizes: vec![16, 64],
            payload_sizes: vec![1 << 10, 1 << 20],
        };
        let exhaustive = sweep(&h, &spec, &cost).unwrap();
        let pruned = single_bound_sweep(&h, &spec, |sigma, s, b| cost(sigma, s, b) * 0.5, &cost);
        assert_eq!(exhaustive.len(), pruned.len());
        let mut total_pruned = 0;
        for (e, p) in exhaustive.iter().zip(&pruned) {
            assert_eq!(e.subcomm_size, p.subcomm_size);
            assert_eq!(e.payload, p.payload);
            assert_eq!(e.ranked[0].0, p.best.0);
            assert_eq!(e.ranked[0].1.to_bits(), p.best.1.to_bits());
            total_pruned += p.stats.pruned;
        }
        assert!(total_pruned > 0);
    }

    #[test]
    fn pruned_ranking_matches_exhaustive_across_payloads() {
        let h = hydra();
        let cost = bb_cost(&h);
        let n = representatives(&h, 16).unwrap().len() as u64;
        for payload in [1u64, 1024, 1 << 20] {
            let exhaustive = rank_orders_by(&h, 16, |sigma| cost(sigma, 16, payload)).unwrap();
            let pruned = single_bound_ranking(
                &h,
                16,
                |sigma| cost(sigma, 16, payload) * 0.5,
                |sigma| cost(sigma, 16, payload),
            );
            assert_eq!(exhaustive[0].0, pruned.best.0, "winner order must agree");
            assert_eq!(exhaustive[0].1.to_bits(), pruned.best.1.to_bits());
            assert_eq!(pruned.stats.candidates(), n);
        }
    }

    #[test]
    fn ladder_pins_exact_counts_on_two_candidates() {
        // [2, 4] with subcommunicators of 2 has exactly two mapping
        // classes, so the engine runs its one-worker inline path and
        // every counter is exact. Per candidate the prepared artifact is
        // `(cheap, tight, cost)`; candidate 0 (the bound-minimal seed)
        // costs 2.
        let h = Hierarchy::new(vec![2, 4]).unwrap();
        let reps = representatives(&h, 2).unwrap();
        assert_eq!(reps.len(), 2);
        let run = |second: (f64, f64, f64)| {
            let table = [(1.0, 1.0, 2.0), second];
            rank_orders_pruned_ladder(
                &h,
                2,
                |sigma| table[reps.iter().position(|r| &r.order == sigma).unwrap()],
                |_, p| p.0,
                |_, p| p.1,
                |_, p| p.2,
            )
            .unwrap()
        };
        let stats = |evaluated, pruned, tight_pruned| PruneStats {
            evaluated,
            pruned,
            tight_pruned,
        };
        // The cheap rung strictly exceeds the incumbent: pruned unseen.
        let cheap = run((3.0, 3.0, 5.0));
        assert_eq!(cheap.stats, stats(1, 1, 0));
        assert_eq!(cheap.best.0, reps[0]);
        // The cheap rung admits it, the tight rung rejects it.
        let tight = run((1.5, 2.5, 5.0));
        assert_eq!(tight.stats, stats(1, 1, 1));
        // A bound equal to the incumbent is not a proof: it is costed,
        // and wins the tie only with a smaller enumeration index.
        let tie = run((1.5, 2.0, 2.0));
        assert_eq!(tie.stats, stats(2, 0, 0));
        assert_eq!(tie.best.0, reps[0]);
        // A better second candidate replaces the seed.
        let better = run((1.5, 1.5, 1.5));
        assert_eq!(better.stats, stats(2, 0, 0));
        assert_eq!(better.best.0, reps[1]);
        assert_eq!(better.best.1, 1.5);
        assert_eq!(better.ranked.len(), 2);
    }

    #[test]
    fn ladder_matches_exhaustive_and_prunes_on_the_tight_rung() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let h = hydra();
        let cost = bb_cost(&h);
        let prepares = AtomicU64::new(0);
        // prepare carries the exact cost; cheap is a weak admissible bound,
        // tight is the exact cost itself (the tightest admissible bound),
        // so every candidate the cheap rung admits but the incumbent beats
        // is pruned by the tight rung, never costed.
        let result = rank_orders_pruned_ladder(
            &h,
            16,
            |sigma| {
                prepares.fetch_add(1, Ordering::Relaxed);
                cost(sigma, 16, 1024)
            },
            |_, &exact: &f64| exact * 0.4,
            |_, &exact: &f64| exact,
            |_, &exact: &f64| exact,
        )
        .unwrap();
        let exhaustive = rank_orders_by(&h, 16, |sigma| cost(sigma, 16, 1024)).unwrap();
        assert_eq!(result.best.0, exhaustive[0].0);
        assert_eq!(result.best.1.to_bits(), exhaustive[0].1.to_bits());
        let n = representatives(&h, 16).unwrap().len() as u64;
        // prepare ran exactly once per candidate, pruned or not.
        assert_eq!(prepares.load(Ordering::Relaxed), n);
        assert_eq!(result.stats.candidates(), n);
        assert!(
            result.stats.tight_pruned > 0,
            "the exact tight rung must catch cheap-rung survivors: {:?}",
            result.stats
        );
        assert!(result.stats.tight_pruned <= result.stats.pruned);
    }

    #[test]
    fn per_cell_ladder_matches_exhaustive_grid() {
        // A grid whose preparation depends on the payload: one ladder call
        // per (size, payload) cell.
        let h = hydra();
        let cost = bb_cost(&h);
        let spec = SweepSpec {
            subcomm_sizes: vec![16, 64],
            payload_sizes: vec![1 << 10, 1 << 20],
        };
        let exhaustive = sweep(&h, &spec, &cost).unwrap();
        let mut cells = exhaustive.iter();
        for &s in &spec.subcomm_sizes {
            for &b in &spec.payload_sizes {
                let ladder = rank_orders_pruned_ladder(
                    &h,
                    s,
                    |sigma| cost(sigma, s, b),
                    |_, &exact: &f64| exact * 0.5,
                    |_, &exact: &f64| exact * 0.9,
                    |_, &exact: &f64| exact,
                )
                .unwrap();
                let e = cells.next().unwrap();
                assert_eq!((e.subcomm_size, e.payload), (s, b));
                assert_eq!(e.ranked[0].0, ladder.best.0);
                assert_eq!(e.ranked[0].1.to_bits(), ladder.best.1.to_bits());
            }
        }
    }

    #[test]
    fn sweep_pruned_axis_matches_exhaustive_and_hoists_prepare() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let h = hydra();
        let cost = bb_cost(&h);
        let spec = SweepSpec {
            subcomm_sizes: vec![16, 64],
            payload_sizes: vec![1 << 10, 1 << 14, 1 << 20],
        };
        let exhaustive = sweep(&h, &spec, &cost).unwrap();
        let prepares = AtomicU64::new(0);
        // P captures the payload-independent factor of the toy cost
        // (`bb_cost` = ring_cost · (1 + bytes)); the per-cell closures
        // reconstruct cost(σ, s, payload) from it with the exact same
        // arithmetic, so winners must be bit-identical.
        let axis = sweep_pruned_axis(
            &h,
            &spec,
            |sigma: &Permutation, s| {
                prepares.fetch_add(1, Ordering::Relaxed);
                characterize_order(&h, sigma, s).unwrap().ring_cost as f64
            },
            |_, _, b, &r: &f64| r * (1.0 + b as f64) * 0.5,
            |_, _, b, &r: &f64| r * (1.0 + b as f64) * 0.9,
            |_, _, b, &r: &f64| r * (1.0 + b as f64),
        )
        .unwrap();
        assert_eq!(exhaustive.len(), axis.len());
        for (e, a) in exhaustive.iter().zip(&axis) {
            assert_eq!(e.subcomm_size, a.subcomm_size);
            assert_eq!(e.payload, a.payload);
            assert_eq!(e.ranked[0].0, a.best.0);
            assert_eq!(
                e.ranked[0].1.to_bits(),
                a.best.1.to_bits(),
                "axis sweep winner cost drifted at ({}, {})",
                e.subcomm_size,
                e.payload
            );
        }
        let n: u64 = [16usize, 64]
            .iter()
            .map(|&s| representatives(&h, s).unwrap().len() as u64)
            .sum();
        // prepare ran once per (size, candidate) — NOT once per payload.
        assert_eq!(prepares.load(Ordering::Relaxed), n);
    }

    #[test]
    fn one_payload_axis_sweep_equals_the_ladder() {
        // cheap = cost / 2 orders the frontier exactly by cost, so the
        // serial seed is already the global optimum and every later
        // decision is taken against a fixed incumbent: the split is the
        // same in every interleaving and must match between the entry
        // points.
        let h = hydra();
        let cost = bb_cost(&h);
        let payload = 1 << 12;
        let spec = SweepSpec {
            subcomm_sizes: vec![16],
            payload_sizes: vec![payload],
        };
        let axis = sweep_pruned_axis(
            &h,
            &spec,
            |_, _| (),
            |sigma, s, b, _| cost(sigma, s, b) * 0.5,
            |sigma, s, b, _| cost(sigma, s, b),
            |sigma, s, b, _| cost(sigma, s, b),
        )
        .unwrap();
        let ladder = rank_orders_pruned_ladder(
            &h,
            16,
            |_| (),
            |sigma, _| cost(sigma, 16, payload) * 0.5,
            |sigma, _| cost(sigma, 16, payload),
            |sigma, _| cost(sigma, 16, payload),
        )
        .unwrap();
        assert_eq!(axis.len(), 1);
        assert_eq!(axis[0].best.0, ladder.best.0);
        assert_eq!(axis[0].best.1.to_bits(), ladder.best.1.to_bits());
        assert_eq!(axis[0].stats, ladder.stats);
        assert!(ladder.stats.tight_pruned > 0, "{:?}", ladder.stats);
    }

    #[test]
    fn pruned_sweep_survives_ties_and_exact_bounds() {
        // A bound equal to the cost (the tightest admissible bound) plus a
        // cost with massive ties is the adversarial case for strict-vs-
        // non-strict pruning: the winner must still be the first minimal
        // candidate in enumeration order.
        let h = hydra();
        let tied = |sigma: &Permutation, s: usize, _: u64| {
            (spreadness(&h, sigma, s).unwrap() * 2.0).round()
        };
        let spec = SweepSpec {
            subcomm_sizes: vec![16],
            payload_sizes: vec![1],
        };
        let exhaustive = sweep(&h, &spec, tied).unwrap();
        let pruned = single_bound_sweep(&h, &spec, tied, tied);
        assert_eq!(exhaustive[0].ranked[0].0, pruned[0].best.0);
        assert_eq!(
            exhaustive[0].ranked[0].1.to_bits(),
            pruned[0].best.1.to_bits()
        );
    }
}
