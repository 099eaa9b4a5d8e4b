//! Helpers shared by the pruned-search benches.

use mre_core::order_search::{rank_orders_pruned_ladder, PrunedSweepCell, SweepSpec};
use mre_core::{Hierarchy, Permutation};

/// A pruned grid whose per-candidate preparation depends on the payload:
/// one [`rank_orders_pruned_ladder`] call per (subcommunicator size,
/// payload) cell of `spec`, cells in spec order (sizes outer). Each cell
/// prepares every candidate afresh, so nothing is shared across payloads
/// — the per-payload baseline that `sweep_pruned_axis` improves on.
pub fn ladder_grid<P, Prep, B1, B2, F>(
    machine: &Hierarchy,
    spec: &SweepSpec,
    prepare: Prep,
    cheap: B1,
    tight: B2,
    cost: F,
) -> Vec<PrunedSweepCell>
where
    P: Send + Sync,
    Prep: Fn(&Permutation, usize, u64) -> P + Sync,
    B1: Fn(&Permutation, usize, u64, &P) -> f64 + Sync,
    B2: Fn(&Permutation, usize, u64, &P) -> f64 + Sync,
    F: Fn(&Permutation, usize, u64, &P) -> f64 + Sync,
{
    let mut cells = Vec::with_capacity(spec.subcomm_sizes.len() * spec.payload_sizes.len());
    for &s in &spec.subcomm_sizes {
        for &payload in &spec.payload_sizes {
            let ranking = rank_orders_pruned_ladder(
                machine,
                s,
                |sigma| prepare(sigma, s, payload),
                |sigma, p| cheap(sigma, s, payload, p),
                |sigma, p| tight(sigma, s, payload, p),
                |sigma, p| cost(sigma, s, payload, p),
            )
            .expect("valid spec");
            cells.push(PrunedSweepCell {
                subcomm_size: s,
                payload,
                best: ranking.best,
                ranked: ranking.ranked,
                stats: ranking.stats,
            });
        }
    }
    cells
}
