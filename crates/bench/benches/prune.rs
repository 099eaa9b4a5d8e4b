//! Bound-ladder benchmarks: the old pruned sweep vs the two-stage ladder
//! on the 1/2/4-rail Hydra grid.
//!
//! **Before** is the pruned path as it stood before the ladder: the
//! serial incumbent loop with a single aggregate capacity bound, where
//! the bound closure and the cost closure each rebuild the candidate's
//! schedules from scratch; the loop is bench-local ([`before_cell`]),
//! as the library runs only the ladder engine. **After** is one
//! [`rank_orders_pruned_ladder`](mre_core::order_search::rank_orders_pruned_ladder)
//! call per grid cell: the schedules are prepared exactly once per
//! candidate, the cheap aggregate rung orders the frontier, the per-rail
//! histogram rung lazily re-checks the survivors, and the full contention
//! solves are memoized in a [`SharedCostCache`] shared across the whole
//! rail grid.
//!
//! Acceptance is asserted before any timing, per rail count and grid
//! cell: the ladder's best order and best cost must be byte-identical
//! to both the before-path's and the exhaustive sweep's, the ladder
//! must never cost more candidates than the before-path, and on the
//! multi-rail fabrics the per-rail rung must prune candidates the
//! aggregate bound let through.
//!
//! Numbers land in `BENCH_prune.json` at the repo root — prune counts
//! and wall-clock, before vs after, per rail count.

mod common;

use mre_bench::tinybench::{black_box, Bench, Stats};
use mre_core::order_search::{representatives, sweep, PruneStats, PrunedSweepCell, SweepSpec};
use mre_core::par;
use mre_core::subcomm::{subcommunicators, ColorScheme};
use mre_core::{Hierarchy, OrderCharacterization, Permutation};
use mre_mpi::AlltoallAlg;
use mre_simnet::presets::hydra_network_rails;
use mre_simnet::{
    schedule_lower_bound, schedule_lower_bound_aggregate, NetworkModel, RailPolicy, Schedule,
    SharedCostCache,
};
use mre_workloads::microbench::{Collective, Microbench};

/// 8 Hydra nodes of 32 cores: large enough that schedule construction
/// and contention solves dominate, small enough for a quick bench.
const NODES: usize = 8;

fn spec() -> SweepSpec {
    SweepSpec {
        subcomm_sizes: vec![16, 64],
        payload_sizes: vec![64 << 10, 4 << 20],
    }
}

fn microbench(machine: &Hierarchy, sigma: &Permutation, s: usize, bytes: u64) -> Microbench {
    Microbench {
        machine: machine.clone(),
        order: sigma.clone(),
        subcomm_size: s,
        collective: Collective::Alltoall(AlltoallAlg::Pairwise),
        total_bytes: bytes,
    }
}

/// One candidate's concurrent jobs, rail-striped for `nics` rails.
fn jobs(
    machine: &Hierarchy,
    sigma: &Permutation,
    s: usize,
    bytes: u64,
    nics: usize,
) -> Vec<Schedule> {
    let b = microbench(machine, sigma, s, bytes);
    let layout =
        subcommunicators(machine, sigma, s, ColorScheme::Quotient).expect("valid configuration");
    (0..layout.count())
        .map(|c| b.schedule_for_rails(layout.members(c), nics))
        .collect()
}

/// One cell of the pre-ladder pruned search: visit the candidates in
/// ascending `(bound, enumeration index)` order, keep the best cost seen
/// so far, and stop at the first bound that strictly exceeds it (bounds
/// are sorted, so every later candidate is prunable too). Evaluated
/// candidates are ranked by `(cost, enumeration index)`, the exhaustive
/// sweep's tie-break.
fn before_cell(
    reps: &[OrderCharacterization],
    bound: impl Fn(&Permutation) -> f64,
    cost: impl Fn(&Permutation) -> f64,
) -> (Vec<(OrderCharacterization, f64)>, PruneStats) {
    let bounds: Vec<f64> = reps.iter().map(|c| bound(&c.order)).collect();
    let mut visit: Vec<usize> = (0..reps.len()).collect();
    visit.sort_by(|&a, &b| bounds[a].total_cmp(&bounds[b]).then(a.cmp(&b)));
    let mut evaluated: Vec<(usize, f64)> = Vec::new();
    let mut incumbent: Option<f64> = None;
    for &i in &visit {
        if incumbent.is_some_and(|best| bounds[i].total_cmp(&best).is_gt()) {
            break;
        }
        let c = cost(&reps[i].order);
        incumbent = Some(incumbent.map_or(c, |best| best.min(c)));
        evaluated.push((i, c));
    }
    evaluated.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    let stats = PruneStats {
        evaluated: evaluated.len() as u64,
        pruned: (reps.len() - evaluated.len()) as u64,
        tight_pruned: 0,
    };
    let ranked = evaluated
        .into_iter()
        .map(|(i, c)| (reps[i].clone(), c))
        .collect();
    (ranked, stats)
}

/// The pre-ladder pruned sweep: the grid's cells fan out on the worker
/// pool, each running [`before_cell`] with the aggregate bound and with
/// schedules rebuilt in the bound closure and again in the cost closure.
fn before_sweep(machine: &Hierarchy, net: &NetworkModel, nics: usize) -> Vec<PrunedSweepCell> {
    let spec = spec();
    let mut grid: Vec<(usize, u64, Vec<OrderCharacterization>)> = Vec::new();
    for &s in &spec.subcomm_sizes {
        let reps = representatives(machine, s).expect("valid spec");
        for &bytes in &spec.payload_sizes {
            grid.push((s, bytes, reps.clone()));
        }
    }
    par::map(&grid, |_, (s, bytes, reps)| {
        let (s, bytes) = (*s, *bytes);
        let (ranked, stats) = before_cell(
            reps,
            |sigma| {
                let merged = Schedule::lockstep(&jobs(machine, sigma, s, bytes, nics));
                schedule_lower_bound_aggregate(net, &merged)
            },
            |sigma| {
                microbench(machine, sigma, s, bytes)
                    .run(net)
                    .expect("valid configuration")
                    .simultaneous_duration
            },
        );
        PrunedSweepCell {
            subcomm_size: s,
            payload: bytes,
            best: ranked[0].clone(),
            ranked,
            stats,
        }
    })
}

/// The ladder: prepare once, aggregate rung, per-rail rung, cached cost.
fn after_sweep(
    machine: &Hierarchy,
    net: &NetworkModel,
    nics: usize,
    cache: &SharedCostCache,
) -> Vec<PrunedSweepCell> {
    common::ladder_grid(
        machine,
        &spec(),
        |sigma, s, bytes| Schedule::lockstep(&jobs(machine, sigma, s, bytes, nics)),
        |_, _, _, merged| schedule_lower_bound_aggregate(net, merged),
        |_, _, _, merged| schedule_lower_bound(net, merged),
        |_, _, bytes, merged| cache.time_with(net, merged, bytes, || net.schedule_time(merged)),
    )
}

struct RailOutcome {
    nics: usize,
    before_evaluated: u64,
    before_pruned: u64,
    after_evaluated: u64,
    after_pruned: u64,
    after_tight_pruned: u64,
    before_stats: Option<Stats>,
    after_stats: Option<Stats>,
}

/// Un-timed acceptance: byte-identical winners across all three paths,
/// and the ladder never costing more candidates than the before-path.
fn check_acceptance(
    machine: &Hierarchy,
    net: &NetworkModel,
    nics: usize,
    before: &[PrunedSweepCell],
    after: &[PrunedSweepCell],
) {
    let exhaustive = sweep(machine, &spec(), |sigma, s, bytes| {
        microbench(machine, sigma, s, bytes)
            .run(net)
            .expect("valid configuration")
            .simultaneous_duration
    })
    .expect("valid spec");
    assert_eq!(before.len(), after.len());
    assert_eq!(before.len(), exhaustive.len());
    for ((b, a), e) in before.iter().zip(after).zip(&exhaustive) {
        let (best_c, best_t) = &e.ranked[0];
        assert_eq!(
            best_c.order, b.best.0.order,
            "{nics} rails: before-path winner must match exhaustive"
        );
        assert_eq!(
            best_c.order, a.best.0.order,
            "{nics} rails: ladder winner must match exhaustive"
        );
        assert_eq!(
            best_t.to_bits(),
            b.best.1.to_bits(),
            "{nics} rails: before-path best cost must be byte-identical"
        );
        assert_eq!(
            best_t.to_bits(),
            a.best.1.to_bits(),
            "{nics} rails: ladder best cost must be byte-identical"
        );
        assert!(
            a.stats.evaluated <= b.stats.evaluated,
            "{nics} rails: ladder costed {} > before {} in cell ({}, {})",
            a.stats.evaluated,
            b.stats.evaluated,
            a.subcomm_size,
            a.payload
        );
    }
}

fn totals(cells: &[PrunedSweepCell]) -> (u64, u64, u64) {
    cells.iter().fold((0, 0, 0), |(e, p, t), c| {
        (
            e + c.stats.evaluated,
            p + c.stats.pruned,
            t + c.stats.tight_pruned,
        )
    })
}

fn main() {
    let mut b = Bench::from_env();
    let machine = Hierarchy::new(vec![NODES, 2, 2, 8]).expect("static hierarchy");
    // One cache across the whole rail grid: the model fingerprint keeps
    // the fabrics apart, repeated runs of the same fabric are pure hits.
    let cache = SharedCostCache::new();
    let mut outcomes: Vec<RailOutcome> = Vec::new();

    for nics in [1usize, 2, 4] {
        let net = hydra_network_rails(NODES, nics, RailPolicy::RoundRobin);
        let before = before_sweep(&machine, &net, nics);
        let after = after_sweep(&machine, &net, nics, &cache);
        check_acceptance(&machine, &net, nics, &before, &after);
        let (be, bp, _) = totals(&before);
        let (ae, ap, at) = totals(&after);
        println!(
            "acceptance passed ({nics} rails): before {be} costed / {bp} pruned, \
             ladder {ae} costed / {ap} pruned ({at} by the per-rail rung)"
        );
        // The warm-up above also primed the cache; time the steady state
        // at the same thread count for both paths.
        let before_stats = b.bench(&format!("prune/before/serial+rebuild/{nics}-rails"), || {
            before_sweep(black_box(&machine), &net, nics)
        });
        let after_cache = SharedCostCache::new();
        let after_stats = b.bench(
            &format!("prune/after/ladder+cold-cache/{nics}-rails"),
            || after_sweep(black_box(&machine), &net, nics, &after_cache),
        );
        outcomes.push(RailOutcome {
            nics,
            before_evaluated: be,
            before_pruned: bp,
            after_evaluated: ae,
            after_pruned: ap,
            after_tight_pruned: at,
            before_stats,
            after_stats,
        });
    }

    // Machine-readable record, written to BENCH_prune.json at the root.
    let med = |s: &Option<Stats>| s.as_ref().map_or(f64::NAN, |s| s.median_ns);
    let rails_json: Vec<String> = outcomes
        .iter()
        .map(|o| {
            let before_ns = med(&o.before_stats);
            let after_ns = med(&o.after_stats);
            format!(
                "    {{ \"rails\": {}, \"before\": {{ \"evaluated\": {}, \"pruned\": {}, \
                 \"wall_ns\": {:.1} }}, \"after\": {{ \"evaluated\": {}, \"pruned\": {}, \
                 \"tight_pruned\": {}, \"wall_ns\": {:.1} }}, \"speedup\": {:.3} }}",
                o.nics,
                o.before_evaluated,
                o.before_pruned,
                before_ns,
                o.after_evaluated,
                o.after_pruned,
                o.after_tight_pruned,
                after_ns,
                before_ns / after_ns,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"prune\",\n  \"workload\": {{\n    \"machine\": \
         \"hydra_network_rails({NODES}, rails, round-robin) = [{NODES}, 2, 2, 8] ({} cores)\",\n    \
         \"collective\": \"pairwise alltoall, quotient subcommunicators, lockstep contention\",\n    \
         \"subcomm_sizes\": [16, 64],\n    \"payload_sizes\": [65536, 4194304]\n  }},\n  \
         \"before\": \"serial incumbent loop, aggregate bound, schedules rebuilt in bound and cost\",\n  \
         \"after\": \"parallel best-first ladder: prepare once, aggregate rung, per-rail rung, shared cost cache\",\n  \
         \"rails\": [\n{}\n  ],\n  \"overall_speedup\": {:.3},\n  \
         \"notes\": \"Winners and best costs are asserted byte-identical to the exhaustive sweep \
         for every rail count and grid cell before timing. The per-rail histogram bound dominates \
         the aggregate bound (DESIGN.md 7g), so the ladder never costs more candidates; \
         tight_pruned counts the candidates the aggregate rung admitted and the per-rail rung \
         rejected. Wall-clock is the tinybench median at the machine's default thread count, \
         cold cost cache.\"\n}}\n",
        machine.size(),
        rails_json.join(",\n"),
        outcomes.iter().map(|o| med(&o.before_stats)).sum::<f64>()
            / outcomes.iter().map(|o| med(&o.after_stats)).sum::<f64>(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_prune.json");
    if b.is_quick() {
        println!("\n--quick run: leaving {path} untouched");
    } else {
        std::fs::write(path, &json).expect("write BENCH_prune.json");
        println!("\nwrote {path}");
    }
    for o in &outcomes {
        println!(
            "{} rails: before {:.2} ms, after {:.2} ms ({:.2}x)",
            o.nics,
            med(&o.before_stats) / 1e6,
            med(&o.after_stats) / 1e6,
            med(&o.before_stats) / med(&o.after_stats),
        );
    }
    b.finish();
}
