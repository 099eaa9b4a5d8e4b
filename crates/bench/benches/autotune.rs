//! Trace-guided autotuning benchmarks: exhaustive grid sweeps vs. the
//! single-bound branch-and-bound sweep ([`sweep_pruned_axis`] with a unit
//! `prepare` and a tight rung that never prunes), the cross-sweep
//! [`SharedCostCache`], and the per-subcommunicator [`AlgorithmSelector`]
//! with cold vs. warm caches.
//!
//! Before timing anything, the harness re-checks the acceptance property:
//! on the Hydra grid the pruned sweep must return byte-identical best
//! orders and best costs to the exhaustive sweep in every cell, while
//! actually pruning candidates. Numbers are recorded in
//! `BENCH_autotune.json` at the repo root.

mod common;

use mre_bench::tinybench::{black_box, Bench, Stats};
use mre_core::order_search::{sweep, sweep_pruned_axis, PrunedSweepCell, SweepSpec};
use mre_core::par;
use mre_core::subcomm::{subcommunicators, ColorScheme};
use mre_core::{Hierarchy, Permutation};
use mre_mpi::{AlgorithmSelector, AllgatherAlg, CollectiveKind};
use mre_simnet::presets::hydra_network;
use mre_simnet::{
    schedule_lower_bound, schedule_lower_bound_aggregate, NetworkModel, Schedule, SharedCostCache,
};
use mre_workloads::microbench::{Collective, Microbench};

const NODES: usize = 4;
const SELECTOR_BYTES: u64 = 4 << 20;

fn grid_spec() -> SweepSpec {
    SweepSpec {
        subcomm_sizes: vec![16, 32],
        payload_sizes: vec![64 << 10, 4 << 20],
    }
}

fn microbench(machine: &Hierarchy, sigma: &Permutation, s: usize, bytes: u64) -> Microbench {
    Microbench {
        machine: machine.clone(),
        order: sigma.clone(),
        subcomm_size: s,
        collective: Collective::Allgather(AllgatherAlg::Ring),
        total_bytes: bytes,
    }
}

/// The merged lockstep schedule the microbench prices: one sized schedule
/// per subcommunicator, advanced round by round together.
fn merged_schedule(machine: &Hierarchy, sigma: &Permutation, s: usize, bytes: u64) -> Schedule {
    let b = microbench(machine, sigma, s, bytes);
    let layout =
        subcommunicators(machine, sigma, s, ColorScheme::Quotient).expect("valid configuration");
    let all: Vec<Schedule> = (0..layout.count())
        .map(|c| b.schedule_for(layout.members(c)))
        .collect();
    Schedule::lockstep(&all)
}

fn contended_duration(
    machine: &Hierarchy,
    net: &NetworkModel,
    sigma: &Permutation,
    s: usize,
    bytes: u64,
) -> f64 {
    microbench(machine, sigma, s, bytes)
        .run(net)
        .expect("valid configuration")
        .simultaneous_duration
}

/// The single-bound pruned sweep: the axis engine with a unit `prepare`
/// and a tight rung that never prunes.
fn single_bound_sweep(
    machine: &Hierarchy,
    spec: &SweepSpec,
    bound: impl Fn(&Permutation, usize, u64) -> f64 + Sync,
    cost: impl Fn(&Permutation, usize, u64) -> f64 + Sync,
) -> Vec<PrunedSweepCell> {
    sweep_pruned_axis(
        machine,
        spec,
        |_, _| (),
        |sigma, s, bytes, _| bound(sigma, s, bytes),
        |_, _, _, _| f64::NEG_INFINITY,
        |sigma, s, bytes, _| cost(sigma, s, bytes),
    )
    .expect("valid spec")
}

/// Re-checks the acceptance property once, un-timed: byte-identical best
/// orders and costs per cell, with the bound actually pruning. Returns
/// `(evaluated, pruned)` totals over the grid.
fn check_byte_identical(machine: &Hierarchy, net: &NetworkModel, spec: &SweepSpec) -> (u64, u64) {
    let cost = |sigma: &Permutation, s: usize, bytes: u64| {
        contended_duration(machine, net, sigma, s, bytes)
    };
    let bound = |sigma: &Permutation, s: usize, bytes: u64| {
        schedule_lower_bound(net, &merged_schedule(machine, sigma, s, bytes))
    };
    let exhaustive = sweep(machine, spec, cost).expect("valid spec");
    let pruned = single_bound_sweep(machine, spec, bound, cost);
    assert_eq!(exhaustive.len(), pruned.len());
    let (mut evaluated, mut skipped) = (0u64, 0u64);
    for (e, p) in exhaustive.iter().zip(&pruned) {
        let (best_c, best_t) = &e.ranked[0];
        assert_eq!(best_c.order, p.best.0.order, "best order must be identical");
        assert_eq!(
            best_t.to_bits(),
            p.best.1.to_bits(),
            "best cost must be byte-identical"
        );
        evaluated += p.stats.evaluated;
        skipped += p.stats.pruned;
    }
    assert!(skipped > 0, "the bound must actually prune on this grid");
    (evaluated, skipped)
}

struct SweepStats {
    exhaustive: Option<Stats>,
    pruned: Option<Stats>,
    ladder: Option<Stats>,
    ladder_serial: Option<Stats>,
    warm: Option<Stats>,
    cache_hits: u64,
    cache_misses: u64,
}

fn bench_sweeps(
    b: &mut Bench,
    machine: &Hierarchy,
    net: &NetworkModel,
    spec: &SweepSpec,
) -> SweepStats {
    let cost = |sigma: &Permutation, s: usize, bytes: u64| {
        contended_duration(machine, net, sigma, s, bytes)
    };
    let bound = |sigma: &Permutation, s: usize, bytes: u64| {
        schedule_lower_bound(net, &merged_schedule(machine, sigma, s, bytes))
    };
    let exhaustive = b.bench("sweep/exhaustive/2x2-grid", || {
        sweep(black_box(machine), spec, cost).unwrap()
    });
    let pruned = b.bench("sweep/pruned/2x2-grid", || {
        single_bound_sweep(black_box(machine), spec, bound, cost)
    });

    // The two-stage ladder: the merged schedule is prepared once per
    // candidate and shared by the aggregate rung, the per-rail rung and
    // the costing — no per-stage rebuild (DESIGN.md §7g). The fan-outs
    // now run on the process-global worker pool (spawned once, parked
    // between calls), so this sample re-records `ladder_ns` without the
    // per-invocation spawn/join cost that produced the 1.007x anomaly.
    let run_ladder = || {
        common::ladder_grid(
            black_box(machine),
            spec,
            |sigma, s, bytes| merged_schedule(machine, sigma, s, bytes),
            |_, _, _, merged| schedule_lower_bound_aggregate(net, merged),
            |_, _, _, merged| schedule_lower_bound(net, merged),
            |sigma, s, bytes, _| contended_duration(machine, net, sigma, s, bytes),
        )
    };
    let ladder = b.bench("sweep/pruned-ladder/pooled/2x2-grid", run_ladder);
    // The same ladder with the fan-out forced serial — the pool is never
    // touched. The pooled/serial gap is the cost (or win) of parallelism
    // itself, with spawn overhead out of the picture on both sides.
    par::set_threads(1);
    let ladder_serial = b.bench("sweep/pruned-ladder/serial/2x2-grid", run_ladder);
    par::set_threads(0);

    // Cross-sweep caching: the same cost closure, memoized on the merged
    // schedule's `(pattern fingerprint, payload)`. After one warming
    // sweep every repeat is pure lookups — the "re-run the figure grid"
    // scenario.
    let cache = SharedCostCache::new();
    let cached_cost = |sigma: &Permutation, s: usize, bytes: u64| {
        let merged = merged_schedule(machine, sigma, s, bytes);
        cache.time_with(net, &merged, bytes, || {
            contended_duration(machine, net, sigma, s, bytes)
        })
    };
    single_bound_sweep(machine, spec, bound, cached_cost);
    let warm = b.bench("sweep/pruned+warm-cache/2x2-grid", || {
        single_bound_sweep(black_box(machine), spec, bound, cached_cost)
    });
    let (cache_hits, cache_misses) = cache.stats();
    SweepStats {
        exhaustive,
        pruned,
        ladder,
        ladder_serial,
        warm,
        cache_hits,
        cache_misses,
    }
}

fn bench_selector(
    b: &mut Bench,
    machine: &Hierarchy,
    net: &NetworkModel,
) -> (Option<Stats>, Option<Stats>) {
    let layout = subcommunicators(
        machine,
        &Permutation::identity(machine.depth()),
        16,
        ColorScheme::Quotient,
    )
    .expect("valid configuration");
    let comms: Vec<Vec<usize>> = (0..layout.count())
        .map(|c| layout.members(c).to_vec())
        .collect();
    let cold = b.bench("selector/allgather/cold-cache", || {
        let cache = SharedCostCache::new();
        let selector = AlgorithmSelector::new(net, &cache);
        selector.select_layout(CollectiveKind::Allgather, black_box(&comms), SELECTOR_BYTES)
    });
    let cache = SharedCostCache::new();
    let selector = AlgorithmSelector::new(net, &cache);
    selector.select_layout(CollectiveKind::Allgather, &comms, SELECTOR_BYTES);
    let warm = b.bench("selector/allgather/warm-cache", || {
        selector.select_layout(CollectiveKind::Allgather, black_box(&comms), SELECTOR_BYTES)
    });
    (cold, warm)
}

fn main() {
    let mut b = Bench::from_env();
    let net = hydra_network(NODES, 1);
    let machine = net.hierarchy().clone();
    let spec = grid_spec();

    let (evaluated, skipped) = check_byte_identical(&machine, &net, &spec);
    println!(
        "byte-identical check passed: {evaluated} costed, {skipped} pruned of {} candidates\n",
        evaluated + skipped
    );

    let sweeps = bench_sweeps(&mut b, &machine, &net, &spec);
    let (cold, warm_sel) = bench_selector(&mut b, &machine, &net);

    // Machine-readable record, written to BENCH_autotune.json at the root.
    let med = |s: &Option<Stats>| s.as_ref().map_or(f64::NAN, |s| s.median_ns);
    let ratio = |base: &Option<Stats>, other: &Option<Stats>| match (base, other) {
        (Some(b), Some(o)) => b.median_ns / o.median_ns,
        _ => f64::NAN,
    };
    let (capacity, broadcasts, jobs) =
        par::pool_stats().map_or((0, 0, 0), |p| (p.capacity, p.broadcasts, p.jobs));
    let json = format!(
        "{{\n  \"bench\": \"autotune\",\n  \"workload\": {{\n    \"machine\": \
         \"hydra_network({NODES}, 1) = [{NODES}, 2, 2, 8] ({} cores)\",\n    \
         \"collective\": \"allgather/ring via Microbench\",\n    \
         \"subcomm_sizes\": [16, 32],\n    \"payload_sizes\": [65536, 4194304]\n  }},\n  \
         \"sweep\": {{\n    \"candidates\": {},\n    \"evaluated\": {evaluated},\n    \
         \"pruned\": {skipped},\n    \"exhaustive_ns\": {:.1},\n    \"pruned_ns\": {:.1},\n    \
         \"ladder_ns\": {:.1},\n    \"ladder_serial_ns\": {:.1},\n    \
         \"pruned_warm_cache_ns\": {:.1},\n    \"pruned_speedup\": {:.3},\n    \
         \"ladder_speedup\": {:.3},\n    \"warm_cache_speedup\": {:.3},\n    \
         \"cache_hits\": {},\n    \"cache_misses\": {}\n  }},\n  \
         \"pool_reuse\": {{\n    \"before\": {{ \"pool\": \"std::thread::scope spawned and joined \
         per ladder invocation\", \"ladder_ns\": 5386085.0, \"ladder_speedup\": 1.007 }},\n    \
         \"after\": {{ \"pool\": \"process-global lazy pool, workers parked on job channels \
         between invocations\", \"ladder_ns\": {:.1}, \"ladder_speedup\": {:.3}, \
         \"capacity\": {capacity}, \"broadcasts\": {broadcasts}, \"jobs\": {jobs} }}\n  }},\n  \
         \"selector\": {{\n    \"collective\": \"allgather over eight 16-core \
         subcommunicators\",\n    \"total_bytes\": {SELECTOR_BYTES},\n    \"cold_ns\": {:.1},\n    \
         \"warm_ns\": {:.1},\n    \"warm_speedup\": {:.3}\n  }},\n  \
         \"notes\": \"The prior record's 1.007x ladder_speedup at the default pool (vs 1.213x \
         serial) was per-invocation thread spawn/join: every pruned-ladder call paid a \
         fresh std::thread::scope. mre_core::par now spawns one process-global pool lazily and \
         parks the workers between fan-outs, so ladder_ns above is re-recorded with reused \
         workers; ladder_serial_ns is the same ladder with the fan-out forced serial \
         (set_threads(1)), isolating the parallelism win from the (now removed) spawn cost. A \
         pool capacity of 0 or 1 means the host exposes a single core and every fan-out ran \
         inline — pooled and serial then agree within noise, which *is* the resolution of the \
         anomaly on such hosts: no threads, no spawn tax. Winners stay byte-identical to the \
         exhaustive sweep in every cell (asserted before timing). Warming a SharedCostCache \
         across sweeps removes the remaining contention solves on repeat runs; the \
         AlgorithmSelector warm/cold gap is the per-subcomm analogue.\"\n}}\n",
        machine.size(),
        evaluated + skipped,
        med(&sweeps.exhaustive),
        med(&sweeps.pruned),
        med(&sweeps.ladder),
        med(&sweeps.ladder_serial),
        med(&sweeps.warm),
        ratio(&sweeps.exhaustive, &sweeps.pruned),
        ratio(&sweeps.exhaustive, &sweeps.ladder),
        ratio(&sweeps.exhaustive, &sweeps.warm),
        sweeps.cache_hits,
        sweeps.cache_misses,
        med(&sweeps.ladder),
        ratio(&sweeps.exhaustive, &sweeps.ladder),
        med(&cold),
        med(&warm_sel),
        ratio(&cold, &warm_sel),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_autotune.json");
    if b.is_quick() {
        println!("\n--quick run: leaving {path} untouched");
    } else {
        std::fs::write(path, &json).expect("write BENCH_autotune.json");
        println!("\nwrote {path}");
    }
    b.finish();
}
