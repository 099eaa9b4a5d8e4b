//! Payload-axis benchmarks: the per-payload bound ladder vs the symbolic
//! piecewise-linear axis sweep on the 1/2/4-rail Hydra grid.
//!
//! **Before** is the best pre-symbolic path: one
//! [`rank_orders_pruned_ladder`](mre_core::order_search::rank_orders_pruned_ladder)
//! call per grid cell, so preparation is per (candidate, payload) — each
//! payload grid point rebuilds the candidate's lockstep schedule,
//! evaluates the aggregate and per-rail load bounds, and pays a full
//! contention solve for every candidate the ladder admits (memoized per
//! (pattern, payload)).
//!
//! **After** is [`sweep_pruned_axis`] with the symbolic payload engine
//! (DESIGN.md §7h): one prepare per (subcommunicator size, candidate)
//! builds the reference schedule and captures its solved round profiles as
//! a [`SymbolicScheduleCost`] — a convex piecewise-linear function of
//! payload bytes. Every payload cell then bounds candidates by an O(log
//! segments) envelope lookup and costs survivors by exact profile replay
//! after a byte-level [`SymbolicScheduleCost::matches`] verification of
//! the generated schedule, falling back to the round-memoized exact engine
//! on any non-linearity. The contention solves are paid once per
//! candidate, not once per (candidate, payload): the payload axis is
//! collapsed.
//!
//! Acceptance is asserted before any timing, per rail count and grid
//! cell: both paths' best order and best cost must be byte-identical to
//! the exhaustive sweep's. Numbers land in `BENCH_sweep.json` at the repo
//! root; the overall before/after speedup must clear 1.5x (the `ci.sh`
//! smoke runs this with `--quick`).

mod common;

use mre_bench::tinybench::{black_box, Bench, Stats};
use mre_core::order_search::{sweep, sweep_pruned_axis, PrunedSweepCell, SweepSpec};
use mre_core::subcomm::{subcommunicators, ColorScheme};
use mre_core::{Hierarchy, Permutation};
use mre_mpi::AlltoallAlg;
use mre_simnet::presets::hydra_network_rails;
use mre_simnet::{
    schedule_lower_bound, schedule_lower_bound_aggregate, NetworkModel, RailPolicy, Schedule,
    SharedCostCache, SymbolicScheduleCost,
};
use mre_workloads::microbench::{Collective, Microbench};

/// 8 Hydra nodes of 32 cores — the `prune` bench's machine, so the two
/// records compare directly.
const NODES: usize = 8;

/// The symbolic reference payload: the smallest grid point, so every
/// other point is an exact integer multiple (power-of-two axis).
const REF_PAYLOAD: u64 = 64 << 10;

fn spec() -> SweepSpec {
    SweepSpec {
        subcomm_sizes: vec![16, 64],
        payload_sizes: vec![64 << 10, 256 << 10, 1 << 20, 4 << 20],
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

/// One candidate's merged lockstep schedule, rail-striped for `nics`.
fn merged(machine: &Hierarchy, sigma: &Permutation, s: usize, bytes: u64, nics: usize) -> Schedule {
    let b = microbench(machine, sigma, s, bytes);
    let layout =
        subcommunicators(machine, sigma, s, ColorScheme::Quotient).expect("valid configuration");
    let jobs: Vec<Schedule> = (0..layout.count())
        .map(|c| b.schedule_for_rails(layout.members(c), nics))
        .collect();
    Schedule::lockstep(&jobs)
}

/// The pre-symbolic best path: per-(candidate, payload) prepare, load
/// bounds, per-(pattern, payload) memoized solves.
fn before_sweep(
    machine: &Hierarchy,
    net: &NetworkModel,
    nics: usize,
    cache: &SharedCostCache,
) -> Vec<PrunedSweepCell> {
    common::ladder_grid(
        machine,
        &spec(),
        |sigma, s, bytes| merged(machine, sigma, s, bytes, nics),
        |_, _, _, m| schedule_lower_bound_aggregate(net, m),
        |_, _, _, m| schedule_lower_bound(net, m),
        |_, _, bytes, m| cache.time_with(net, m, bytes, || net.schedule_time(m)),
    )
}

/// The symbolic axis sweep: one prepare (and one set of contention
/// solves) per candidate, envelope bounds and verified replay per cell.
fn after_sweep(
    machine: &Hierarchy,
    net: &NetworkModel,
    nics: usize,
    cache: &SharedCostCache,
) -> Vec<PrunedSweepCell> {
    sweep_pruned_axis(
        machine,
        &spec(),
        |sigma, s| {
            let reference = merged(machine, sigma, s, REF_PAYLOAD, nics);
            SymbolicScheduleCost::build(net, cache, &reference, REF_PAYLOAD)
                .expect("non-zero reference payload")
        },
        |_, _, bytes, sym| sym.bound_at(bytes),
        // The envelope is already within float-reassociation of the exact
        // cost; a second rung has nothing to add.
        |_, _, _, _| f64::NEG_INFINITY,
        |sigma, s, bytes, sym| {
            let m = merged(machine, sigma, s, bytes, nics);
            if sym.matches(&m, bytes) {
                sym.time_at_payload(bytes)
                    .expect("matches implies integral scaling")
            } else {
                // Non-linear generator output at this payload: exact
                // round-memoized engine (never taken on this power-of-two
                // grid, but exactness must not rest on that).
                cache.schedule_time_rounds(net, &m, bytes)
            }
        },
    )
    .expect("valid spec")
}

struct RailOutcome {
    nics: usize,
    before_evaluated: u64,
    before_pruned: u64,
    after_evaluated: u64,
    after_pruned: u64,
    before_stats: Option<Stats>,
    after_stats: Option<Stats>,
}

/// Un-timed acceptance: winners byte-identical to the exhaustive sweep in
/// every cell, for both paths.
fn check_acceptance(
    machine: &Hierarchy,
    net: &NetworkModel,
    nics: usize,
    before: &[PrunedSweepCell],
    after: &[PrunedSweepCell],
) {
    let exhaustive = sweep(machine, &spec(), |sigma, s, bytes| {
        net.schedule_time(&merged(machine, sigma, s, bytes, nics))
    })
    .expect("valid spec");
    assert_eq!(before.len(), exhaustive.len());
    assert_eq!(after.len(), exhaustive.len());
    for ((b, a), e) in before.iter().zip(after).zip(&exhaustive) {
        let (best_c, best_t) = &e.ranked[0];
        assert_eq!(
            best_c.order, b.best.0.order,
            "{nics} rails: ladder winner must match exhaustive in cell ({}, {})",
            e.subcomm_size, e.payload
        );
        assert_eq!(
            best_t.to_bits(),
            b.best.1.to_bits(),
            "{nics} rails: ladder best cost must be byte-identical"
        );
        assert_eq!(
            best_c.order, a.best.0.order,
            "{nics} rails: symbolic winner must match exhaustive in cell ({}, {})",
            e.subcomm_size, e.payload
        );
        assert_eq!(
            best_t.to_bits(),
            a.best.1.to_bits(),
            "{nics} rails: symbolic best cost must be byte-identical in cell ({}, {})",
            e.subcomm_size,
            e.payload
        );
    }
}

fn totals(cells: &[PrunedSweepCell]) -> (u64, u64) {
    cells.iter().fold((0, 0), |(e, p), c| {
        (e + c.stats.evaluated, p + c.stats.pruned)
    })
}

fn main() {
    let mut b = Bench::from_env();
    let machine = Hierarchy::new(vec![NODES, 2, 2, 8]).expect("static hierarchy");
    let mut outcomes: Vec<RailOutcome> = Vec::new();

    for nics in [1usize, 2, 4] {
        let net = hydra_network_rails(NODES, nics, RailPolicy::RoundRobin);
        let before = before_sweep(&machine, &net, nics, &SharedCostCache::new());
        let after = after_sweep(&machine, &net, nics, &SharedCostCache::new());
        check_acceptance(&machine, &net, nics, &before, &after);
        let (be, bp) = totals(&before);
        let (ae, ap) = totals(&after);
        println!(
            "acceptance passed ({nics} rails): per-payload ladder {be} costed / {bp} pruned, \
             symbolic axis {ae} costed / {ap} pruned"
        );
        // Cold cost cache per timed iteration: both paths pay their own
        // solves; the symbolic path's whole point is needing fewer.
        let before_stats = b.bench(
            &format!("sweep/before/per-payload-ladder/{nics}-rails"),
            || before_sweep(black_box(&machine), &net, nics, &SharedCostCache::new()),
        );
        let after_stats = b.bench(&format!("sweep/after/symbolic-axis/{nics}-rails"), || {
            after_sweep(black_box(&machine), &net, nics, &SharedCostCache::new())
        });
        outcomes.push(RailOutcome {
            nics,
            before_evaluated: be,
            before_pruned: bp,
            after_evaluated: ae,
            after_pruned: ap,
            before_stats,
            after_stats,
        });
    }

    let med = |s: &Option<Stats>| s.as_ref().map_or(f64::NAN, |s| s.median_ns);
    let overall = outcomes.iter().map(|o| med(&o.before_stats)).sum::<f64>()
        / outcomes.iter().map(|o| med(&o.after_stats)).sum::<f64>();
    for o in &outcomes {
        println!(
            "{} rails: per-payload ladder {:.2} ms, symbolic axis {:.2} ms ({:.2}x)",
            o.nics,
            med(&o.before_stats) / 1e6,
            med(&o.after_stats) / 1e6,
            med(&o.before_stats) / med(&o.after_stats),
        );
    }
    println!("overall axis speedup: {overall:.2}x");
    assert!(
        overall >= 1.5,
        "symbolic axis sweep must clear 1.5x overall, measured {overall:.2}x"
    );

    let rails_json: Vec<String> = outcomes
        .iter()
        .map(|o| {
            let before_ns = med(&o.before_stats);
            let after_ns = med(&o.after_stats);
            format!(
                "    {{ \"rails\": {}, \"before\": {{ \"evaluated\": {}, \"pruned\": {}, \
                 \"wall_ns\": {:.1} }}, \"after\": {{ \"evaluated\": {}, \"pruned\": {}, \
                 \"wall_ns\": {:.1} }}, \"speedup\": {:.3} }}",
                o.nics,
                o.before_evaluated,
                o.before_pruned,
                before_ns,
                o.after_evaluated,
                o.after_pruned,
                after_ns,
                before_ns / after_ns,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"sweep\",\n  \"workload\": {{\n    \"machine\": \
         \"hydra_network_rails({NODES}, rails, round-robin) = [{NODES}, 2, 2, 8] ({} cores)\",\n    \
         \"collective\": \"pairwise alltoall, quotient subcommunicators, lockstep contention\",\n    \
         \"subcomm_sizes\": [16, 64],\n    \"payload_sizes\": [65536, 262144, 1048576, 4194304]\n  }},\n  \
         \"before\": \"per-cell rank_orders_pruned_ladder: per-(candidate, payload) prepare, load bounds, per-(pattern, payload) memoized solves\",\n  \
         \"after\": \"sweep_pruned_axis: one prepare and one solve set per candidate, piecewise-linear envelope bounds, verified symbolic replay\",\n  \
         \"rails\": [\n{}\n  ],\n  \"overall_speedup\": {:.3},\n  \
         \"notes\": \"Winners and best costs are asserted byte-identical to the exhaustive sweep \
         for every rail count and grid cell before timing. The symbolic path verifies every \
         costed schedule byte-for-byte against the linear prediction (matches) and replays the \
         captured profiles with the exact engine's arithmetic, so its costs are bit-identical; \
         non-linear payloads would fall back to the round-memoized exact engine. Wall-clock is \
         the tinybench median, cold cost cache per iteration.\"\n}}\n",
        machine.size(),
        rails_json.join(",\n"),
        overall,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json");
    if b.is_quick() {
        println!("\n--quick run: leaving {path} untouched");
    } else {
        std::fs::write(path, &json).expect("write BENCH_sweep.json");
        println!("\nwrote {path}");
    }
    b.finish();
}
