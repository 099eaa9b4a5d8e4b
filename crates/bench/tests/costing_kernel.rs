//! Exactness and allocation properties of the batch costing kernel
//! (DESIGN.md §7h): the symbolic payload envelope, the round-level memo,
//! and the pooled thread-local workspaces.
//!
//! Three families of properties, each over the full configuration
//! product (collective generator × contention mode × 1/2/4 rails × rail
//! policy):
//!
//! 1. **Symbolic ≡ exact**: the piecewise-linear envelope is within
//!    1e-12 relative of `schedule_time` at every payload grid point, and
//!    the symbolic *replay* (`time_at_payload`) is bit-identical to it.
//! 2. **Memoized ≡ memo-free**: `SharedCostCache::schedule_time_rounds`
//!    returns bit-identical results to a direct `schedule_time`, cold and
//!    warm, with the round tier actually hitting across payloads.
//! 3. **Pooled ≡ fresh**: costing through a dirty, much-reused
//!    thread-local workspace is bit-identical to costing on a brand-new
//!    thread whose workspace has never been touched.
//! 4. **Relabelled memo ≡ direct**: a profile served by the solver-input
//!    keyed profile tier — often solved for a *different* round that
//!    interns to the same input — is bit-identical to `round_profile`.
//! 5. **Dense load ≡ set oracle**: the stamp-deduplicated `RoundLoad`
//!    equals one built with a `HashSet` of `(level, instance, up, rail)`
//!    link tuples.
//!
//! A counting global allocator (gated to the measuring thread, so the
//! parallel test harness cannot pollute the count) then asserts the
//! steady-state claim: after warm-up, costing a candidate through the
//! memo, serving a relabelled round from the profile tier, evaluating
//! round bounds and evaluating the symbolic envelope perform **zero**
//! heap allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use mre_core::subcomm::{subcommunicators, ColorScheme};
use mre_core::{Hierarchy, Permutation};
use mre_mpi::{AllgatherAlg, AllreduceAlg, AlltoallAlg};
use mre_simnet::presets::hydra_network_rails;
use mre_simnet::{
    thread_workspace_rounds, ContentionMode, Message, NetworkModel, RailPolicy, Round, RoundLoad,
    Schedule, SharedCostCache, SymbolicScheduleCost,
};
use mre_workloads::microbench::{Collective, Microbench};

// ---------------------------------------------------------------------
// Counting allocator, gated per thread: only allocations made while the
// current thread is inside `count_allocations` are counted, so the other
// test threads of the harness never perturb the measurement.

struct CountingAlloc;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
}
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn tracking() -> bool {
    // `try_with`: the allocator can be called during TLS teardown.
    TRACKING.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if tracking() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if tracking() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if tracking() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with this thread's allocations counted; returns the count.
fn count_allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    TRACKING.with(|t| t.set(true));
    let before = ALLOCS.load(Ordering::SeqCst);
    let result = f();
    let after = ALLOCS.load(Ordering::SeqCst);
    TRACKING.with(|t| t.set(false));
    (after - before, result)
}

// ---------------------------------------------------------------------
// The configuration product.

/// 2 Hydra nodes — small enough for the full product in debug tests,
/// large enough that internode traffic exists and rail policies differ.
const NODES: usize = 2;
/// Smallest grid point; every other point is an integer multiple.
const REF_PAYLOAD: u64 = 64 << 10;
const PAYLOADS: [u64; 3] = [64 << 10, 128 << 10, 256 << 10];
const SUBCOMM: usize = 16;

/// Every non-`Auto` generator (`Auto` switches algorithms across the
/// payload threshold, which is exactly the non-linearity `matches` is
/// there to reject — exercised separately below).
fn generators() -> Vec<Collective> {
    vec![
        Collective::Alltoall(AlltoallAlg::Pairwise),
        Collective::Alltoall(AlltoallAlg::Bruck),
        Collective::Allgather(AllgatherAlg::Ring),
        Collective::Allgather(AllgatherAlg::Bruck),
        Collective::Allgather(AllgatherAlg::RecursiveDoubling),
        Collective::Allreduce(AllreduceAlg::Ring),
        Collective::Allreduce(AllreduceAlg::RecursiveDoubling),
    ]
}

fn policies() -> [RailPolicy; 3] {
    [
        RailPolicy::RoundRobin,
        RailPolicy::SrcHash,
        RailPolicy::Affinity,
    ]
}

/// The candidate's merged lockstep schedule on the identity order.
fn merged(machine: &Hierarchy, collective: Collective, bytes: u64, nics: usize) -> Schedule {
    merged_for(
        machine,
        &Permutation::identity(machine.depth()),
        collective,
        bytes,
        nics,
    )
}

/// The merged lockstep schedule of order `sigma`.
fn merged_for(
    machine: &Hierarchy,
    sigma: &Permutation,
    collective: Collective,
    bytes: u64,
    nics: usize,
) -> Schedule {
    let b = Microbench {
        machine: machine.clone(),
        order: sigma.clone(),
        subcomm_size: SUBCOMM,
        collective,
        total_bytes: bytes,
    };
    let layout = subcommunicators(machine, sigma, SUBCOMM, ColorScheme::Quotient)
        .expect("valid configuration");
    let jobs: Vec<Schedule> = (0..layout.count())
        .map(|c| b.schedule_for_rails(layout.members(c), nics))
        .collect();
    Schedule::lockstep(&jobs)
}

fn fabric(nics: usize, policy: RailPolicy, mode: ContentionMode) -> NetworkModel {
    hydra_network_rails(NODES, nics, policy).with_contention_mode(mode)
}

#[test]
fn envelope_matches_schedule_time_across_the_full_product() {
    for mode in [ContentionMode::MaxMinFair, ContentionMode::EqualShare] {
        for nics in [1usize, 2, 4] {
            for policy in policies() {
                let net = fabric(nics, policy, mode);
                let machine = net.hierarchy().clone();
                let cache = SharedCostCache::new();
                for collective in generators() {
                    let reference = merged(&machine, collective, REF_PAYLOAD, nics);
                    let sym = SymbolicScheduleCost::build(&net, &cache, &reference, REF_PAYLOAD)
                        .expect("non-zero reference payload");
                    for payload in PAYLOADS {
                        let m = merged(&machine, collective, payload, nics);
                        assert!(
                            sym.matches(&m, payload),
                            "{collective:?} must scale linearly on this grid \
                             ({mode:?}, {nics} rails, {policy}, payload {payload})"
                        );
                        let exact = net.schedule_time(&m);
                        let replay = sym.time_at_payload(payload).expect("integral scaling");
                        assert_eq!(
                            replay.to_bits(),
                            exact.to_bits(),
                            "symbolic replay must be bit-identical to schedule_time \
                             ({collective:?}, {mode:?}, {nics} rails, {policy}, {payload})"
                        );
                        let envelope = sym.envelope().value(payload as f64);
                        assert!(
                            (envelope - exact).abs() <= 1e-12 * exact.abs(),
                            "envelope {envelope} vs exact {exact} out of 1e-12 rel \
                             ({collective:?}, {mode:?}, {nics} rails, {policy}, {payload})"
                        );
                        let bound = sym.bound_at(payload);
                        assert!(
                            bound <= exact,
                            "envelope bound {bound} must stay admissible vs {exact}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn auto_algorithm_switch_is_rejected_by_matches() {
    // Auto crosses the small-message threshold between these payloads, so
    // the generated schedule stops being the linear image of the
    // reference — `matches` must say so (the axis sweep then falls back
    // to the exact engine instead of replaying a wrong envelope).
    let net = fabric(1, RailPolicy::RoundRobin, ContentionMode::MaxMinFair);
    let machine = net.hierarchy().clone();
    let cache = SharedCostCache::new();
    let small = 8 << 10;
    let reference = merged(&machine, Collective::Alltoall(AlltoallAlg::Auto), small, 1);
    let sym = SymbolicScheduleCost::build(&net, &cache, &reference, small).expect("non-zero");
    let large = merged(
        &machine,
        Collective::Alltoall(AlltoallAlg::Auto),
        16 << 20,
        1,
    );
    assert!(
        !sym.matches(&large, 16 << 20),
        "a Bruck-to-pairwise algorithm switch must not pass the linearity check"
    );
}

#[test]
fn round_memo_is_bit_identical_to_memo_free() {
    for mode in [ContentionMode::MaxMinFair, ContentionMode::EqualShare] {
        for nics in [1usize, 2, 4] {
            let net = fabric(nics, RailPolicy::RoundRobin, mode);
            let machine = net.hierarchy().clone();
            let cache = SharedCostCache::new();
            for collective in [
                Collective::Alltoall(AlltoallAlg::Pairwise),
                Collective::Allreduce(AllreduceAlg::Ring),
            ] {
                for payload in PAYLOADS {
                    let m = merged(&machine, collective, payload, nics);
                    let direct = net.schedule_time(&m);
                    let cold = cache.schedule_time_rounds(&net, &m, payload);
                    let warm = cache.schedule_time_rounds(&net, &m, payload);
                    assert_eq!(
                        direct.to_bits(),
                        cold.to_bits(),
                        "cold memo ({collective:?})"
                    );
                    assert_eq!(
                        direct.to_bits(),
                        warm.to_bits(),
                        "warm memo ({collective:?})"
                    );
                }
            }
            let stats = cache.cache_stats();
            assert!(
                stats.round_hits > 0,
                "re-costing shared rounds across payloads must hit the round tier \
                 ({mode:?}, {nics} rails): {stats:?}"
            );
        }
    }
}

#[test]
fn pooled_workspace_is_bit_identical_to_fresh_threads() {
    let net = fabric(2, RailPolicy::RoundRobin, ContentionMode::MaxMinFair);
    let machine = net.hierarchy().clone();
    // Dirty this thread's workspace with unrelated solves of every
    // generator, then cost the probe schedules through the reused arenas.
    for collective in generators() {
        let m = merged(&machine, collective, 32 << 10, 2);
        let _ = net.schedule_time(&m);
    }
    let probes: Vec<Schedule> = generators()
        .into_iter()
        .map(|c| merged(&machine, c, REF_PAYLOAD, 2))
        .collect();
    let rounds_before = thread_workspace_rounds();
    let dirty: Vec<f64> = probes.iter().map(|m| net.schedule_time(m)).collect();
    assert!(
        thread_workspace_rounds() > rounds_before,
        "the lockstep engine must route solves through the pooled workspace"
    );
    // A brand-new thread gets a brand-new thread-local workspace.
    let fresh: Vec<f64> = std::thread::scope(|s| {
        s.spawn(|| probes.iter().map(|m| net.schedule_time(m)).collect())
            .join()
            .expect("fresh-workspace thread")
    });
    for (d, f) in dirty.iter().zip(&fresh) {
        assert_eq!(
            d.to_bits(),
            f.to_bits(),
            "pooled-workspace costing must be bit-identical to a fresh workspace"
        );
    }
}

/// A packed, a spread and a mixed order: different endpoints, many
/// rounds that are relabellings of one another.
fn probe_orders() -> Vec<Permutation> {
    ["0-1-2-3", "3-2-1-0", "1-3-0-2"]
        .iter()
        .map(|o| Permutation::parse(o).expect("static order"))
        .collect()
}

fn assert_profile_bits(a: &mre_simnet::RoundProfile, b: &mre_simnet::RoundProfile, what: &str) {
    assert_eq!(a.crossing, b.crossing, "{what}: crossing levels");
    assert_eq!(a.entries.len(), b.entries.len(), "{what}: entry count");
    for (x, y) in a.entries.iter().zip(&b.entries) {
        assert_eq!(x.0.to_bits(), y.0.to_bits(), "{what}: latency");
        assert_eq!(x.1.to_bits(), y.1.to_bits(), "{what}: rate");
    }
}

#[test]
fn relabelled_profile_memo_is_bit_identical_across_the_full_product() {
    let mut solves = 0u64;
    let mut endpoint_patterns = 0usize;
    for mode in [ContentionMode::MaxMinFair, ContentionMode::EqualShare] {
        for nics in [1usize, 2, 4] {
            for policy in policies() {
                let net = fabric(nics, policy, mode);
                let machine = net.hierarchy().clone();
                let cache = SharedCostCache::new();
                let mut patterns = std::collections::HashSet::new();
                for collective in generators() {
                    for sigma in probe_orders() {
                        let m = merged_for(&machine, &sigma, collective, REF_PAYLOAD, nics);
                        for round in &m.rounds {
                            patterns.insert(round.endpoint_fingerprint());
                            let memo = cache.round_profile_memo(&net, round);
                            let direct = net.round_profile(&round.messages);
                            assert_profile_bits(
                                &memo,
                                &direct,
                                &format!(
                                    "{collective:?}, {sigma}, {mode:?}, {nics} rails, {policy}"
                                ),
                            );
                            assert_eq!(
                                memo.time(&round.messages).to_bits(),
                                net.round_time(&round.messages).to_bits()
                            );
                        }
                    }
                }
                solves += cache.cache_stats().misses;
                endpoint_patterns += patterns.len();
            }
        }
    }
    assert!(
        (solves as usize) < endpoint_patterns,
        "relabelled rounds must share solves: {solves} solves for \
         {endpoint_patterns} endpoint patterns"
    );
}

/// The reference `RoundLoad`: distinct links deduplicated through a
/// `HashSet` of `(level, instance, up, rail)` tuples.
fn round_load_oracle(net: &NetworkModel, messages: &[Message]) -> RoundLoad {
    let strides = net.hierarchy().strides();
    let links = net.links();
    let mut load = RoundLoad::for_rails(net.rail_counts());
    let mut seen = std::collections::HashSet::new();
    for m in messages {
        if m.src == m.dst {
            load.max_local_bytes = load.max_local_bytes.max(m.bytes);
            continue;
        }
        let j = strides
            .iter()
            .position(|&s| m.src / s != m.dst / s)
            .expect("distinct cores differ at some level");
        let latency = links[j].crossing_latency;
        load.max_latency = load.max_latency.max(latency);
        for (level, &stride) in strides.iter().enumerate().skip(j) {
            load.min_latency_through[level] = if load.bytes_through[level] == 0 {
                latency
            } else {
                load.min_latency_through[level].min(latency)
            };
            load.bytes_through[level] += m.bytes;
            let up = net.message_rail(level, m.src, m.dst, true);
            load.rail_bytes_up[level][up] += m.bytes;
            if seen.insert((level, m.src / stride, true, up)) {
                load.active_up[level] += 1;
                load.rail_active_up[level][up] += 1;
            }
            let down = net.message_rail(level, m.src, m.dst, false);
            load.rail_bytes_down[level][down] += m.bytes;
            if seen.insert((level, m.dst / stride, false, down)) {
                load.active_down[level] += 1;
                load.rail_active_down[level][down] += 1;
            }
        }
    }
    load
}

#[test]
fn dense_round_load_matches_the_hash_set_oracle() {
    for mode in [ContentionMode::MaxMinFair, ContentionMode::EqualShare] {
        for nics in [1usize, 2, 4] {
            for policy in policies() {
                let net = fabric(nics, policy, mode);
                let machine = net.hierarchy().clone();
                let mut reused = RoundLoad::for_rails(net.rail_counts());
                for collective in generators() {
                    for sigma in probe_orders() {
                        let m = merged_for(&machine, &sigma, collective, REF_PAYLOAD, nics);
                        let what =
                            format!("{collective:?}, {sigma}, {mode:?}, {nics} rails, {policy}");
                        for round in &m.rounds {
                            let oracle = round_load_oracle(&net, &round.messages);
                            assert_eq!(net.round_load(&round.messages), oracle, "{what}");
                            net.round_load_into(&round.messages, &mut reused);
                            assert_eq!(reused, oracle, "{what} (reused load)");
                        }
                        // The fluid bound's pooled virtual round.
                        let all: Vec<Message> = m
                            .rounds
                            .iter()
                            .flat_map(|r| r.messages.iter().copied())
                            .collect();
                        assert_eq!(
                            net.round_load(&all),
                            round_load_oracle(&net, &all),
                            "{what} (pooled)"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn steady_state_costing_is_allocation_free() {
    let net = fabric(2, RailPolicy::RoundRobin, ContentionMode::MaxMinFair);
    let machine = net.hierarchy().clone();
    let cache = SharedCostCache::new();
    let m = merged(
        &machine,
        Collective::Alltoall(AlltoallAlg::Pairwise),
        REF_PAYLOAD,
        2,
    );

    // Warm-up: the cold call pays the contention solves, populates the
    // pattern and round memo tiers, and sizes the pooled workspace.
    let cold = cache.schedule_time_rounds(&net, &m, REF_PAYLOAD);
    let sym = SymbolicScheduleCost::build(&net, &cache, &m, REF_PAYLOAD).expect("non-zero");

    // Steady state: costing the candidate again is a pattern-tier hit —
    // fingerprint hashing, one shard lookup, no heap traffic at all.
    let (allocs, warm) = count_allocations(|| cache.schedule_time_rounds(&net, &m, REF_PAYLOAD));
    assert_eq!(warm.to_bits(), cold.to_bits());
    assert_eq!(
        allocs, 0,
        "memoized candidate costing must not allocate after warm-up"
    );

    // The symbolic evaluations backing the axis sweep's bound and cost
    // rungs are allocation-free too: envelope lookup and profile replay.
    let (allocs, bound) = count_allocations(|| sym.bound_at(4 * REF_PAYLOAD));
    assert!(bound.is_finite());
    assert_eq!(allocs, 0, "envelope bound must not allocate");
    let (allocs, replay) = count_allocations(|| sym.time_at_payload(4 * REF_PAYLOAD));
    assert!(replay.expect("integral scaling").is_finite());
    assert_eq!(allocs, 0, "symbolic replay must not allocate");

    // A relabelled round — every core moved to the other node — interns
    // to the solved round's input: a profile-tier hit, served from the
    // warm link stamps without touching the heap. (Moving both endpoints
    // by ±32 cores keeps `(src + dst) mod 2`, the round-robin rail.)
    let round = &m.rounds[0];
    let swapped = Round::with(
        round
            .messages
            .iter()
            .map(|msg| Message::new(msg.src ^ 32, msg.dst ^ 32, msg.bytes))
            .collect(),
    );
    let solved = cache.round_profile_memo(&net, round);
    let misses = cache.cache_stats().misses;
    let (allocs, hit) = count_allocations(|| cache.round_profile_memo(&net, &swapped));
    assert_eq!(allocs, 0, "a warm relabelled hit must not allocate");
    assert!(
        std::sync::Arc::ptr_eq(&solved, &hit),
        "relabelled round must hit"
    );
    assert_eq!(cache.cache_stats().misses, misses);
    assert_eq!(
        hit.time(&swapped.messages).to_bits(),
        net.round_time(&swapped.messages).to_bits()
    );

    // Warm bound evaluations: both rungs and an explicit load reuse.
    let _ = net.round_lower_bound(&round.messages);
    let mut load = net.round_load(&round.messages);
    let (allocs, bounds) = count_allocations(|| {
        let tight = net.round_lower_bound(&swapped.messages);
        let aggregate = net.round_lower_bound_aggregate(&swapped.messages);
        net.round_load_into(&round.messages, &mut load);
        (tight, aggregate)
    });
    assert_eq!(allocs, 0, "warm bound evaluations must not allocate");
    assert!(bounds.1 <= bounds.0 && bounds.0 <= hit.time(&swapped.messages));
}
