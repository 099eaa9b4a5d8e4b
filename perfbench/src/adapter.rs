//! Every call the benchmark makes into the library lives here.
//!
//! When the library's entry points are merged or renamed, only this
//! module changes; the workloads, the gate and the metric names stay
//! fixed. With a disabled [`Scope`] each function is a plain call of the
//! public entry point a user would make; with tracing on, spans are
//! recorded around the calls into each layer, inside the closures handed
//! to the search engines or by re-driving the same public pieces the
//! entry point composes.

use crate::trace::Scope;
use mre_bench::{default_sizes, orders, CollectiveFigure, FigureRow};
use mre_core::metrics::characterize_order;
use mre_core::order_search::{
    rank_orders_by_par, rank_orders_pruned_ladder, sweep_pruned_axis, PruneStats, SweepSpec,
};
use mre_core::subcomm::{subcommunicators, ColorScheme};
use mre_core::{Hierarchy, Permutation, RankReordering};
use mre_mpi::{schedules, AllgatherAlg, AllreduceAlg, AlltoallAlg};
use mre_simnet::presets::{hydra_network, hydra_network_rails, lumi_network};
use mre_simnet::{
    fluid_lower_bound, fluid_lower_bound_aggregate, fluid_time, schedule_lower_bound,
    schedule_lower_bound_aggregate, CostCache, NetworkModel, RailPolicy, Schedule, SharedCostCache,
    SymbolicScheduleCost,
};
use mre_workloads::microbench::{Collective, Microbench};
use mre_workloads::splatt::{estimate_cpd_time_cached, CpdCost, SplattConfig};
use std::sync::atomic::{AtomicU64, Ordering};

pub use mre_core::par::{pool_stats, threads as pool_threads};

/// Spawns the worker pool (a no-op once it exists).
pub fn spawn_pool() {
    mre_core::par::broadcast(mre_core::par::threads(), |_| {});
}

fn count_schedule(scope: Scope<'_>, schedules: &[&Schedule]) {
    if scope.is_on() {
        scope.add("schedule.builds", 1.0);
        for s in schedules {
            scope.add("schedule.rounds", s.rounds.len() as f64);
            let messages: usize = s.rounds.iter().map(|r| r.messages.len()).sum();
            scope.add("schedule.messages", messages as f64);
        }
    }
}

/// Adds a shared cache's counters to the trace.
pub fn count_shared_cache(scope: Scope<'_>, cache: &SharedCostCache) {
    if scope.is_on() {
        let s = cache.cache_stats();
        scope.add("cache.pattern_hits", s.pattern_hits as f64);
        scope.add("cache.round_hits", s.round_hits as f64);
        scope.add("cache.misses", s.misses as f64);
        scope.add("cache.entries", cache.len() as f64);
    }
}

fn count_search(scope: Scope<'_>, stats: PruneStats) {
    scope.add("core.search.candidates", stats.candidates() as f64);
    scope.add("bound.evaluated", stats.evaluated as f64);
    scope.add("bound.pruned", stats.pruned as f64);
    scope.add("bound.tight_pruned", stats.tight_pruned as f64);
}

// ---------------------------------------------------------------------
// Fig. 8: Splatt CPD predictions over (order, fabric).
// ---------------------------------------------------------------------

/// The Fig. 8 grid: the nell-1-shaped CPD on 32 Hydra nodes.
pub struct CpdGrid {
    pub cfg: SplattConfig,
    pub machine: Hierarchy,
    pub flop_rate: f64,
    /// `(label, model)`: 1 NIC, 2 aggregated NICs, 2 rails, 4 rails.
    pub fabrics: Vec<(&'static str, NetworkModel)>,
    pub orders: Vec<Permutation>,
}

pub fn cpd_grid() -> CpdGrid {
    let nodes = 32;
    let rails = RailPolicy::default();
    CpdGrid {
        cfg: SplattConfig::nell1_like(),
        machine: Hierarchy::new(vec![nodes, 2, 2, 8]).expect("static hierarchy"),
        flop_rate: 15.0e9,
        fabrics: vec![
            ("1nic", hydra_network(nodes, 1)),
            ("2nic", hydra_network(nodes, 2)),
            ("2rail", hydra_network_rails(nodes, 2, rails)),
            ("4rail", hydra_network_rails(nodes, 4, rails)),
        ],
        orders: Permutation::all(4),
    }
}

pub fn new_shared_cache() -> SharedCostCache {
    SharedCostCache::new()
}

/// One CPD prediction through `estimate_cpd_time_cached`, or — traced —
/// the same computation re-driven from its public pieces with a span
/// around each schedule build and each lockstep costing. The gate holds
/// both to the same reference bits.
pub fn cpd_cost(
    g: &CpdGrid,
    fabric: usize,
    sigma: &Permutation,
    cache: &SharedCostCache,
    scope: Scope<'_>,
) -> Result<CpdCost, String> {
    let net = &g.fabrics[fabric].1;
    if !scope.is_on() {
        return estimate_cpd_time_cached(&g.cfg, &g.machine, sigma, net, g.flop_rate, cache)
            .map_err(|e| e.to_string());
    }
    let cfg = &g.cfg;
    let p = cfg.nprocs();
    let grid = cfg.grid;
    let iterations = cfg.iterations as f64;
    let reordering = scope
        .span("schedule.build", |_| RankReordering::new(&g.machine, sigma))
        .map_err(|e| e.to_string())?;
    let coords = |r: usize| {
        [
            r / (grid[1] * grid[2]),
            (r / grid[2]) % grid[1],
            r % grid[2],
        ]
    };
    let mut cost = CpdCost {
        total: 0.0,
        small_comm_alltoallv: 0.0,
        large_comm_alltoallv: 0.0,
        allreduce: 0.0,
        compute: 0.0,
    };
    let smallest_mode = (0..3).max_by_key(|&m| grid[m]).expect("three modes");
    let ar_bytes = (cfg.rank * 8) as u64;
    for m in 0..3 {
        let (merged, per_pair) = scope.span("schedule.build", |s| {
            let n_layers = grid[m];
            let comm_size = p / n_layers;
            let mut members: Vec<Vec<usize>> = vec![Vec::with_capacity(comm_size); n_layers];
            for r in 0..p {
                members[coords(r)[m]].push(reordering.old_rank(r));
            }
            let slab_rows = cfg.dims[m] / n_layers.max(1);
            let per_member_bytes = (slab_rows * cfg.rank * 8) as u64 / comm_size as u64;
            let per_pair = (per_member_bytes / comm_size as u64).max(1);
            let layers: Vec<Schedule> = members
                .iter()
                .map(|mem| schedules::alltoall_pairwise(mem, per_pair))
                .collect();
            let merged = Schedule::lockstep(&layers);
            count_schedule(s, &[&merged]);
            (merged, per_pair)
        });
        let t = scope.span("cost.lockstep", |s| {
            s.add("cost.lockstep_calls", 1.0);
            cache.schedule_time_rounds(net, &merged, per_pair)
        });
        if m == smallest_mode {
            cost.small_comm_alltoallv += t * iterations;
        } else {
            cost.large_comm_alltoallv += t * iterations;
        }
        let ar = scope.span("schedule.build", |s| {
            let world: Vec<usize> = (0..p).map(|r| reordering.old_rank(r)).collect();
            let ar = schedules::allreduce_recursive_doubling(&world, ar_bytes);
            count_schedule(s, &[&ar]);
            ar
        });
        cost.allreduce += scope.span("cost.lockstep", |s| {
            s.add("cost.lockstep_calls", 1.0);
            cache.schedule_time_rounds(net, &ar, ar_bytes)
        }) * iterations;
    }
    let flops = 3.0 * 5.0 * cfg.nnz as f64 * cfg.rank as f64 / p as f64;
    cost.compute = iterations * flops / g.flop_rate;
    cost.total =
        cost.small_comm_alltoallv + cost.large_comm_alltoallv + cost.allreduce + cost.compute;
    Ok(cost)
}

// ---------------------------------------------------------------------
// Figs. 3–7: collective size sweeps, one query per (figure, order).
// ---------------------------------------------------------------------

/// One collective figure with its network model; `file` is the stem of
/// its committed output under `results/`.
pub struct Figure {
    pub file: &'static str,
    pub fig: CollectiveFigure,
    pub net: NetworkModel,
}

/// Figs. 3–7 exactly as their binaries define them (default size sweep).
pub fn figures() -> Vec<Figure> {
    let hydra = || Hierarchy::new(vec![16, 2, 2, 8]).expect("static hierarchy");
    let lumi = || Hierarchy::new(vec![16, 2, 4, 2, 8]).expect("static hierarchy");
    let order = |s: &str| Some(Permutation::parse(s).expect("static order"));
    let hydra_orders = [
        "0-1-2-3", "2-1-0-3", "1-3-0-2", "3-1-0-2", "1-3-2-0", "3-2-1-0",
    ];
    let figure =
        |file, label, machine, orders, slurm_default, subcomm_size, collective, net| Figure {
            file,
            fig: CollectiveFigure {
                label,
                machine,
                orders,
                slurm_default,
                subcomm_size,
                collective,
                sizes: default_sizes(false),
            },
            net,
        };
    vec![
        figure(
            "fig3_alltoall_hydra",
            "Figure 3: 16 Hydra nodes, 512 ranks, MPI_Alltoall, 16 procs/comm",
            hydra(),
            orders(&[
                "0-1-2-3", "2-1-0-3", "1-3-0-2", "1-3-2-0", "3-1-0-2", "3-2-1-0",
            ]),
            order("1-3-2-0"),
            16,
            Collective::Alltoall(AlltoallAlg::Auto),
            hydra_network(16, 1),
        ),
        figure(
            "fig4_alltoall_hydra_128",
            "Figure 4: 16 Hydra nodes, 512 ranks, MPI_Alltoall, 128 procs/comm",
            hydra(),
            orders(&hydra_orders),
            order("1-3-2-0"),
            128,
            Collective::Alltoall(AlltoallAlg::Auto),
            hydra_network(16, 1),
        ),
        figure(
            "fig5_alltoall_lumi",
            "Figure 5: 16 LUMI nodes, 2048 ranks, MPI_Alltoall, 16 procs/comm",
            lumi(),
            orders(&[
                "0-1-2-3-4",
                "1-2-3-0-4",
                "3-2-1-4-0",
                "3-4-0-1-2",
                "4-3-2-1-0",
            ]),
            order("4-3-2-1-0"),
            16,
            Collective::Alltoall(AlltoallAlg::Auto),
            lumi_network(16),
        ),
        figure(
            "fig6_allreduce_hydra",
            "Figure 6: 16 Hydra nodes, 512 ranks, MPI_Allreduce, 64 procs/comm",
            hydra(),
            orders(&hydra_orders),
            order("1-3-2-0"),
            64,
            Collective::Allreduce(AllreduceAlg::Auto),
            hydra_network(16, 1),
        ),
        figure(
            "fig7_allgather_lumi",
            "Figure 7: 16 LUMI nodes, 2048 ranks, MPI_Allgather, 256 procs/comm",
            lumi(),
            orders(&[
                "0-1-2-3-4",
                "1-2-3-0-4",
                "3-4-0-1-2",
                "3-2-1-4-0",
                "4-3-2-1-0",
            ]),
            order("4-3-2-1-0"),
            256,
            Collective::Allgather(AllgatherAlg::Auto),
            lumi_network(16),
        ),
    ]
}

/// The figure as its binary prints it.
pub fn figure_print(f: &Figure) -> Result<String, String> {
    let mut out = Vec::new();
    f.fig.print(&f.net, &mut out).map_err(|e| e.to_string())?;
    String::from_utf8(out).map_err(|e| e.to_string())
}

/// The figure's full sweep, as `CollectiveFigure::run` computes it.
pub fn figure_rows(f: &Figure) -> Vec<FigureRow> {
    f.fig.run(&f.net)
}

/// One order's size sweep, computed the way `CollectiveFigure::run`
/// computes it: `Microbench::run_cached` over the sizes with one
/// `CostCache`. Traced, the same pieces are re-driven with the schedule
/// builds and the cached lockstep costings in separate spans.
pub fn figure_query(f: &Figure, order: usize, scope: Scope<'_>) -> Result<Vec<FigureRow>, String> {
    let fig = &f.fig;
    let net = &f.net;
    let sigma = &fig.orders[order];
    let legend = characterize_order(&fig.machine, sigma, fig.subcomm_size)
        .map_err(|e| e.to_string())?
        .legend();
    let mut cache = CostCache::new();
    let mut rows = Vec::with_capacity(fig.sizes.len());
    for &size in &fig.sizes {
        let bench = Microbench {
            machine: fig.machine.clone(),
            order: sigma.clone(),
            subcomm_size: fig.subcomm_size,
            collective: fig.collective,
            total_bytes: size,
        };
        let (single, simultaneous) = if scope.is_on() {
            let (first, merged) = scope.span("schedule.build", |s| {
                let layout =
                    subcommunicators(&fig.machine, sigma, fig.subcomm_size, ColorScheme::Quotient)
                        .map_err(|e| e.to_string())?;
                let nics = net.rail_counts().first().copied().unwrap_or(1);
                let first = bench.schedule_for_rails(layout.members(0), nics);
                let all: Vec<Schedule> = (0..layout.count())
                    .map(|c| bench.schedule_for_rails(layout.members(c), nics))
                    .collect();
                let merged = Schedule::lockstep(&all);
                count_schedule(s, &[&first, &merged]);
                Ok::<_, String>((first, merged))
            })?;
            scope.span("cost.lockstep", |s| {
                s.add("cost.lockstep_calls", 2.0);
                (
                    cache.schedule_time(net, &first),
                    cache.schedule_time(net, &merged),
                )
            })
        } else {
            let r = bench
                .run_cached(net, &mut cache)
                .map_err(|e| e.to_string())?;
            (r.single_duration, r.simultaneous_duration)
        };
        rows.push(FigureRow {
            order: sigma.clone(),
            legend: legend.clone(),
            size,
            single_bw: size as f64 / single,
            simultaneous_bw: size as f64 / simultaneous,
        });
    }
    if scope.is_on() {
        let (hits, misses) = cache.stats();
        scope.add("cache.round_hits", hits as f64);
        scope.add("cache.misses", misses as f64);
        scope.add("cache.entries", cache.len() as f64);
    }
    Ok(rows)
}

// ---------------------------------------------------------------------
// `order_sweep --pruned`-style recommendations.
// ---------------------------------------------------------------------

/// The calibrated machine families a recommendation can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Machine {
    /// Hydra, `nodes,2,2,8`.
    Hydra,
    /// LUMI, `nodes,2,4,2,8`.
    Lumi,
}

/// How candidates are costed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Lockstep rounds through the round-interned cache.
    Lockstep,
    /// The barrier-free fluid simulator.
    Fluid,
    /// A payload axis through the symbolic envelopes (lockstep).
    Axis,
}

/// One recommendation request, in `order_sweep`'s terms.
#[derive(Debug, Clone)]
pub struct OrderQuery {
    pub machine: Machine,
    pub nodes: usize,
    pub subcomm: usize,
    /// 0 = alltoall, 1 = allreduce, 2 = allgather (all `Auto`).
    pub collective: usize,
    /// One payload, or the points of a payload axis (ascending; the first
    /// is the symbolic reference).
    pub payloads: Vec<u64>,
    pub nics: usize,
    pub policy: RailPolicy,
    pub engine: Engine,
}

/// The winner of one payload cell: order and cost.
pub type Cell = (Permutation, f64);

/// The network model `order_sweep` builds for a query.
pub fn order_network(
    machine: Machine,
    nodes: usize,
    nics: usize,
    policy: RailPolicy,
) -> NetworkModel {
    let base = match machine {
        Machine::Hydra => hydra_network(nodes, 1),
        Machine::Lumi => lumi_network(nodes),
    };
    if nics > 1 {
        base.with_node_rails(nics, policy)
    } else {
        base
    }
}

fn hierarchy(q: &OrderQuery) -> Hierarchy {
    let levels = match q.machine {
        Machine::Hydra => vec![q.nodes, 2, 2, 8],
        Machine::Lumi => vec![q.nodes, 2, 4, 2, 8],
    };
    Hierarchy::new(levels).expect("static hierarchy shapes")
}

fn collective(q: &OrderQuery) -> Collective {
    match q.collective {
        0 => Collective::Alltoall(AlltoallAlg::Auto),
        1 => Collective::Allreduce(AllreduceAlg::Auto),
        _ => Collective::Allgather(AllgatherAlg::Auto),
    }
}

/// Every subcommunicator's schedule for one candidate, as `order_sweep`
/// builds them.
fn job_schedules(
    q: &OrderQuery,
    machine: &Hierarchy,
    sigma: &Permutation,
    bytes: u64,
) -> Vec<Schedule> {
    let bench = Microbench {
        machine: machine.clone(),
        order: sigma.clone(),
        subcomm_size: q.subcomm,
        collective: collective(q),
        total_bytes: bytes,
    };
    let layout = subcommunicators(machine, sigma, q.subcomm, ColorScheme::Quotient)
        .expect("the subcommunicator size divides the machine");
    (0..layout.count())
        .map(|c| bench.schedule_for_rails(layout.members(c), q.nics))
        .collect()
}

/// One candidate's schedules plus the best bound the ladder computed for
/// it (f64 bits), so a costed candidate can report its bound tightness.
struct Prepared {
    jobs: Vec<Schedule>,
    merged: Schedule,
    bound: AtomicU64,
}

impl Prepared {
    fn raise_bound(&self, b: f64) {
        self.bound
            .fetch_max(b.max(0.0).to_bits(), Ordering::Relaxed);
    }
}

/// Hash of a fluid job set's patterns — `order_sweep`'s fluid cache key.
fn fluid_key(jobs: &[Schedule]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for s in jobs {
        s.pattern_fingerprint().hash(&mut h);
    }
    h.finish()
}

/// `order_sweep --pruned`: the recommended order per payload cell, from
/// `rank_orders_pruned_ladder` (one payload) or `sweep_pruned_axis` (a
/// payload axis), with a fresh cost cache as a CLI invocation has.
pub fn recommend(
    q: &OrderQuery,
    net: &NetworkModel,
    scope: Scope<'_>,
) -> Result<Vec<Cell>, String> {
    let machine = hierarchy(q);
    let cache = SharedCostCache::new();
    let cells = match q.engine {
        Engine::Lockstep | Engine::Fluid => {
            let fluid = q.engine == Engine::Fluid;
            let size = q.payloads[0];
            let ranking = scope.span("core.search", |s| {
                rank_orders_pruned_ladder(
                    &machine,
                    q.subcomm,
                    |sigma| {
                        s.span("schedule.build", |s| {
                            let jobs = job_schedules(q, &machine, sigma, size);
                            let merged = if fluid {
                                Schedule::new()
                            } else {
                                Schedule::lockstep(&jobs)
                            };
                            if s.is_on() {
                                let built: Vec<&Schedule> = if fluid {
                                    jobs.iter().collect()
                                } else {
                                    vec![&merged]
                                };
                                count_schedule(s, &built);
                            }
                            Prepared {
                                jobs,
                                merged,
                                bound: AtomicU64::new(0),
                            }
                        })
                    },
                    |_, p| {
                        s.span("bound.aggregate", |_| {
                            let b = if fluid {
                                fluid_lower_bound_aggregate(net, &p.jobs)
                            } else {
                                schedule_lower_bound_aggregate(net, &p.merged)
                            };
                            p.raise_bound(b);
                            b
                        })
                    },
                    |_, p| {
                        s.span("bound.per_rail", |s| {
                            s.add("bound.tight_calls", 1.0);
                            let b = if fluid {
                                fluid_lower_bound(net, &p.jobs)
                            } else {
                                schedule_lower_bound(net, &p.merged)
                            };
                            p.raise_bound(b);
                            b
                        })
                    },
                    |_, p| {
                        let c = if fluid {
                            s.span("fluid", |s| {
                                cache.time_keyed(net, fluid_key(&p.jobs), size, || {
                                    s.add("fluid.runs", 1.0);
                                    fluid_time(net, &p.jobs)
                                })
                            })
                        } else {
                            s.span("cost.lockstep", |s| {
                                s.add("cost.lockstep_calls", 1.0);
                                cache.schedule_time_rounds(net, &p.merged, size)
                            })
                        };
                        s.sample(
                            "bound.tightness",
                            f64::from_bits(p.bound.load(Ordering::Relaxed)) / c,
                        );
                        c
                    },
                )
            });
            let ranking = ranking.map_err(|e| e.to_string())?;
            count_search(scope, ranking.stats);
            vec![(ranking.best.0.order, ranking.best.1)]
        }
        Engine::Axis => {
            let reference = q.payloads[0];
            let spec = SweepSpec {
                subcomm_sizes: vec![q.subcomm],
                payload_sizes: q.payloads.clone(),
            };
            let merged_at = |s: Scope<'_>, sigma: &Permutation, bytes: u64| {
                s.span("schedule.build", |s| {
                    let merged = Schedule::lockstep(&job_schedules(q, &machine, sigma, bytes));
                    count_schedule(s, &[&merged]);
                    merged
                })
            };
            let cells = scope.span("core.search", |s| {
                sweep_pruned_axis(
                    &machine,
                    &spec,
                    |sigma, _| {
                        let merged = merged_at(s, sigma, reference);
                        s.span("envelope", |s| {
                            s.add("envelope.builds", 1.0);
                            SymbolicScheduleCost::build(net, &cache, &merged, reference)
                                .expect("payloads are non-zero")
                        })
                    },
                    |_, _, bytes, sym| s.span("envelope", |_| sym.bound_at(bytes)),
                    // The envelope is already within float reassociation of
                    // the exact cost; a second rung has nothing to add.
                    |_, _, _, _| f64::NEG_INFINITY,
                    |sigma, _, bytes, sym| {
                        let merged = merged_at(s, sigma, bytes);
                        let c = if sym.matches(&merged, bytes) {
                            s.span("envelope", |s| {
                                s.add("envelope.replays", 1.0);
                                sym.time_at_payload(bytes)
                                    .expect("a matching schedule scales integrally")
                            })
                        } else {
                            s.span("cost.lockstep", |s| {
                                s.add("envelope.fallbacks", 1.0);
                                s.add("cost.lockstep_calls", 1.0);
                                cache.schedule_time_rounds(net, &merged, bytes)
                            })
                        };
                        s.sample("bound.tightness", sym.bound_at(bytes).max(0.0) / c);
                        c
                    },
                )
            });
            let cells = cells.map_err(|e| e.to_string())?;
            let mut out = Vec::with_capacity(cells.len());
            for cell in cells {
                count_search(scope, cell.stats);
                out.push((cell.best.0.order, cell.best.1));
            }
            out
        }
    };
    count_shared_cache(scope, &cache);
    Ok(cells)
}

/// The exhaustive, uncached answer `order_sweep` gives without
/// `--pruned`: every representative costed by `rank_orders_by_par`.
pub fn recommend_exhaustive(q: &OrderQuery, net: &NetworkModel) -> Result<Vec<Cell>, String> {
    let machine = hierarchy(q);
    q.payloads
        .iter()
        .map(|&bytes| {
            let ranked = rank_orders_by_par(&machine, q.subcomm, |sigma| {
                let jobs = job_schedules(q, &machine, sigma, bytes);
                match q.engine {
                    Engine::Fluid => fluid_time(net, &jobs),
                    Engine::Lockstep | Engine::Axis => {
                        net.schedule_time(&Schedule::lockstep(&jobs))
                    }
                }
            })
            .map_err(|e| e.to_string())?;
            let (best, cost) = ranked.into_iter().next().ok_or("no candidate orders")?;
            Ok((best.order, cost))
        })
        .collect()
}
