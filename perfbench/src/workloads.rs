//! The three workloads: how each one draws its query stream from the
//! seed, runs a query, and checks the query's output in the gate.

use crate::adapter::{self, Cell, CpdGrid, Engine, Figure, Machine, OrderQuery};
use crate::trace::Scope;
use mre_bench::FigureRow;
use mre_core::Permutation;
use mre_rng::SmallRng;
use mre_simnet::{NetworkModel, RailPolicy, SharedCostCache};
use mre_workloads::splatt::CpdCost;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::OnceLock;

/// A closed-loop workload. Queries are issued in stream order; the
/// stream wraps around if a run outlasts it.
pub trait Workload: Sized {
    /// Per-stream state (caches that live across queries).
    type State;
    type Out;
    /// A query fans out over the worker pool itself, so it runs on every
    /// CPU and the client is not moved round them.
    const FANS_OUT: bool;

    /// Builds presets, models, references and the seeded stream. With
    /// `perturb`, the reference of the stream's first query is corrupted
    /// so that the gate must report it.
    fn setup(seed: u64, perturb: bool) -> Result<Self, String>;
    fn new_state(&self) -> Self::State;
    /// Queries per block of the stream. Every whole block issues the same
    /// mix, so the end-to-end metrics, which count whole blocks only, do
    /// not depend on where the run's time ran out.
    fn block(&self) -> usize;
    fn query(&self, pos: usize, state: &Self::State, scope: Scope<'_>)
        -> Result<Self::Out, String>;
    /// Reports counters that belong to the whole stream.
    fn finish(&self, _state: &Self::State, _scope: Scope<'_>) {}
    /// The gate: whether the output of stream position `pos` is correct.
    fn check(&self, pos: usize, out: &Self::Out) -> Result<bool, String>;
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e} (run from the repository root)"))
}

// ---------------------------------------------------------------------

/// Fig. 8's CPD predictions over every (order, fabric) pair. A pass is
/// one fabric's table: every order on that fabric, through one shared
/// cost cache, as `fig8_splatt` costs a fabric.
pub struct CpdFabricGrid {
    grid: CpdGrid,
    /// `(fabric, order)` per stream position.
    stream: Vec<(usize, usize)>,
    /// Reference bits per `fabric * orders + order`.
    reference: Vec<[u64; 5]>,
    /// Table rows of `results/fig8_splatt.txt` per `(fabric, order)`, for
    /// the 1- and 2-NIC fabrics it prints.
    fig8_rows: HashMap<(usize, usize), String>,
}

pub const CPD_REFERENCE: &str = "perfbench/reference/cpd_fabric_grid.txt";
const CPD_CYCLES: usize = 16;

fn cpd_bits(c: &CpdCost) -> [u64; 5] {
    [
        c.total.to_bits(),
        c.small_comm_alltoallv.to_bits(),
        c.large_comm_alltoallv.to_bits(),
        c.allreduce.to_bits(),
        c.compute.to_bits(),
    ]
}

/// A row as `fig8_splatt` prints it.
fn fig8_row(order: &Permutation, c: &CpdCost) -> String {
    let marker = if order.to_string() == "1-3-2-0" {
        "*"
    } else {
        " "
    };
    format!(
        "{marker}{:<9} {:>10.2} {:>14.2} {:>14.2} {:>12.4} {:>10.2}",
        order.to_string(),
        c.total,
        c.small_comm_alltoallv,
        c.large_comm_alltoallv,
        c.allreduce,
        c.compute
    )
}

impl CpdFabricGrid {
    /// Computes the grid with `estimate_cpd_time_cached` and writes the
    /// reference file.
    pub fn record_reference() -> Result<(), String> {
        let grid = adapter::cpd_grid();
        let cache = adapter::new_shared_cache();
        let mut text = String::from(
            "# fabric order total small_a2av large_a2av allreduce compute (f64 bits)\n",
        );
        for (f, (label, _)) in grid.fabrics.iter().enumerate() {
            for sigma in &grid.orders {
                let c = adapter::cpd_cost(&grid, f, sigma, &cache, Scope::OFF)?;
                let bits: Vec<String> = cpd_bits(&c).iter().map(|b| format!("{b:016x}")).collect();
                text.push_str(&format!("{label} {sigma} {}\n", bits.join(" ")));
            }
        }
        std::fs::write(CPD_REFERENCE, text)
            .map_err(|e| format!("cannot write {CPD_REFERENCE}: {e}"))
    }
}

impl Workload for CpdFabricGrid {
    /// The current pass and its cache. A pass's cache is dropped when
    /// the next pass begins.
    type State = RefCell<(usize, SharedCostCache)>;
    type Out = CpdCost;
    const FANS_OUT: bool = false;

    fn setup(seed: u64, perturb: bool) -> Result<Self, String> {
        let grid = adapter::cpd_grid();
        let n_orders = grid.orders.len();
        let mut reference = vec![[0u64; 5]; grid.fabrics.len() * n_orders];
        let mut seen = vec![false; reference.len()];
        for line in read(CPD_REFERENCE)?.lines().filter(|l| !l.starts_with('#')) {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("malformed line in {CPD_REFERENCE}: {line:?}");
            if fields.len() != 7 {
                return Err(bad());
            }
            let f = grid
                .fabrics
                .iter()
                .position(|(l, _)| *l == fields[0])
                .ok_or_else(bad)?;
            let o = grid
                .orders
                .iter()
                .position(|s| s.to_string() == fields[1])
                .ok_or_else(bad)?;
            for (k, hex) in fields[2..].iter().enumerate() {
                reference[f * n_orders + o][k] = u64::from_str_radix(hex, 16).map_err(|_| bad())?;
            }
            seen[f * n_orders + o] = true;
        }
        if seen.contains(&false) {
            return Err(format!("{CPD_REFERENCE} does not cover the whole grid"));
        }

        let mut fig8_rows = HashMap::new();
        let mut fabric = None;
        for line in read("results/fig8_splatt.txt")?.lines() {
            if line.starts_with("## With 1 NIC") {
                fabric = Some(0);
            } else if line.starts_with("## With 2 NIC") {
                fabric = Some(1);
            } else if let Some(f) = fabric {
                let token = line
                    .trim_start_matches(['*', ' '])
                    .split(' ')
                    .next()
                    .unwrap_or("");
                if let Some(o) = grid.orders.iter().position(|s| s.to_string() == token) {
                    fig8_rows.insert((f, o), line.to_string());
                }
            }
        }
        if fig8_rows.len() != 2 * n_orders {
            return Err("results/fig8_splatt.txt lacks the 1- and 2-NIC tables".into());
        }

        // Each cycle visits every pair once: the fabrics in seeded order,
        // and on each fabric its orders in seeded order. A pass's cache
        // grows by every query, so a pass is kept short enough that any
        // run completes one and its peak memory does not depend on where
        // the run's time ran out. Sharing a cache across fabrics would
        // add no hits: the model fingerprint is part of every key.
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut stream = Vec::with_capacity(CPD_CYCLES * reference.len());
        for _ in 0..CPD_CYCLES {
            let mut fabrics: Vec<usize> = (0..grid.fabrics.len()).collect();
            rng.shuffle(&mut fabrics);
            for f in fabrics {
                let mut orders: Vec<usize> = (0..n_orders).collect();
                rng.shuffle(&mut orders);
                stream.extend(orders.into_iter().map(|o| (f, o)));
            }
        }
        if perturb {
            let (f, o) = stream[0];
            reference[f * n_orders + o][0] ^= 1;
        }
        Ok(CpdFabricGrid {
            grid,
            stream,
            reference,
            fig8_rows,
        })
    }

    fn new_state(&self) -> Self::State {
        RefCell::new((0, adapter::new_shared_cache()))
    }

    /// One pass: every order on one fabric.
    fn block(&self) -> usize {
        self.grid.orders.len()
    }

    fn query(&self, pos: usize, state: &Self::State, scope: Scope<'_>) -> Result<CpdCost, String> {
        let (f, o) = self.stream[pos % self.stream.len()];
        let pass = pos / self.grid.orders.len();
        if pass > state.borrow().0 {
            adapter::count_shared_cache(scope, &state.borrow().1);
            *state.borrow_mut() = (pass, adapter::new_shared_cache());
        }
        adapter::cpd_cost(
            &self.grid,
            f,
            &self.grid.orders[o],
            &state.borrow().1,
            scope,
        )
    }

    fn finish(&self, state: &Self::State, scope: Scope<'_>) {
        adapter::count_shared_cache(scope, &state.borrow().1);
    }

    fn check(&self, pos: usize, out: &CpdCost) -> Result<bool, String> {
        let (f, o) = self.stream[pos % self.stream.len()];
        let bits_ok = cpd_bits(out) == self.reference[f * self.grid.orders.len() + o];
        let row_ok = self
            .fig8_rows
            .get(&(f, o))
            .is_none_or(|row| *row == fig8_row(&self.grid.orders[o], out));
        Ok(bits_ok && row_ok)
    }
}

// ---------------------------------------------------------------------

/// Figs. 3–7: one query per (figure, order) size sweep.
pub struct FigureSweeps {
    figs: Vec<Figure>,
    /// `(figure, order)` pairs; the stream indexes into it.
    catalogue: Vec<(usize, usize)>,
    stream: Vec<usize>,
    /// The committed `results/` text of each figure.
    committed: Vec<String>,
    /// Gate state, filled on first use: whether the figure prints its
    /// committed text, and its rows from `CollectiveFigure::run`.
    printed_ok: Vec<OnceLock<Result<bool, String>>>,
    rows: Vec<OnceLock<Vec<FigureRow>>>,
    perturb: bool,
}

const FIGURE_PASSES: usize = 128;

impl Workload for FigureSweeps {
    type State = ();
    type Out = Vec<FigureRow>;
    const FANS_OUT: bool = false;

    fn setup(seed: u64, perturb: bool) -> Result<Self, String> {
        let figs = adapter::figures();
        let committed = figs
            .iter()
            .map(|f| read(&format!("results/{}.txt", f.file)))
            .collect::<Result<Vec<_>, _>>()?;
        let catalogue: Vec<(usize, usize)> = figs
            .iter()
            .enumerate()
            .flat_map(|(f, fig)| (0..fig.fig.orders.len()).map(move |o| (f, o)))
            .collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut stream = Vec::with_capacity(FIGURE_PASSES * catalogue.len());
        for _ in 0..FIGURE_PASSES {
            let mut pass: Vec<usize> = (0..catalogue.len()).collect();
            rng.shuffle(&mut pass);
            stream.extend(pass);
        }
        Ok(FigureSweeps {
            printed_ok: figs.iter().map(|_| OnceLock::new()).collect(),
            rows: figs.iter().map(|_| OnceLock::new()).collect(),
            figs,
            catalogue,
            stream,
            committed,
            perturb,
        })
    }

    fn new_state(&self) -> Self::State {}

    /// One pass: every (figure, order) sweep once.
    fn block(&self) -> usize {
        self.catalogue.len()
    }

    fn query(&self, pos: usize, _: &(), scope: Scope<'_>) -> Result<Vec<FigureRow>, String> {
        let (f, o) = self.catalogue[self.stream[pos % self.stream.len()]];
        adapter::figure_query(&self.figs[f], o, scope)
    }

    fn check(&self, pos: usize, out: &Vec<FigureRow>) -> Result<bool, String> {
        let entry = self.stream[pos % self.stream.len()];
        let (f, o) = self.catalogue[entry];
        let fig = &self.figs[f];
        let printed_ok = self.printed_ok[f]
            .get_or_init(|| adapter::figure_print(fig).map(|text| text == self.committed[f]))
            .clone()?;
        let order = &fig.fig.orders[o];
        let expected: Vec<&FigureRow> = self.rows[f]
            .get_or_init(|| adapter::figure_rows(fig))
            .iter()
            .filter(|r| &r.order == order)
            .collect();
        let perturbed = self.perturb && entry == self.stream[0];
        let rows_ok = expected.len() == out.len()
            && expected.iter().zip(out).enumerate().all(|(i, (e, r))| {
                let flip = u64::from(perturbed && i == 0);
                e.legend == r.legend
                    && e.size == r.size
                    && e.single_bw.to_bits() ^ flip == r.single_bw.to_bits()
                    && e.simultaneous_bw.to_bits() == r.simultaneous_bw.to_bits()
            });
        Ok(printed_ok && rows_ok)
    }
}

// ---------------------------------------------------------------------

/// `order_sweep --pruned` recommendations: the seed orders a fixed
/// catalogue of 360 queries.
pub struct OrderQueryMix {
    nets: HashMap<(Machine, usize, RailPolicy), NetworkModel>,
    stream: Vec<OrderQuery>,
    /// The exhaustive answer per query key (see [`mix_key`]).
    reference: HashMap<String, Vec<(String, u64)>>,
}

pub const MIX_REFERENCE: &str = "perfbench/reference/order_query_mix.txt";
/// Both machines at 512 ranks: Hydra `16,2,2,8` and LUMI `4,2,4,2,8`.
const MIX_MACHINES: [(Machine, usize); 2] = [(Machine::Hydra, 16), (Machine::Lumi, 4)];
const MIX_SUBCOMMS: [usize; 5] = [16, 32, 64, 128, 256];
const MIX_PAYLOADS: [u64; 5] = [64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20];
/// Axis queries sweep `base · 4^k`, k = 0..4, up to 4 or 16 MiB.
const MIX_AXIS_BASES: [u64; 2] = [64 << 10, 256 << 10];
const MIX_NICS: [usize; 4] = [1, 2, 3, 4];
/// (machine, collective) pairs: machine `pair / 3`, collective `pair % 3`.
const MIX_PAIRS: usize = 6;
const MIX_CYCLES: usize = 4;

/// Every (subcommunicator size, engine, payloads) shape of the mix.
fn mix_shapes() -> Vec<(usize, Engine, Vec<u64>)> {
    let mut shapes = Vec::new();
    for subcomm in MIX_SUBCOMMS {
        for p in MIX_PAYLOADS {
            shapes.push((subcomm, Engine::Lockstep, vec![p]));
            shapes.push((subcomm, Engine::Fluid, vec![p]));
        }
        for b in MIX_AXIS_BASES {
            shapes.push((
                subcomm,
                Engine::Axis,
                (0..4).map(|k| b << (2 * k)).collect(),
            ));
        }
    }
    shapes
}

/// The mix's catalogue, indexed `[shape][pair]`: every (shape, machine,
/// collective) combination once. The rail count and rail policy are a
/// fixed function of the combination that spreads 1–4 rails and all
/// three policies over every shape, so that every seed draws the same
/// multiset of queries and the run-to-run spread is not a matter of
/// which costly combinations a seed happened to draw.
fn mix_catalogue() -> Vec<Vec<OrderQuery>> {
    mix_shapes()
        .into_iter()
        .enumerate()
        .map(|(s, (subcomm, engine, payloads))| {
            (0..MIX_PAIRS)
                .map(|pair| {
                    let (machine, nodes) = MIX_MACHINES[pair / 3];
                    let nics = MIX_NICS[(s + pair) % MIX_NICS.len()];
                    OrderQuery {
                        machine,
                        nodes,
                        subcomm,
                        collective: pair % 3,
                        payloads: payloads.clone(),
                        nics,
                        // The policy only matters with more than one rail.
                        policy: if nics > 1 {
                            RailPolicy::ALL[(s / MIX_NICS.len() + pair) % RailPolicy::ALL.len()]
                        } else {
                            RailPolicy::default()
                        },
                        engine,
                    }
                })
                .collect()
        })
        .collect()
}

/// One cycle of the mix: the whole catalogue, as six sub-blocks that each
/// hold every shape once and every (machine, collective) pair ten times,
/// so that a run ending mid-cycle still issues a balanced mix. The seed
/// decides which pair each shape meets in which sub-block and orders
/// every sub-block.
fn mix_cycle(rng: &mut SmallRng, catalogue: &[Vec<OrderQuery>]) -> Vec<OrderQuery> {
    let mut shapes: Vec<usize> = (0..catalogue.len()).collect();
    rng.shuffle(&mut shapes);
    let mut cycle = Vec::with_capacity(catalogue.len() * MIX_PAIRS);
    for j in 0..MIX_PAIRS {
        let mut sub: Vec<OrderQuery> = shapes
            .iter()
            .enumerate()
            .map(|(i, &s)| catalogue[s][(i + j) % MIX_PAIRS].clone())
            .collect();
        rng.shuffle(&mut sub);
        cycle.extend(sub);
    }
    cycle
}

/// The reference file's key of a query.
fn mix_key(q: &OrderQuery) -> String {
    let payloads: Vec<String> = q.payloads.iter().map(u64::to_string).collect();
    format!(
        "{:?} {} {} {} {:?} {} {} {:?}",
        q.machine,
        q.nodes,
        q.subcomm,
        q.collective,
        q.engine,
        payloads.join(","),
        q.nics,
        q.policy
    )
}

fn net_for(q: &OrderQuery) -> NetworkModel {
    adapter::order_network(q.machine, q.nodes, q.nics, q.policy)
}

impl OrderQueryMix {
    /// Computes every query's exhaustive answer and writes the reference
    /// file.
    pub fn record_reference() -> Result<(), String> {
        let catalogue: Vec<OrderQuery> = mix_catalogue().into_iter().flatten().collect();
        let mut text =
            String::from("# query = order:cost-bits per payload cell, from rank_orders_by_par\n");
        for (i, q) in catalogue.iter().enumerate() {
            let cells = adapter::recommend_exhaustive(q, &net_for(q))?;
            let cells: Vec<String> = cells
                .iter()
                .map(|(o, c)| format!("{o}:{:016x}", c.to_bits()))
                .collect();
            text.push_str(&format!("{} = {}\n", mix_key(q), cells.join(" ")));
            if i % 100 == 0 {
                eprintln!("recorded {i} of {}", catalogue.len());
            }
        }
        std::fs::write(MIX_REFERENCE, text)
            .map_err(|e| format!("cannot write {MIX_REFERENCE}: {e}"))
    }
}

impl Workload for OrderQueryMix {
    type State = ();
    type Out = Vec<Cell>;
    const FANS_OUT: bool = true;

    fn setup(seed: u64, perturb: bool) -> Result<Self, String> {
        let mut reference = HashMap::new();
        for line in read(MIX_REFERENCE)?.lines().filter(|l| !l.starts_with('#')) {
            let bad = || format!("malformed line in {MIX_REFERENCE}: {line:?}");
            let (key, cells) = line.split_once(" = ").ok_or_else(bad)?;
            let cells = cells
                .split(' ')
                .map(|cell| {
                    let (order, bits) = cell.split_once(':')?;
                    Some((order.to_string(), u64::from_str_radix(bits, 16).ok()?))
                })
                .collect::<Option<Vec<_>>>()
                .ok_or_else(bad)?;
            reference.insert(key.to_string(), cells);
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let catalogue = mix_catalogue();
        let stream: Vec<OrderQuery> = (0..MIX_CYCLES)
            .flat_map(|_| mix_cycle(&mut rng, &catalogue))
            .collect();
        if perturb {
            if let Some(cells) = reference.get_mut(&mix_key(&stream[0])) {
                cells[0].1 ^= 1;
            }
        }
        let mut nets = HashMap::new();
        for q in &stream {
            nets.entry((q.machine, q.nics, q.policy))
                .or_insert_with(|| net_for(q));
        }
        Ok(OrderQueryMix {
            nets,
            stream,
            reference,
        })
    }

    fn new_state(&self) -> Self::State {}

    /// One sub-block of a cycle: every shape once (see [`mix_cycle`]).
    fn block(&self) -> usize {
        self.stream.len() / (MIX_CYCLES * MIX_PAIRS)
    }

    fn query(&self, pos: usize, _: &(), scope: Scope<'_>) -> Result<Vec<Cell>, String> {
        let q = &self.stream[pos % self.stream.len()];
        adapter::recommend(q, &self.nets[&(q.machine, q.nics, q.policy)], scope)
    }

    fn check(&self, pos: usize, out: &Vec<Cell>) -> Result<bool, String> {
        let q = &self.stream[pos % self.stream.len()];
        let Some(expected) = self.reference.get(&mix_key(q)) else {
            eprintln!("perfbench: no reference for query {}", mix_key(q));
            return Ok(false);
        };
        Ok(expected.len() == out.len()
            && expected
                .iter()
                .zip(out)
                .all(|(e, r)| e.0 == r.0.to_string() && e.1 == r.1.to_bits()))
    }
}
