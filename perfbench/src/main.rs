//! End-to-end benchmark of the order-recommendation stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cpd_fabric_grid|order_query_mix|figure_sweeps> \
//!     --seed <n> --seconds <s> --trace <0|1> [--perturb-reference]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --record-reference <cpd_fabric_grid|order_query_mix>
//! ```
//!
//! Run from the repository root: the gate reads `results/` and
//! `perfbench/reference/`. Each run sets the workload up, then drives a
//! closed loop of queries for `--seconds` from one client thread, one
//! query at a time. A query whose own code fans out uses the
//! `mre_core::par` pool; otherwise the client is held on each allowed CPU
//! in turn, a second at a time (see `cpus`). After the timed interval
//! every output goes through the gate; a query that errors or differs
//! from its reference counts as failed. Then the set-up is repeated for a
//! second, and `setup_s` is the median.
//!
//! With `--trace 0` the last stdout line reports the end-to-end metrics.
//! The time metrics count the stream's whole blocks only (see
//! [`Workload::block`]), with Harrell–Davis latency percentiles; memory
//! is the peak of the bytes the program held (see `heap`). With
//! `--trace 1` the stream runs twice for half the time each, untraced
//! then traced, and the line reports the per-layer split of the traced
//! half; its spans are written to `perfbench/out/`.
//! `--perturb-reference` corrupts the reference of the stream's first
//! query, so a working gate reports at least one failure.
//! `--record-reference` rewrites a workload's file under
//! `perfbench/reference/` from the current code: the CPD grid through
//! `estimate_cpd_time_cached`, and every query of the mix's catalogue
//! through the exhaustive, uncached `rank_orders_by_par`.

mod adapter;
mod cpus;
mod heap;
mod quantile;
mod trace;
mod workloads;

use quantile::harrell_davis;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Scope, Tracer};
use workloads::{CpdFabricGrid, FigureSweeps, OrderQueryMix, Workload};

/// How long a run keeps repeating the set-up, after its timed stream;
/// `setup_s` is the median over the repeats. A set-up takes well under a
/// millisecond, so a single one would measure the host's speed at one
/// instant.
const SETUP_WINDOW: Duration = Duration::from_secs(1);

/// The layers whose self times split a traced stream, as span names.
const LAYERS: [&str; 7] = [
    "core.search",
    "schedule.build",
    "bound.aggregate",
    "bound.per_rail",
    "cost.lockstep",
    "fluid",
    "envelope",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    perturb: bool,
}

enum Command {
    Bench(Args),
    /// Rewrite a workload's reference file from the current code.
    Record(String),
}

fn parse_args() -> Result<Command, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut perturb = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--perturb-reference" => perturb = true,
            "--record-reference" => return Ok(Command::Record(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Command::Bench(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        perturb,
    }))
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|command| match command {
        Command::Record(w) if w == "cpd_fabric_grid" => CpdFabricGrid::record_reference(),
        Command::Record(w) if w == "order_query_mix" => OrderQueryMix::record_reference(),
        Command::Record(w) => Err(format!("no reference file for workload {w:?}")),
        Command::Bench(args) => match args.workload.as_str() {
            "cpd_fabric_grid" => bench::<CpdFabricGrid>(&args),
            "order_query_mix" => bench::<OrderQueryMix>(&args),
            "figure_sweeps" => bench::<FigureSweeps>(&args),
            other => Err(format!("unknown workload {other:?}")),
        },
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// One closed-loop stream: every query's latency, completion time (from
/// the stream's start) and output, in stream order, plus the interval from
/// the first issue to the last completion.
struct Stream<O> {
    done: Vec<(f64, f64, Result<O, String>)>,
    wall_s: f64,
}

impl<O> Stream<O> {
    /// The latencies of the stream's whole blocks of `block` queries and
    /// the time those blocks took. A run that did not finish one block
    /// keeps every query.
    fn whole_blocks(&self, block: usize) -> (Vec<f64>, f64) {
        let n = self.done.len() / block * block;
        let (done, wall_s) = match n {
            0 => (&self.done[..], self.wall_s),
            n => (&self.done[..n], self.done[n - 1].1),
        };
        (done.iter().map(|d| d.0).collect(), wall_s)
    }
}

fn run_stream<W: Workload>(
    w: &W,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Result<Stream<W::Out>, String> {
    let state = w.new_state();
    let mut done = Vec::new();
    let mut rotation = (!W::FANS_OUT).then(cpus::Rotation::new);
    let deadline = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    while start.elapsed() < deadline {
        let pos = done.len();
        if let Some(r) = &mut rotation {
            r.at(start.elapsed());
        }
        let issued = Instant::now();
        let out = Scope::query(tracer, pos as u32 + 1).span("query", |s| w.query(pos, &state, s));
        done.push((
            issued.elapsed().as_secs_f64(),
            start.elapsed().as_secs_f64(),
            out,
        ));
    }
    let wall_s = start.elapsed().as_secs_f64();
    drop(rotation);
    w.finish(&state, Scope::query(tracer, 0));
    if done.is_empty() {
        return Err("no query completed".into());
    }
    Ok(Stream { done, wall_s })
}

/// Gate: the number of failed queries (errors and wrong outputs).
fn gate<W: Workload>(w: &W, stream: &Stream<W::Out>) -> Result<usize, String> {
    let mut failed = 0;
    for (pos, (_, _, out)) in stream.done.iter().enumerate() {
        let ok = match out {
            Ok(out) => w.check(pos, out)?,
            Err(e) => {
                eprintln!("perfbench: query {pos} failed: {e}");
                false
            }
        };
        failed += usize::from(!ok);
    }
    Ok(failed)
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Repeats the set-up for [`SETUP_WINDOW`], dropping each instance, and
/// returns every sample including `first`, the run's own set-up.
fn repeat_setup<W: Workload>(args: &Args, first: f64) -> Result<Vec<f64>, String> {
    let mut setups = vec![first];
    let window = Instant::now();
    while window.elapsed() < SETUP_WINDOW {
        let t = Instant::now();
        W::setup(args.seed, args.perturb)?;
        setups.push(t.elapsed().as_secs_f64());
    }
    Ok(setups)
}

fn bench<W: Workload>(args: &Args) -> Result<(), String> {
    let t = Instant::now();
    let w = W::setup(args.seed, args.perturb)?;
    adapter::spawn_pool();
    let first_setup_s = t.elapsed().as_secs_f64();
    let mut setup_samples = 1;
    let threads = adapter::pool_threads();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The CPUs the client is held on in turn; 0 if it is not moved.
    let client_cpus = if W::FANS_OUT {
        0
    } else {
        cpus::Rotation::new().len()
    };

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let (attempted, failed, samples) = if !args.trace {
        let stream = run_stream(&w, args.seconds, None)?;
        let (heap, rss) = (heap::peak_mib(), peak_rss_mib()?);
        let failed = gate(&w, &stream)?;
        // After the peaks are read, so that set-up churn stays out of them.
        let setups = repeat_setup::<W>(args, first_setup_s)?;
        setup_samples = setups.len();
        let (mut lat, wall_s) = stream.whole_blocks(w.block());
        lat.sort_by(f64::total_cmp);
        metrics.push(("setup_s", median(setups), "s"));
        metrics.push(("queries_per_s", lat.len() as f64 / wall_s, "1/s"));
        metrics.push(("query_p50_ms", harrell_davis(&lat, 0.5) * 1e3, "ms"));
        metrics.push(("query_p90_ms", harrell_davis(&lat, 0.9) * 1e3, "ms"));
        metrics.push(("peak_heap_mib", heap, "MiB"));
        let n = stream.done.len();
        let samples = format!(
            "\"queries\":{n},\"timed_queries\":{},\"peak_rss_mib\":{rss}",
            lat.len()
        );
        (n, failed, samples)
    } else {
        let half = args.seconds / 2.0;
        let plain = run_stream(&w, half, None)?;
        let tracer = Tracer::new();
        let jobs_before = adapter::pool_stats().map_or(0, |s| s.jobs);
        let traced = run_stream(&w, half, Some(&tracer))?;
        let jobs = adapter::pool_stats().map_or(0, |s| s.jobs) - jobs_before;
        let failed = gate(&w, &plain)? + gate(&w, &traced)?;
        let spans = tracer.take_spans();
        let selfs = trace::self_times(&spans);
        let capacity = threads as f64 * traced.wall_s;
        let layer = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
        let attributed: f64 = LAYERS.iter().map(|l| layer(l)).sum();
        let busy: f64 = selfs.values().sum();
        let c = |name: &str| tracer.counter(name);
        let plain_qps = plain.done.len() as f64 / plain.wall_s;
        let traced_qps = traced.done.len() as f64 / traced.wall_s;
        let hits = c("cache.pattern_hits") + c("cache.round_hits");

        metrics.push(("core.search.self_s", layer("core.search"), "s"));
        metrics.push((
            "core.search.candidates",
            c("core.search.candidates"),
            "count",
        ));
        metrics.push(("schedule.build_busy_s", layer("schedule.build"), "s"));
        for name in ["schedule.builds", "schedule.rounds", "schedule.messages"] {
            metrics.push((name, c(name), "count"));
        }
        metrics.push(("bound.aggregate_busy_s", layer("bound.aggregate"), "s"));
        metrics.push(("bound.per_rail_busy_s", layer("bound.per_rail"), "s"));
        for name in ["bound.evaluated", "bound.pruned", "bound.tight_pruned"] {
            metrics.push((name, c(name), "count"));
        }
        metrics.push((
            "bound.prune_ratio",
            ratio(c("bound.pruned"), c("core.search.candidates")),
            "ratio",
        ));
        metrics.push((
            "bound.tight_yield",
            ratio(c("bound.tight_pruned"), c("bound.tight_calls")),
            "ratio",
        ));
        metrics.push((
            "bound.tightness_p50",
            median(tracer.samples("bound.tightness")),
            "ratio",
        ));
        metrics.push(("cost.lockstep_busy_s", layer("cost.lockstep"), "s"));
        metrics.push(("cost.lockstep_calls", c("cost.lockstep_calls"), "count"));
        for name in ["cache.pattern_hits", "cache.round_hits", "cache.misses"] {
            metrics.push((name, c(name), "count"));
        }
        metrics.push((
            "cache.hit_ratio",
            ratio(hits, hits + c("cache.misses")),
            "ratio",
        ));
        metrics.push(("cache.entries", c("cache.entries"), "count"));
        metrics.push(("fluid.busy_s", layer("fluid"), "s"));
        metrics.push(("fluid.runs", c("fluid.runs"), "count"));
        metrics.push(("envelope.busy_s", layer("envelope"), "s"));
        for name in ["envelope.builds", "envelope.replays", "envelope.fallbacks"] {
            metrics.push((name, c(name), "count"));
        }
        metrics.push(("par.threads", threads as f64, "count"));
        metrics.push(("par.jobs", jobs as f64, "count"));
        metrics.push(("par.utilization", ratio(busy, capacity), "ratio"));
        metrics.push((
            "trace.unattributed_frac",
            1.0 - ratio(attributed, capacity),
            "ratio",
        ));
        metrics.push((
            "trace.overhead_frac",
            1.0 - ratio(traced_qps, plain_qps),
            "ratio",
        ));

        let dir = "perfbench/out";
        let path = format!("{dir}/trace-{}-{}.json", args.workload, args.seed);
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
        std::fs::write(&path, trace::chrome_json(&spans))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        let n = plain.done.len() + traced.done.len();
        let samples = format!(
            "\"queries\":{},\"traced_queries\":{},\"spans\":{},\"trace_file\":\"{path}\"",
            plain.done.len(),
            traced.done.len(),
            spans.len()
        );
        (n, failed, samples)
    };

    println!(
        "run: {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"threads\":{threads},\
         \"host_cores\":{host_cores},\"client_cpus\":{client_cpus},\"setup_samples\":{setup_samples},\
         {samples}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(", ")
    );
    Ok(())
}
