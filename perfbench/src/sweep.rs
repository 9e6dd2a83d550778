//! The two simulator workloads over the 112-point smoke grid:
//! `cold-sweep` through the runner's supervised sweep, and
//! `shard-scaling` through `GpuSystem` directly, one sharded point at a
//! time.

use crate::gate::{self, REFERENCE_DIGEST};
use crate::metrics::Metrics;
use crate::stats::{geomean, log2_hist_median, percentile, sample_note};
use crate::trace::{point_intervals, SpanLog, Tap};
use crate::Outcome;
use dcl1::{GpuConfig, GpuSystem, RunStats, SimOptions};
use dcl1_bench::runner::{self, RunRequest};
use dcl1_bench::{grid, Scale};
use dcl1_common::SplitMix64;
use dcl1_obs::profiler::{Phase, PhaseProfiler};
use dcl1_obs::progress::ProgressSink;
use dcl1_obs::registry::Registry;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every point runs at smoke scale (1/16-length traces).
pub const SCALE: Scale = Scale::Smoke;

/// Status polls per second. The poll is an in-process snapshot of about
/// 0.1 ms, so polling often costs little and gives the p95 fifty samples
/// beyond it in each pass.
const STATUS_HZ: f64 = 100.0;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The 112-point smoke grid in canonical order.
pub fn smoke_grid() -> Vec<RunRequest> {
    let cfg = GpuConfig::default();
    grid::build_grid(
        &grid::default_designs(&cfg),
        &[],
        &cfg,
        SimOptions::default(),
    )
}

/// The grid in seeded, cost-balanced rounds. Points are ranked by
/// [`app_cost`] and cut into [`STRATA`] strata of similar
/// cost; the seed orders each stratum, and round `r` takes the `r`-th
/// point of every stratum, heaviest first. Every round then carries about
/// the same work, so the seed cannot decide whether the heavy points
/// bunch at the start (where one burst of host noise moves the latency
/// tail), at the end (where one of them idles a worker), or before the
/// median completion.
pub fn seeded_order(seed: u64) -> Vec<RunRequest> {
    let reqs = by_cost(smoke_grid());
    let per = reqs.len().div_ceil(STRATA);
    let mut rng = SplitMix64::new(seed);
    let strata: Vec<Vec<RunRequest>> = reqs
        .chunks(per)
        .map(|stratum| {
            // One point of each cost-adjacent pair runs in the first half
            // of the rounds and the other in the second, so half the work
            // is done at the median completion whatever the seed.
            let (mut first, mut second) = (Vec::new(), Vec::new());
            for pair in stratum.chunks(2) {
                let k = usize::try_from(rng.next_below(pair.len() as u64)).expect("0 or 1");
                first.push(pair[k].clone());
                second.extend(pair.get(1 - k).cloned());
            }
            shuffle(&mut first, &mut rng);
            shuffle(&mut second, &mut rng);
            first.extend(second);
            first
        })
        .collect();
    (0..per)
        .flat_map(|r| strata.iter().filter_map(move |s| s.get(r).cloned()))
        .collect()
}

/// `reqs` heaviest first by [`app_cost`] (ties keep grid order).
pub fn by_cost(mut reqs: Vec<RunRequest>) -> Vec<RunRequest> {
    reqs.sort_by_key(|r| std::cmp::Reverse(app_cost(r.app.name)));
    reqs
}

/// Host milliseconds an app's four smoke points took together in one
/// measured `cold-sweep` (2-CPU x86-64 VM). At smoke scale every app
/// retires 16 instructions per wavefront, so no property of the inputs
/// predicts cost; memory behaviour does, and only simulating measures
/// it. The table only balances the seeded orders: a stale entry makes a
/// run's order less even, never its results wrong.
pub fn app_cost(app: &str) -> u32 {
    match app {
        "P-3MM" => 7080,
        "C-RAY" => 7000,
        "P-GEMM" => 5260,
        "R-SC" => 1890,
        "C-BFS" => 1680,
        "S-Scan" => 1530,
        "C-BLK" => 1460,
        "S-SPMV" => 1440,
        "P-3DCONV" => 1220,
        "C-CONV" => 1210,
        "R-PF" | "P-2MM" => 1180,
        "R-NW" | "C-SP" => 1130,
        "P-SYRK" => 1110,
        "R-SRAD" => 1070,
        "R-HS" | "R-KMN" => 1050,
        "C-NN" => 210,
        _ => 900,
    }
}

/// Cost strata in [`seeded_order`]: 14 strata make 8 rounds of 14 points.
const STRATA: usize = 14;

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = usize::try_from(rng.next_below(i as u64 + 1)).expect("index fits");
        items.swap(i, j);
    }
}

/// A request's machine inputs exactly as the runner builds them: the
/// scaled trace, and a warm-up over the first third of the kernel.
fn machine_inputs(req: &RunRequest) -> (dcl1_workloads::AppSpec, SimOptions) {
    let (num, den) = SCALE.ratio();
    let app = req.app.scaled(num, den);
    let mut opts = req.opts;
    if opts.warmup_instructions == 0 {
        opts.warmup_instructions = app.total_instructions() / 3;
    }
    (app, opts)
}

/// Set-up shared by both sweeps: the grid in seeded order, checked by
/// building every point's machine once, so a point that cannot resolve
/// fails before anything is timed. Repeated [`SETUP_REPS`] times;
/// returns the grid, the median set-up seconds, and the `dcl1.build`
/// time of every point.
fn prepare(
    seed: u64,
    spans: &mut SpanLog,
    base: Instant,
) -> Result<(Vec<RunRequest>, f64, Vec<f64>), String> {
    // Opens the run's fresh result store (and purges nothing: it is empty).
    let t_store = Instant::now();
    let _ = runner::memo_stats();
    let store_s = t_store.elapsed().as_secs_f64();
    let mut reps = Vec::new();
    let mut reqs = Vec::new();
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        reqs = seeded_order(seed);
        for req in &reqs {
            let (app, opts) = machine_inputs(req);
            let b = base.elapsed().as_secs_f64();
            GpuSystem::build(&req.cfg, &req.design, &app, opts)
                .map_err(|e| format!("{}: {e}", runner::point_label(req)))?;
            if rep == 0 {
                let e = base.elapsed().as_secs_f64();
                spans.push("dcl1.build", b, e, None, &runner::point_label(req));
            }
        }
        reps.push(t.elapsed().as_secs_f64());
    }
    let builds = spans.durations("dcl1.build");
    Ok((reqs, store_s + percentile(&reps, 50.0), builds))
}

/// Sleeps until `due` (at once if it has passed).
pub fn sleep_until(due: Instant) {
    if let Some(wait) = due.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
}

/// A status poller: every `1/STATUS_HZ` seconds it asks the runner for
/// the sweep's live counters (the block `dcl1d`'s status embeds) and
/// times the reply from the poll's scheduled time.
struct StatusPoller {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<Vec<(f64, f64)>>,
}

impl StatusPoller {
    fn start() -> StatusPoller {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let start = Instant::now();
            let mut samples = Vec::new();
            let mut out = String::new();
            for k in 0u32.. {
                let due = start + Duration::from_secs_f64(f64::from(k) / STATUS_HZ);
                sleep_until(due);
                if flag.load(Ordering::SeqCst) {
                    break;
                }
                let lag = Instant::now().duration_since(due).as_secs_f64();
                out.clear();
                runner::sweep_registry_snapshot().render_json_object_into(&mut out);
                std::hint::black_box(runner::memo_stats());
                samples.push((due.elapsed().as_secs_f64(), lag));
            }
            samples
        });
        StatusPoller { stop, handle }
    }

    /// Stops polling; returns `(latency_s, lag_s)` per poll.
    fn finish(self) -> Vec<(f64, f64)> {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("status poller panicked")
    }
}

/// Simulator-layer metrics from a registry and phase profile covering
/// `sim_cycles` simulated cycles in `sim_wall_ns` host nanoseconds.
pub fn sim_layers(
    m: &mut Metrics,
    reg: &Registry,
    prof: &PhaseProfiler,
    sim_cycles: u64,
    sim_wall_ns: f64,
) {
    let count = |name: &str| reg.get(name).unwrap_or(0) as f64;
    let per = |nanos: u64, n: f64| if n > 0.0 { nanos as f64 / n } else { 0.0 };
    m.insert("sim.cycles", sim_cycles as f64);
    for name in [
        "gpu.instructions",
        "noc.noc1_flits",
        "noc.noc2_flits",
        "mem.l2_accesses",
        "mem.dram_reads",
        "dcl1.l1_misses",
    ] {
        m.insert(name, count(name));
    }
    m.insert(
        "dcl1.host_ns_per_cycle",
        per(sim_wall_ns as u64, sim_cycles as f64),
    );
    m.insert(
        "phase.issue_ns_per_instr",
        per(prof.nanos(Phase::Issue), count("gpu.instructions")),
    );
    m.insert(
        "phase.noc1_ns_per_flit",
        per(prof.nanos(Phase::Noc1), count("noc.noc1_flits")),
    );
    m.insert(
        "phase.mem_ns_per_l2_access",
        per(prof.nanos(Phase::Mem), count("mem.l2_accesses")),
    );
    m.insert(
        "shard.exchange_share",
        per(prof.nanos(Phase::Exchange), sim_wall_ns),
    );
}

/// Store and supervision metrics from the runner's process-wide view.
pub fn store_layers(m: &mut Metrics) {
    let reg = runner::sweep_registry_snapshot();
    let us = |name: &str| reg.buckets(name).map_or(0.0, |b| log2_hist_median(b) / 1e3);
    let memo = runner::memo_stats();
    let log = runner::recovery_log();
    m.insert("store.mem_lookup_us_p50", us("memo.mem_lookup_nanos"));
    m.insert("store.disk_lookup_us_p50", us("memo.disk_lookup_nanos"));
    m.insert("store.fill_us_p50", us("memo.fill_nanos"));
    m.insert("store.hit_ratio", memo.hit_rate());
    m.insert("store.flight_waits", memo.flight_waits as f64);
    m.insert("store.simulated", memo.simulated as f64);
    m.insert("resilience.retries", log.retries as f64);
    m.insert("resilience.quarantines", log.quarantines as f64);
}

/// `tail_idle_s`: from the first completion after the last point
/// started (a worker that found the queue empty) to the last completion.
fn tail_idle(intervals: &[(String, f64, f64, Option<String>)]) -> f64 {
    let last_start = intervals.iter().map(|i| i.1).fold(f64::MIN, f64::max);
    let ends = intervals.iter().map(|i| i.2);
    let end = ends.clone().fold(f64::MIN, f64::max);
    let first_idle = ends.filter(|&e| e >= last_start).fold(f64::MAX, f64::min);
    if intervals.is_empty() {
        0.0
    } else {
        end - first_idle
    }
}

/// End-to-end metrics both sweeps share.
fn sweep_end_to_end(
    out: &mut Outcome,
    wall: f64,
    sim_cycles: u64,
    point_s: &[f64],
    done_s: &[f64],
    status: &[(f64, f64)],
) {
    out.report
        .push(sample_note("point_latency", point_s.len(), 90.0));
    out.report
        .push(sample_note("job_latency", done_s.len(), 95.0));
    out.report
        .push(sample_note("status_latency", status.len(), 95.0));
    let m = &mut out.metrics;
    let lat_ms: Vec<f64> = status.iter().map(|s| s.0 * 1e3).collect();
    let lag_ms: Vec<f64> = status.iter().map(|s| s.1 * 1e3).collect();
    m.insert("wall_s", wall);
    m.insert("sim_khz", sim_cycles as f64 / wall / 1e3);
    m.insert("point_latency_p50_s", percentile(point_s, 50.0));
    m.insert("point_latency_p90_s", percentile(point_s, 90.0));
    m.insert("job_latency_p50_s", percentile(done_s, 50.0));
    m.insert("job_latency_p95_s", percentile(done_s, 95.0));
    m.insert("status_latency_p50_ms", percentile(&lat_ms, 50.0));
    m.insert("status_latency_p95_ms", percentile(&lat_ms, 95.0));
    m.insert("loadgen.lag_p95_ms", percentile(&lag_ms, 95.0));
}

/// Each design's geomean simulated IPC gain over Baseline across the
/// apps, beside the paper's Fig 14 all-apps figure where it gives one.
fn ipc_gain_report(points: &[(String, RunStats)]) -> Vec<String> {
    let ipc = |s: &RunStats| s.instructions as f64 / s.cycles.max(1) as f64;
    let base: std::collections::BTreeMap<&str, f64> = points
        .iter()
        .filter(|(_, s)| s.design == "Baseline")
        .map(|(l, s)| (l.split('/').next().unwrap_or(l), ipc(s)))
        .collect();
    let mut lines = vec![
        "geomean simulated IPC gain over Baseline (smoke scale, 28 apps; simulated, unvalidated against hardware):".to_string(),
    ];
    for (design, paper) in [("Pr40", "n/a"), ("Sh40", "n/a"), ("Sh40+C10+Boost", "+27%")] {
        let ratios: Vec<f64> = points
            .iter()
            .filter(|(_, s)| s.design == design)
            .filter_map(|(l, s)| base.get(l.split('/').next()?).map(|b| ipc(s) / b))
            .collect();
        let gain = 100.0 * (geomean(&ratios) - 1.0);
        lines.push(format!(
            "  {design:<16} {gain:+6.1}%   paper Fig 14 (all 28, full scale): {paper}"
        ));
    }
    lines
}

/// `cold-sweep`: the grid in seeded order through
/// `runner::run_apps_supervised`, 2 point workers, 1 shard, empty store.
pub fn cold_sweep(seed: u64, workers: usize, base: Instant) -> Result<Outcome, String> {
    let mut spans = SpanLog::default();
    runner::set_shard_override(1);
    let (reqs, setup_s, builds) = prepare(seed, &mut spans, base)?;
    let tap = Tap::new(base);
    runner::set_progress_sink(Some(Arc::new(ProgressSink::new(Box::new(tap.clone())))));

    let poller = StatusPoller::start();
    let t0 = base.elapsed().as_secs_f64();
    let outcome = runner::run_apps_supervised(&reqs, SCALE, workers);
    let t1 = base.elapsed().as_secs_f64();
    let status = poller.finish();
    runner::set_progress_sink(None);

    let labeled: Vec<(String, RunStats)> = reqs
        .iter()
        .zip(&outcome.results)
        .filter_map(|(r, s)| s.clone().map(|s| (runner::point_label(r), s)))
        .collect();
    let mut out = Outcome::new(reqs.len() as u64);
    out.failed = outcome.quarantined.len() as u64;
    out.errors
        .extend(outcome.quarantined.iter().map(|q| q.to_string()));
    if let Err(e) = gate::digest_gate("cold-sweep", &labeled, REFERENCE_DIGEST) {
        out.fail(e);
    }
    out.report.extend(ipc_gain_report(&labeled));

    let events = tap.events();
    let intervals = point_intervals(&events, true);
    let root = spans.push("bench.sweep", t0, t1, None, "sweep");
    for (point, s, e, _) in &intervals {
        spans.push("runner.point", *s, *e, Some(root), point);
    }
    let done_s: Vec<f64> = events
        .iter()
        .filter(|e| e.stage == "completed" && e.tenant.is_none())
        .map(|e| e.t - t0)
        .collect();
    let timings = runner::point_timings();
    let point_s: Vec<f64> = timings.iter().map(|t| t.wall_seconds).collect();
    let sim_cycles: u64 = labeled.iter().map(|(_, s)| s.cycles).sum();
    let wall = t1 - t0;

    sweep_end_to_end(&mut out, wall, sim_cycles, &point_s, &done_s, &status);
    let m = &mut out.metrics;
    m.insert("setup_s", setup_s);
    let busy: f64 = intervals.iter().map(|i| i.2 - i.1).sum();
    m.insert("runner.worker_busy_share", busy / (workers as f64 * wall));
    m.insert("runner.tail_idle_s", tail_idle(&intervals));
    m.insert("dcl1.build_ms_p50", percentile(&builds, 50.0) * 1e3);
    let prof = runner::sweep_phase_profile();
    let sim_wall_ns = runner::memo_stats().wall_nanos as f64;
    sim_layers(
        m,
        &runner::sweep_registry_snapshot(),
        &prof,
        sim_cycles,
        sim_wall_ns,
    );
    m.insert(
        "shard.barrier_wait_share",
        runner::shard_sweep_stats().barrier_wait_nanos as f64 / sim_wall_ns,
    );
    m.insert("shard.busy_imbalance", 1.0);
    store_layers(m);
    out.spans = spans;
    Ok(out)
}

/// `shard-scaling`: the grid in seeded order, one point at a time, each
/// machine built and run through `GpuSystem` with `shards` shard threads.
pub fn shard_scaling(seed: u64, shards: usize, base: Instant) -> Result<Outcome, String> {
    let mut spans = SpanLog::default();
    let (reqs, setup_s, builds) = prepare(seed, &mut spans, base)?;
    let mut reg = Registry::new();
    let mut prof = PhaseProfiler::new();
    let (mut barrier_ns, mut busy_max, mut busy_min) = (0u64, 0u64, 0u64);
    let mut labeled = Vec::new();
    let mut point_s = Vec::new();
    let mut done_s = Vec::new();
    let mut out = Outcome::new(reqs.len() as u64);

    let poller = StatusPoller::start();
    let t0 = base.elapsed().as_secs_f64();
    let root = spans.push("bench.sweep", t0, t0, None, "sweep");
    for req in &reqs {
        let label = runner::point_label(req);
        let (app, opts) = machine_inputs(req);
        let p0 = base.elapsed().as_secs_f64();
        let point = spans.push("bench.point", p0, p0, Some(root), &label);
        let mut sys = GpuSystem::build(&req.cfg, &req.design, &app, opts)
            .map_err(|e| format!("{label}: {e}"))?;
        let b1 = base.elapsed().as_secs_f64();
        spans.push("dcl1.build", p0, b1, Some(point), &label);
        sys.set_shards(shards);
        sys.set_shard_threads(true);
        sys.enable_registry();
        sys.enable_profiler();
        sys.set_watchdog(dcl1::DEFAULT_WATCHDOG_EPOCH);
        let result = sys.run_result();
        let r1 = base.elapsed().as_secs_f64();
        spans.push("dcl1.run", b1, r1, Some(point), &label);
        let rep = sys.shard_report();
        barrier_ns += rep.barrier_wait_nanos;
        busy_max += rep.busy_nanos.iter().copied().max().unwrap_or(0);
        busy_min += rep.busy_nanos.iter().copied().min().unwrap_or(0);
        if let Some(p) = sys.take_profiler() {
            prof.absorb(&p);
        }
        if let Some(mm) = sys.take_metrics() {
            reg.absorb(mm.registry());
        }
        match result {
            Ok(stats) => labeled.push((label, stats)),
            Err(e) => {
                out.failed += 1;
                out.errors.push(format!("{label}: {e}"));
            }
        }
        let p1 = base.elapsed().as_secs_f64();
        spans.spans[point].end = p1;
        point_s.push(p1 - p0);
        done_s.push(p1 - t0);
    }
    let t1 = base.elapsed().as_secs_f64();
    spans.spans[root].end = t1;
    let status = poller.finish();
    if let Err(e) = gate::digest_gate("shard-scaling", &labeled, REFERENCE_DIGEST) {
        out.fail(e);
    }

    let sim_cycles: u64 = labeled.iter().map(|(_, s)| s.cycles).sum();
    let run_ns: f64 = spans.durations("dcl1.run").iter().sum::<f64>() * 1e9;
    let wall = t1 - t0;
    sweep_end_to_end(&mut out, wall, sim_cycles, &point_s, &done_s, &status);
    let m = &mut out.metrics;
    m.insert("setup_s", setup_s);
    m.insert(
        "runner.worker_busy_share",
        point_s.iter().sum::<f64>() / wall,
    );
    m.insert("runner.tail_idle_s", 0.0);
    m.insert("dcl1.build_ms_p50", percentile(&builds, 50.0) * 1e3);
    sim_layers(m, &reg, &prof, sim_cycles, run_ns);
    m.insert("shard.barrier_wait_share", barrier_ns as f64 / run_ns);
    m.insert(
        "shard.busy_imbalance",
        if busy_min > 0 {
            busy_max as f64 / busy_min as f64
        } else {
            0.0
        },
    );
    store_layers(m);
    out.spans = spans;
    Ok(out)
}
