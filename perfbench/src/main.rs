//! The repository benchmark: three workloads over the DC-L1 simulator
//! stack, each in its own process, printing one JSON result line.
//!
//! ```text
//! perfbench --workload <cold-sweep|shard-scaling|daemon-mix> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the result carries the end-to-end metrics; with
//! `--trace 1` the per-layer metrics of a traced run, plus
//! `trace.overhead_frac` against an untraced run of the same seed made
//! first in a child process. `--seconds` is the daemon-mix arrival
//! window; the sweeps measure one whole pass of the grid, the unit the
//! digest gate checks. Scratch state (the run's fresh result store, the
//! span file) lives under `.bench_work/` in the working directory.
//! See `perfbench/README.md` for the workloads and what each metric is
//! predicted to move.

mod daemon_mix;
mod gate;
mod metrics;
mod stats;
mod sweep;
mod trace;

use dcl1_obs::json::Json;
use gate::ThreadBudget;
use metrics::{result_line, Metrics, END_TO_END, PER_LAYER};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use trace::SpanLog;

/// A run that has not finished by now is killed, child first, so the
/// process always exits well inside the 180 s a run is allowed.
const RUN_DEADLINE: Duration = Duration::from_secs(170);

/// The child process currently running a leg of this run, if any.
static CHILD: Mutex<Option<Child>> = Mutex::new(None);

/// What a workload run produced.
pub struct Outcome {
    /// Every metric measured (end-to-end and per-layer).
    pub metrics: Metrics,
    /// Operations attempted: points, or daemon jobs.
    pub attempted: u64,
    /// Failed operations: quarantined points, refused submits, digest
    /// mismatches.
    pub failed: u64,
    /// Why the run is incorrect or failed operations, one line each.
    pub errors: Vec<String>,
    /// Digest mismatches and other correctness failures.
    pub incorrect: bool,
    /// Human-readable report lines.
    pub report: Vec<String>,
    /// Spans recorded by the benchmark.
    pub spans: SpanLog,
}

impl Outcome {
    fn new(attempted: u64) -> Outcome {
        Outcome {
            metrics: Metrics::new(),
            attempted,
            failed: 0,
            errors: Vec::new(),
            incorrect: false,
            report: Vec::new(),
            spans: SpanLog::default(),
        }
    }

    /// Records a digest mismatch: the run is incorrect and the mismatch
    /// counts as one failure.
    fn fail(&mut self, why: String) {
        self.incorrect = true;
        self.failed += 1;
        self.errors.push(why);
    }
}

/// One workload's fixed configuration.
#[derive(Debug, Clone, Copy)]
struct Workload {
    name: &'static str,
    shards: usize,
    point_workers: usize,
    daemon_workers: usize,
    /// Passes per untraced run, each in its own process; the run reports
    /// each metric's median over them.
    passes: usize,
}

impl Workload {
    fn budget(self) -> ThreadBudget {
        ThreadBudget {
            shards: self.shards,
            concurrent_points: self.point_workers.max(self.daemon_workers),
        }
    }
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "cold-sweep",
        shards: 1,
        point_workers: 2,
        daemon_workers: 0,
        passes: 2,
    },
    Workload {
        name: "shard-scaling",
        shards: 2,
        point_workers: 1,
        daemon_workers: 0,
        passes: 1,
    },
    Workload {
        name: "daemon-mix",
        shards: 1,
        point_workers: 0,
        daemon_workers: 2,
        passes: 1,
    },
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: measure one pass and report every metric.
    pass: bool,
    /// Internal: run only the daemon-mix pre-fill into this store.
    prefill_store: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let name = value("--workload").ok_or("missing --workload")?;
    let workload = *WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = value("--seed")
        .ok_or("missing --seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")
        .unwrap_or("20")
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} outside (0, 60]"));
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other:?}: expected 0 or 1")),
    };
    let pass = argv.iter().any(|a| a == "--pass");
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        pass,
        prefill_store: value("--prefill-store").map(PathBuf::from),
    })
}

/// Runs this binary again with `args`, waiting for it (the watchdog can
/// kill it meanwhile). Returns its standard output.
fn run_child(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let child = cmd.spawn().map_err(|e| format!("spawning {args:?}: {e}"))?;
    *CHILD.lock().expect("child lock") = Some(child);
    let status = loop {
        let mut slot = CHILD.lock().expect("child lock");
        let child = slot.as_mut().ok_or("child was killed")?;
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            break status;
        }
        drop(slot);
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut child = CHILD
        .lock()
        .expect("child lock")
        .take()
        .ok_or("child was killed")?;
    let mut stdout = String::new();
    if let Some(mut pipe) = child.stdout.take() {
        pipe.read_to_string(&mut stdout)
            .map_err(|e| e.to_string())?;
    }
    if status.success() {
        Ok(stdout)
    } else {
        Err(format!("child {args:?} exited with {status}"))
    }
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn start_watchdog() {
    std::thread::spawn(|| {
        std::thread::sleep(RUN_DEADLINE);
        if let Some(mut child) = CHILD.lock().map(|mut c| c.take()).unwrap_or(None) {
            let _ = child.kill();
            let _ = child.wait();
        }
        eprintln!(
            "perfbench: run exceeded {} s; aborting",
            RUN_DEADLINE.as_secs()
        );
        std::process::exit(3);
    });
}

/// A pass measured in a child process: its metrics and counts, read
/// back from its result line.
struct PassResult {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    correct: bool,
    report: Vec<String>,
}

/// Runs one untraced pass of `args`' workload in a child process.
fn child_pass(args: &Args) -> Result<PassResult, String> {
    let argv: Vec<String> = [
        "--workload",
        args.workload.name,
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
        "--pass",
    ]
    .iter()
    .map(ToString::to_string)
    .collect();
    let stdout = run_child(&argv)?;
    let mut lines: Vec<String> = stdout.lines().map(String::from).collect();
    let last = lines.pop().unwrap_or_default();
    let doc = Json::parse(&last).map_err(|e| format!("pass result line: {e}"))?;
    let count = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let mut metrics = Metrics::new();
    for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
        let v = doc
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        if let Some(v) = v {
            metrics.insert(name, v);
        }
    }
    Ok(PassResult {
        metrics,
        attempted: count("attempted"),
        failed: count("failed"),
        correct: matches!(doc.get("correct"), Some(Json::Bool(true))),
        report: lines,
    })
}

/// Measures one pass of the workload in this process.
fn measure_pass(args: &Args, store: &Path) -> Result<Outcome, String> {
    let w = args.workload;
    let base = Instant::now();
    let mut out = match w.name {
        "cold-sweep" => sweep::cold_sweep(args.seed, w.point_workers, base)?,
        "shard-scaling" => sweep::shard_scaling(args.seed, w.shards, base)?,
        _ => {
            let prefill = || -> Result<(), String> {
                let argv: Vec<String> = [
                    "--workload",
                    w.name,
                    "--seed",
                    &args.seed.to_string(),
                    "--prefill-store",
                ]
                .iter()
                .map(ToString::to_string)
                .chain(std::iter::once(store.display().to_string()))
                .collect();
                run_child(&argv).map(drop)
            };
            daemon_mix::run(
                args.seed,
                args.seconds,
                w.daemon_workers,
                store,
                base,
                &prefill,
            )?
        }
    };
    // A layer this workload does not exercise reads 0.
    for (name, _) in PER_LAYER {
        out.metrics.entry(name).or_insert(0.0);
    }
    out.metrics.insert("peak_rss_mb", peak_rss_mb());
    out.metrics.insert(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    for (layer, secs) in out.spans.self_times() {
        let name = PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .find(|n| n.strip_prefix("self_s.") == Some(layer));
        if let Some(name) = name {
            out.metrics.insert(name, secs);
        }
    }
    Ok(out)
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    w.budget()
        .check(nproc)
        .map_err(|e| format!("refusing {}: {e}", w.name))?;

    // The store is process-global and opened lazily from the
    // environment: point it at a fresh directory before anything touches
    // it, and drop any inherited tier settings.
    let work = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".bench_work");
    let store = match &args.prefill_store {
        Some(dir) => dir.clone(),
        None => work.join(format!("{}-{}", w.name, std::process::id())),
    };
    std::fs::create_dir_all(&store).map_err(|e| format!("{}: {e}", store.display()))?;
    for var in [
        "DCL1_CACHE_SHARED_DIR",
        "DCL1_CACHE_SHARED_WRITEBACK",
        "DCL1_CACHE_BUDGET_BYTES",
        "DCL1_CACHE_MEM_BUDGET_BYTES",
    ] {
        std::env::remove_var(var);
    }
    std::env::set_var("DCL1_CACHE_DIR", &store);
    if args.prefill_store.is_some() {
        return daemon_mix::prefill_leg(args.seed, w.daemon_workers);
    }

    println!(
        "perfbench: workload={} seed={} seconds={} trace={} passes={} nproc={nproc} shards={} point_workers={} daemon_workers={} scale=smoke",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.trace || args.pass { 1 } else { w.passes },
        w.shards,
        w.point_workers,
        w.daemon_workers
    );
    let (catalogue, correct, attempted, failed, metrics) = if args.pass
        || (!args.trace && w.passes == 1)
    {
        let out = measure_pass(args, &store);
        let _ = std::fs::remove_dir_all(&store);
        let out = out?;
        print_outcome(&out);
        let catalogue: Vec<(&str, &str)> = if args.pass {
            END_TO_END.iter().chain(PER_LAYER).copied().collect()
        } else {
            END_TO_END.to_vec()
        };
        (
            catalogue,
            !out.incorrect,
            out.attempted,
            out.failed,
            out.metrics,
        )
    } else if args.trace {
        // The untraced pass runs first, alone, so the overhead compares
        // like with like.
        let untraced = child_pass(args)?;
        let out = measure_pass(args, &store);
        let _ = std::fs::remove_dir_all(&store);
        let mut out = out?;
        if let (Some(u), Some(&t)) = (untraced.metrics.get("wall_s"), out.metrics.get("wall_s")) {
            out.metrics.insert("trace.overhead_frac", t / u - 1.0);
        }
        let path = work.join(format!("spans-{}-seed{}.jsonl", w.name, args.seed));
        out.spans
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "perfbench: {} spans written to {}",
            out.spans.spans.len(),
            path.display()
        );
        print_outcome(&out);
        let correct = !out.incorrect && untraced.correct;
        (
            PER_LAYER.to_vec(),
            correct,
            out.attempted,
            out.failed,
            out.metrics,
        )
    } else {
        let _ = std::fs::remove_dir_all(&store);
        let passes = (0..w.passes)
            .map(|_| child_pass(args))
            .collect::<Result<Vec<_>, _>>()?;
        for line in &passes[0].report {
            println!("{line}");
        }
        let mut metrics = Metrics::new();
        for (name, _) in END_TO_END {
            let values: Vec<f64> = passes
                .iter()
                .filter_map(|p| p.metrics.get(name).copied())
                .collect();
            if values.len() == passes.len() {
                metrics.insert(name, stats::percentile(&values, 50.0));
            }
        }
        (
            END_TO_END.to_vec(),
            passes.iter().all(|p| p.correct),
            passes.iter().map(|p| p.attempted).sum(),
            passes.iter().map(|p| p.failed).sum(),
            metrics,
        )
    };
    let missing: Vec<&str> = catalogue
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| !metrics.get(n).is_some_and(|v| v.is_finite()))
        .collect();
    if !missing.is_empty() {
        println!("perfbench: FAILED metrics not measured: {missing:?}");
    }
    println!(
        "{}",
        result_line(
            correct && missing.is_empty(),
            attempted,
            failed,
            &catalogue,
            &metrics
        )
    );
    Ok(())
}

fn print_outcome(out: &Outcome) {
    for line in &out.report {
        println!("{line}");
    }
    for e in &out.errors {
        println!("perfbench: FAILED {e}");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <cold-sweep|shard-scaling|daemon-mix> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    start_watchdog();
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
