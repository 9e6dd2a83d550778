//! Intra-point determinism acceptance: partitioning the machine into any
//! number of execution domains — worker threads on or off — must not move
//! a single byte of statistics, and must not change a point's memo-cache
//! identity.
//!
//! Builds the machines directly rather than through `runner::run_app` so
//! a memoized result can never satisfy (and so mask) the comparison: every
//! leg of the grid actually simulates.

use dcl1::{Design, GpuConfig, GpuSystem, SimOptions};
use dcl1_bench::runner::{self, RunRequest};
use dcl1_bench::Scale;
use dcl1_workloads::by_name;
use std::str::FromStr;

/// The designs the grid covers: a private aggregation (NoC#1 spanning
/// few crossbars), the fully shared design (one big crossbar, so one
/// domain at any shard count), and the clustered flagship.
const GRID_DESIGNS: [&str; 3] = ["pr4", "sh16", "sh16+c8+boost"];

/// Simulates C-BLK at smoke scale under `shards` execution domains and
/// returns the canonical byte dump of the full `RunStats` (every field,
/// fixed formatting — the same artifact sweep CI diffs).
fn canonical(design: &Design, shards: usize, force_threads: bool) -> String {
    canonical_run(design, shards, force_threads).0
}

/// [`canonical`], plus whether worker threads ran any domain (a pooled
/// run times its workers' regions; an inline run reports no busy time
/// for them).
fn canonical_run(design: &Design, shards: usize, force_threads: bool) -> (String, bool) {
    let cfg = GpuConfig::default();
    let app = by_name("C-BLK").expect("C-BLK workload").scaled(1, 16);
    let opts =
        SimOptions { warmup_instructions: app.total_instructions() / 3, ..SimOptions::default() };
    let mut sys =
        GpuSystem::build(&cfg, design, &app, opts).unwrap_or_else(|e| panic!("build: {e}"));
    sys.set_shards(shards);
    assert_eq!(sys.shards(), domains(design, shards), "{}: shard request clamp", design.name());
    if force_threads {
        sys.set_shard_threads(true);
    }
    let stats = sys.run();
    let pooled = sys.shard_report().busy_nanos.iter().skip(1).any(|&ns| ns > 0);
    (runner::canonical_stats_dump(&[(design.name(), stats)]), pooled)
}

/// Domains a `shards`-way request yields: one per NoC#1 cluster at most
/// (a direct design counts each core as its own cluster), so every
/// partition keeps a core, its home nodes and its crossbar together.
fn domains(design: &Design, shards: usize) -> usize {
    let topo = design.topology(&GpuConfig::default()).expect("design resolves");
    shards.clamp(1, topo.clusters)
}

#[test]
fn sharded_stats_match_sequential_across_grid() {
    for name in GRID_DESIGNS {
        let design = Design::from_str(name).unwrap_or_else(|e| panic!("{name}: {e}"));
        let sequential = canonical(&design, 1, false);
        for shards in [2, 4, 8] {
            let sharded = canonical(&design, shards, false);
            assert_eq!(
                sharded, sequential,
                "{name}: stats differ between 1 and {shards} shards"
            );
        }
    }
}

#[test]
fn forced_thread_pool_matches_sequential() {
    // Threads default off on small hosts; forcing the pool on exercises
    // the real hand-off/barrier/recall path regardless of core count —
    // at 8 shards, with more shard threads than most CI hosts have CPUs.
    // One design per partition kind; every multi-domain partition runs
    // on the pool:
    // - baseline: direct attachment, domain-local outbox exchange;
    // - pr4, sh16+c8+boost: cluster-aligned NoC#1 (pr4's 4 clusters cap
    //   an 8-shard request at 4 domains);
    // - sh16: one 80x16 crossbar, so one domain and no pool even with
    //   threads forced on.
    for name in ["baseline", "pr4", "sh16+c8+boost", "sh16"] {
        let design = Design::from_str(name).unwrap_or_else(|e| panic!("{name}: {e}"));
        let sequential = canonical(&design, 1, false);
        for shards in [2, 4, 8] {
            let (pooled, used_pool) = canonical_run(&design, shards, true);
            assert_eq!(pooled, sequential, "{name}: thread pool changed stats at {shards} shards");
            let expect_pool = domains(&design, shards) > 1;
            assert_eq!(
                used_pool, expect_pool,
                "{name}: at {shards} shards the pool should {}run",
                if expect_pool { "" } else { "not " }
            );
        }
    }
}

#[test]
fn infeasible_topologies_clamp_to_one_domain() {
    let cfg = GpuConfig::default();
    let app = by_name("C-BLK").expect("C-BLK workload").scaled(1, 16);
    let mut sys = GpuSystem::build(&cfg, &Design::IdealSingleL1, &app, SimOptions::default())
        .expect("build ideal");
    sys.set_shards(8);
    assert_eq!(sys.shards(), 1, "ideal single L1 must stay sequential");
}

#[test]
fn memo_key_is_independent_of_shard_count() {
    // The shard count is an execution strategy, not a simulation input:
    // a sharded and a sequential run share one cache entry, which is only
    // sound because their stats are byte-identical (tests above).
    let design = Design::from_str("pr4").expect("pr4 parses");
    let req = RunRequest::new(by_name("C-BLK").expect("C-BLK workload"), design);
    runner::set_shard_override(1);
    let key_seq = runner::memo_key_hex(&req, Scale::Smoke);
    runner::set_shard_override(8);
    let key_sharded = runner::memo_key_hex(&req, Scale::Smoke);
    runner::set_shard_override(0);
    assert_eq!(key_seq, key_sharded, "shard override leaked into the memo key");
}
