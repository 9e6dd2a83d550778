//! Registry merge-determinism acceptance: a machine's counter-registry
//! snapshot walks components in global order, so partitioning the machine
//! into any number of execution domains must not move a single byte of
//! the rendered registry — and enabling the registry (or the profiler, or
//! a progress hook) must not move a single byte of the statistics.
//!
//! Builds machines directly rather than through `runner::run_app` so a
//! memoized result can never satisfy (and so mask) the comparison.

use dcl1::{Design, GpuConfig, GpuSystem, ProgressHook, SimOptions};
use dcl1_bench::runner;
use dcl1_workloads::by_name;
use std::str::FromStr;

/// The same grid the stats-determinism suite covers: a private
/// aggregation, the fully shared design (one crossbar, so one domain),
/// and the clustered flagship (cluster-aligned).
const GRID_DESIGNS: [&str; 3] = ["pr4", "sh16", "sh16+c8+boost"];

/// Builds the C-BLK smoke-scale point under `shards` domains and hands the
/// machine to `f` (the workload must outlive the machine, so the scope
/// lives here).
fn with_system<R>(design: &Design, shards: usize, f: impl FnOnce(&mut GpuSystem<'_>) -> R) -> R {
    let cfg = GpuConfig::default();
    let app = by_name("C-BLK").expect("C-BLK workload").scaled(1, 16);
    let opts =
        SimOptions { warmup_instructions: app.total_instructions() / 3, ..SimOptions::default() };
    let mut sys =
        GpuSystem::build(&cfg, design, &app, opts).unwrap_or_else(|e| panic!("build: {e}"));
    sys.set_shards(shards);
    f(&mut sys)
}

/// Runs the point under `shards` domains with the registry on and returns
/// the rendered registry snapshot (text form — every counter, gauge, and
/// histogram bucket).
fn registry_render(design: &Design, shards: usize) -> String {
    with_system(design, shards, |sys| {
        sys.enable_registry();
        sys.run();
        let mm = sys.take_metrics().expect("registry was enabled");
        let mut out = String::new();
        mm.registry().render_into(&mut out);
        assert!(!out.is_empty(), "{}: empty registry render", design.name());
        out
    })
}

#[test]
fn registry_snapshot_is_partition_independent_across_grid() {
    for name in GRID_DESIGNS {
        let design = Design::from_str(name).unwrap_or_else(|e| panic!("{name}: {e}"));
        let sequential = registry_render(&design, 1);
        for shards in [2, 4, 8] {
            let sharded = registry_render(&design, shards);
            assert_eq!(
                sharded, sequential,
                "{name}: registry snapshot differs between 1 and {shards} shards"
            );
        }
    }
}

#[test]
fn observability_does_not_move_statistics() {
    // The hard gate: registry + profiler + progress hook enabled vs
    // everything off — statistics must be byte-identical.
    let design = Design::from_str("sh16+c8+boost").expect("flagship parses");
    let baseline = with_system(&design, 4, |sys| {
        runner::canonical_stats_dump(&[(design.name(), sys.run())])
    });

    let (dump, profile_nanos) = with_system(&design, 4, |sys| {
        sys.enable_registry();
        sys.enable_profiler();
        // Attaching a hook changes the stepping path (the fast-forward
        // clamp); a smoke run ends before the first callback boundary, so
        // the body never fires — the clamp alone must stay neutral.
        sys.set_progress_hook(ProgressHook::new(|_cycle, _retired| {}));
        let stats = sys.run();
        let dump = runner::canonical_stats_dump(&[(design.name(), stats)]);
        let profile = sys.take_profiler().expect("profiler was enabled");
        (dump, profile.total_nanos())
    });
    assert_eq!(dump, baseline, "observability moved statistics");
    assert!(profile_nanos > 0, "profiler recorded nothing");
}

#[test]
fn registry_snapshot_reflects_run_totals() {
    let design = Design::from_str("pr4").expect("pr4 parses");
    with_system(&design, 2, |sys| {
        sys.enable_registry();
        let stats = sys.run();
        let mm = sys.take_metrics().expect("registry was enabled");
        let reg = mm.registry();
        assert_eq!(reg.get("gpu.instructions"), Some(stats.instructions));
        assert_eq!(reg.get("dcl1.l1_accesses"), Some(stats.l1_accesses));
        assert_eq!(reg.get("dcl1.l1_misses"), Some(stats.l1_misses));
        assert_eq!(reg.get("mem.l2_accesses"), Some(stats.l2_accesses));
        assert!(reg.get("dcl1.cycles").is_some_and(|c| c > 0));
        // Flow conservation at drain: everything produced was consumed.
        assert_eq!(reg.get("shard.txns_produced"), reg.get("shard.txns_consumed"));
        assert_eq!(reg.get("shard.txns_in_flight"), Some(0));
    });
}
