//! The metric catalogue: every name the benchmark reports, with its
//! unit. `BENCHMARK.json` at the repository root lists the same names
//! (a test keeps the two in step).

use std::collections::BTreeMap;

/// Metric values of one run, by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// End-to-end metrics, reported with tracing off, on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_khz", "kHz"),
    ("point_latency_p50_s", "s"),
    ("point_latency_p90_s", "s"),
    ("job_latency_p50_s", "s"),
    ("job_latency_p95_s", "s"),
    ("status_latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by the traced run, on every workload; a
/// layer a workload does not exercise reads 0. `status_latency_p95_ms` is
/// measured end to end but reported here, without a regression bound:
/// the tail of a sub-10 ms poll on a 2-CPU VM is set by host scheduling,
/// and its run-to-run spread exceeded the largest bound allowed.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("status_latency_p95_ms", "ms"),
    ("runner.worker_busy_share", "ratio"),
    ("runner.tail_idle_s", "s"),
    ("dcl1.build_ms_p50", "ms"),
    ("dcl1.host_ns_per_cycle", "ns/cycle"),
    ("phase.issue_ns_per_instr", "ns/instr"),
    ("phase.noc1_ns_per_flit", "ns/flit"),
    ("phase.mem_ns_per_l2_access", "ns/access"),
    ("shard.barrier_wait_share", "ratio"),
    ("shard.exchange_share", "ratio"),
    ("shard.busy_imbalance", "ratio"),
    ("store.mem_lookup_us_p50", "us"),
    ("store.disk_lookup_us_p50", "us"),
    ("store.fill_us_p50", "us"),
    ("store.hit_ratio", "ratio"),
    ("store.flight_waits", "count"),
    ("store.simulated", "count"),
    ("resilience.retries", "count"),
    ("resilience.quarantines", "count"),
    ("dcl1d.submit_ms_p50", "ms"),
    ("dcl1d.submit_ms_p95", "ms"),
    ("dcl1d.hit_job_ms_p50", "ms"),
    ("dcl1d.sim_job_s_p50", "s"),
    ("dcl1d.queue_depth_p95", "count"),
    ("dcl1d.status_bytes_p95", "bytes"),
    ("sim.cycles", "count"),
    ("gpu.instructions", "count"),
    ("noc.noc1_flits", "count"),
    ("noc.noc2_flits", "count"),
    ("mem.l2_accesses", "count"),
    ("mem.dram_reads", "count"),
    ("dcl1.l1_misses", "count"),
    ("self_s.bench", "s"),
    ("self_s.runner", "s"),
    ("self_s.dcl1", "s"),
    ("self_s.store", "s"),
    ("self_s.dcl1d", "s"),
    ("loadgen.lag_p95_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("failed_frac", "ratio"),
];

/// Renders the result line: the named metrics of `catalogue` from
/// `values`, as one JSON object.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[(&'static str, &'static str)],
    values: &Metrics,
) -> String {
    let body: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(f64::NAN);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcl1_obs::json::Json;

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect("field").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid json");
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let mut v = Metrics::new();
        v.insert("setup_s", 0.5);
        let line = result_line(true, 3, 0, END_TO_END, &v);
        let doc = Json::parse(&line).expect("valid json");
        let m = doc.get("metrics").expect("metrics");
        assert_eq!(
            m.get("setup_s")
                .and_then(|x| x.get("value"))
                .and_then(Json::as_f64),
            Some(0.5)
        );
        // A missing value renders as 0 rather than breaking the line.
        assert_eq!(
            m.get("wall_s")
                .and_then(|x| x.get("value"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(3.0));
    }
}
