//! The two checks every run passes before it measures or reports: the
//! thread budget (refuse to oversubscribe the host) and the digest gate
//! (every result matches the reference statistics).

use dcl1::RunStats;
use dcl1_bench::runner;

/// `runner::stats_digest` of the 112-point smoke grid (28 apps ×
/// Baseline/Pr40/Sh40/Sh40+C10+Boost), fault-free, at any shard count —
/// the digest `perf_sweep` and `dcl1d` record for the same points.
pub const REFERENCE_DIGEST: &str = "18859340e85217ad";

/// Compares the digest of `points` against `expected`.
///
/// # Errors
///
/// Names both digests when they differ.
pub fn digest_gate(
    what: &str,
    points: &[(String, RunStats)],
    expected: &str,
) -> Result<(), String> {
    let got = runner::stats_digest(points);
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "{what}: digest {got} over {} points, expected {expected}",
            points.len()
        ))
    }
}

/// The compute threads a workload runs at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadBudget {
    /// Shard threads per simulated point.
    pub shards: usize,
    /// Points simulated at once (sweep point workers or daemon workers).
    pub concurrent_points: usize,
}

impl ThreadBudget {
    /// Refuses a configuration whose compute threads exceed `nproc`:
    /// oversubscribed shard threads spin at their epoch barriers and the
    /// numbers would measure the host scheduler, not the program.
    ///
    /// # Errors
    ///
    /// Names the configuration and the host's parallelism.
    pub fn check(self, nproc: usize) -> Result<(), String> {
        let threads = self.shards * self.concurrent_points;
        if threads <= nproc {
            Ok(())
        } else {
            Err(format!(
                "{} shard thread(s) x {} concurrent point(s) = {threads} compute threads exceed nproc = {nproc}",
                self.shards, self.concurrent_points
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points() -> Vec<(String, RunStats)> {
        (0..4u64)
            .map(|i| {
                let stats = RunStats {
                    design: "Baseline".to_string(),
                    cycles: 1000 + i,
                    instructions: 500 * i,
                    mean_load_rtt: 300.5,
                    ..RunStats::default()
                };
                (format!("APP{i}/Baseline"), stats)
            })
            .collect()
    }

    #[test]
    fn digest_gate_fires_on_a_perturbed_stat() {
        let good = points();
        let reference = runner::stats_digest(&good);
        assert!(digest_gate("clean", &good, &reference).is_ok());

        let mut bad = good.clone();
        bad[2].1.l2_misses += 1;
        assert!(digest_gate("counter", &bad, &reference).is_err());

        // A float stat one ulp off is a different result too.
        let mut bad = good.clone();
        bad[1].1.mean_load_rtt = f64::from_bits(bad[1].1.mean_load_rtt.to_bits() + 1);
        assert!(digest_gate("float", &bad, &reference).is_err());

        // A missing point fails; completion order does not matter.
        assert!(digest_gate("missing", &good[1..], &reference).is_err());
        let mut shuffled = good;
        shuffled.reverse();
        assert!(digest_gate("order", &shuffled, &reference).is_ok());
    }

    #[test]
    fn thread_budget_refuses_an_oversubscribed_config() {
        let b = |shards, concurrent_points| ThreadBudget {
            shards,
            concurrent_points,
        };
        assert!(b(1, 2).check(2).is_ok());
        assert!(b(2, 1).check(2).is_ok());
        // The runner's defaults on a 2-CPU host: 4 shards per point,
        // 2 points at once.
        let err = b(4, 2).check(2).expect_err("8 threads on 2 CPUs");
        assert!(err.contains("8 compute threads"), "{err}");
        assert!(b(2, 2).check(2).is_err());
        assert!(b(2, 1).check(1).is_err());
    }
}
