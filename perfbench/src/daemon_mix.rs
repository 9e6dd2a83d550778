//! `daemon-mix`: three tenants submit every smoke point once to an
//! in-process `dcl1d` over its line-JSON TCP API, at one fixed open-loop
//! rate, while status polls run at a fixed rate. A seeded half of the
//! grid is pre-filled into the disk tier during set-up, so the daemon
//! serves disk hits, then memory hits, beside the cold half it simulates.

use crate::gate::REFERENCE_DIGEST;
use crate::stats::{percentile, sample_note};
use crate::sweep;
use crate::trace::{parse_event, point_intervals, SpanLog, TapEvent};
use crate::Outcome;
use dcl1_bench::runner::{self, RunRequest};
use dcl1_common::SplitMix64;
use dcl1_obs::json::Json;
use dcl1d::queue::Quotas;
use dcl1d::scheduler::DaemonConfig;
use dcl1d::server::Server;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tenants submitting concurrently.
pub const TENANTS: usize = 3;

/// Rounds by which each tenant trails the previous one: at the default
/// 20 s window a round lasts 0.18 s, so a point's requests arrive 0.36 s
/// apart — longer than most cold simulations, shorter than the longest,
/// which the later requests meet in flight and wait on.
const STAGGER: usize = 1;

/// Status polls per second, the tenants taking turns.
const STATUS_HZ: f64 = 20.0;

/// Seconds past the arrival window that status polls continue once every
/// job has completed. Each status call re-digests every completed result,
/// so its cost peaks at the end; polling through a plateau at that peak
/// gives the p95 a few seconds of samples instead of the last few polls.
const COOL_DOWN_S: f64 = 2.0;

/// How long, past the arrival window, the run may wait for the last
/// completion before it counts the missing jobs as failed.
const COMPLETION_GRACE: Duration = Duration::from_secs(90);

/// Points pre-filled during set-up, heaviest first: the [`HEAVY`]
/// costliest points (the three longest apps, 1–2 s each — as much work
/// as the rest of the grid together), then one point, picked by the seed,
/// of each cost-adjacent pair of the others. The daemon simulates the
/// other 50 points, about 12 core-seconds whatever the seed, so the seed
/// moves which points it simulates, not how much work that is.
pub fn prefill_half(seed: u64) -> Vec<RunRequest> {
    let mut rng = SplitMix64::new(seed).split(1);
    let mut ranked = sweep::by_cost(sweep::smoke_grid());
    let rest = ranked.split_off(HEAVY);
    for pair in rest.chunks(2) {
        ranked.push(
            pair[usize::try_from(rng.next_below(pair.len() as u64)).expect("0 or 1")].clone(),
        );
    }
    ranked
}

/// Always-pre-filled costliest points.
const HEAVY: usize = 12;

/// The order tenants request points in: cold (not pre-filled) and
/// pre-filled points each in seeded order, the cold ones spread evenly
/// among the others. Cold points are the daemon's simulation work; spread
/// evenly they arrive at one fixed rate, where a seeded clump of them
/// would build a queue that decides the latency tail on its own.
pub fn arrival_order(seed: u64) -> Vec<RunRequest> {
    let mut rng = SplitMix64::new(seed).split(2);
    let warm: BTreeSet<String> = prefill_half(seed).iter().map(runner::point_label).collect();
    let (mut hot, mut cold): (Vec<RunRequest>, Vec<RunRequest>) = sweep::smoke_grid()
        .into_iter()
        .partition(|r| warm.contains(&runner::point_label(r)));
    sweep::shuffle(&mut hot, &mut rng);
    sweep::shuffle(&mut cold, &mut rng);
    let (n, c) = (hot.len() + cold.len(), cold.len());
    let (mut hot, mut cold) = (hot.into_iter(), cold.into_iter());
    let mut order = Vec::with_capacity(n);
    let mut cold_taken = 0;
    for i in 0..n {
        if cold_taken < (i + 1) * c / n {
            cold_taken += 1;
            order.extend(cold.next());
        } else {
            order.extend(hot.next());
        }
    }
    order
}

/// Body of the set-up child process: simulates the pre-fill half into
/// the disk tier of the store the daemon will open.
pub fn prefill_leg(seed: u64, workers: usize) -> Result<(), String> {
    runner::set_shard_override(1);
    let half = prefill_half(seed);
    let outcome = runner::run_apps_supervised(&half, sweep::SCALE, workers);
    if outcome.quarantined.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "pre-fill quarantined {} point(s)",
            outcome.quarantined.len()
        ))
    }
}

fn send(
    conn: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    line: &str,
) -> Result<String, String> {
    conn.write_all(line.as_bytes())
        .and_then(|()| conn.write_all(b"\n"))
        .map_err(|e| e.to_string())?;
    let mut reply = String::new();
    match reader.read_line(&mut reply) {
        Ok(0) => Err("daemon closed the connection".to_string()),
        Ok(_) => Ok(reply),
        Err(e) => Err(e.to_string()),
    }
}

fn connect(addr: std::net::SocketAddr) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let conn = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    conn.set_nodelay(true).map_err(|e| e.to_string())?;
    let reader = BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);
    Ok((conn, reader))
}

fn num(doc: &Json, path: &[&str]) -> f64 {
    let mut cur = Some(doc);
    for key in path {
        cur = cur.and_then(|d| d.get(key));
    }
    cur.and_then(Json::as_f64).unwrap_or(0.0)
}

/// One scheduled submit: a tenant asking for one point.
struct Job {
    tenant: String,
    label: String,
    app: String,
    design: String,
    due: f64,
    sent: f64,
    replied: f64,
}

/// Runs the workload. `run_prefill` runs the pre-fill child to
/// completion; `store` is the run's fresh store directory.
pub fn run(
    seed: u64,
    window_s: f64,
    workers: usize,
    store: &Path,
    base: Instant,
    run_prefill: &dyn Fn() -> Result<(), String>,
) -> Result<Outcome, String> {
    let t_setup = Instant::now();
    run_prefill()?;
    runner::set_shard_override(1);
    let cfg = DaemonConfig {
        workers,
        scale: sweep::SCALE,
        quotas: Quotas::default(),
        journal: Some(store.join("queue.journal")),
        resume: false,
    };
    let server = Server::launch("127.0.0.1:0", cfg).map_err(|e| format!("daemon launch: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let serve = std::thread::spawn(move || server.serve());
    let (mut sub, mut sub_reader) = connect(addr)?;
    send(&mut sub, &mut sub_reader, "{\"cmd\":\"subscribe\"}")?;
    let (mut conn, mut reader) = connect(addr)?;
    let setup_s = t_setup.elapsed().as_secs_f64();

    // Every tenant walks the same order, tenant `t` trailing tenant 0 by
    // `t × STAGGER` rounds of one submit per tenant, at one fixed rate
    // across the window. A point's later requests collide with its
    // simulation only when it runs longer than the stagger — a property
    // of the point, not of the seed.
    let grid = arrival_order(seed);
    let mut schedule = Vec::new();
    for round in 0..grid.len() + (TENANTS - 1) * STAGGER {
        for t in 0..TENANTS {
            if let Some(req) = round.checked_sub(t * STAGGER).and_then(|i| grid.get(i)) {
                schedule.push((t, req));
            }
        }
    }
    let total = schedule.len();
    let gap = window_s / total as f64;
    let mut jobs: Vec<Job> = schedule
        .iter()
        .enumerate()
        .map(|(i, (t, req))| Job {
            tenant: format!("tenant{t}"),
            label: runner::point_label(req),
            app: req.app.name.to_string(),
            design: req.design.name(),
            due: i as f64 * gap,
            sent: 0.0,
            replied: 0.0,
        })
        .collect();

    // Subscriber: stamps every progress event; counts finished jobs.
    let finished = Arc::new(AtomicUsize::new(0));
    let events: Arc<Mutex<Vec<TapEvent>>> = Arc::new(Mutex::new(Vec::new()));
    let subscriber = {
        let (finished, events) = (Arc::clone(&finished), Arc::clone(&events));
        std::thread::spawn(move || {
            let mut line = String::new();
            while finished.load(Ordering::SeqCst) < total {
                line.clear();
                match sub_reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                let Some(ev) = parse_event(&line, base.elapsed().as_secs_f64()) else {
                    continue;
                };
                if ev.tenant.is_some() && (ev.stage == "completed" || ev.stage == "quarantined") {
                    finished.fetch_add(1, Ordering::SeqCst);
                }
                events.lock().expect("event lock").push(ev);
            }
        })
    };

    // Generator: submits and status polls, each sent at its scheduled
    // time on one connection, timed from that time.
    let mut out = Outcome::new(total as u64);
    let mut status: Vec<(f64, f64, f64, f64, usize)> = Vec::new(); // (due, sent, replied, depth, bytes)
    let t0 = base.elapsed().as_secs_f64();
    let origin = base + Duration::from_secs_f64(t0);
    let deadline = t0 + window_s + COMPLETION_GRACE.as_secs_f64();
    let (mut next_job, mut next_poll) = (0usize, 0u32);
    loop {
        let poll_due = f64::from(next_poll) / STATUS_HZ;
        let job_due = jobs.get(next_job).map_or(f64::MAX, |j| j.due);
        let now = base.elapsed().as_secs_f64();
        let all_done = next_job == total && finished.load(Ordering::SeqCst) >= total;
        if (all_done && now >= t0 + window_s + COOL_DOWN_S) || now > deadline {
            break;
        }
        let due = poll_due.min(job_due);
        sweep::sleep_until(origin + Duration::from_secs_f64(due));
        let sent = base.elapsed().as_secs_f64() - t0;
        if job_due <= poll_due {
            let j = &mut jobs[next_job];
            let line = format!(
                "{{\"cmd\":\"submit\",\"tenant\":\"{}\",\"points\":[{{\"app\":\"{}\",\"design\":\"{}\"}}]}}",
                j.tenant, j.app, j.design
            );
            let reply = send(&mut conn, &mut reader, &line)?;
            j.sent = sent;
            j.replied = base.elapsed().as_secs_f64() - t0;
            let doc = Json::parse(&reply).map_err(|e| format!("submit reply: {e}"))?;
            let refused = num(&doc, &["rejected"]) + num(&doc, &["shed"]);
            if num(&doc, &["accepted"]) != 1.0 || refused > 0.0 {
                out.failed += 1;
                out.errors.push(format!(
                    "submit {}/{} refused: {}",
                    j.tenant,
                    j.label,
                    reply.trim()
                ));
            }
            next_job += 1;
        } else {
            // Each tenant polls its own status in turn.
            let poll = format!(
                "{{\"cmd\":\"status\",\"tenant\":\"tenant{}\"}}",
                next_poll as usize % TENANTS
            );
            let reply = send(&mut conn, &mut reader, &poll)?;
            let replied = base.elapsed().as_secs_f64() - t0;
            let doc = Json::parse(&reply).map_err(|e| format!("status reply: {e}"))?;
            status.push((
                poll_due,
                sent,
                replied,
                num(&doc, &["daemon", "queued"]),
                reply.len(),
            ));
            next_poll += 1;
        }
    }
    let drain = send(&mut conn, &mut reader, "{\"cmd\":\"drain\"}")?;
    drop((conn, reader));
    subscriber
        .join()
        .map_err(|_| "subscriber panicked".to_string())?;
    drop(sub);
    serve
        .join()
        .map_err(|_| "daemon accept loop panicked".to_string())?;
    let events = std::mem::take(&mut *events.lock().expect("event lock"));

    // Correctness: every tenant completed the whole grid with the
    // reference digest.
    let doc = Json::parse(&drain).map_err(|e| format!("drain reply: {e}"))?;
    for t in 0..TENANTS {
        let name = format!("tenant{t}");
        let tenant = doc.get("tenants").and_then(|d| d.get(&name));
        let digest = tenant
            .and_then(|d| d.get("digest"))
            .and_then(Json::as_str)
            .unwrap_or("");
        let quarantined = tenant
            .and_then(|d| d.get("quarantined"))
            .and_then(Json::as_arr)
            .map_or(0, <[Json]>::len);
        out.failed += quarantined as u64;
        let completed = tenant.map_or(0.0, |d| num(d, &["completed"]));
        if digest != REFERENCE_DIGEST || completed != grid.len() as f64 {
            out.fail(format!("{name}: digest {digest} over {completed} points, expected {REFERENCE_DIGEST} over {}", grid.len()));
        }
    }

    // Latencies: each job from its scheduled send to its completed event.
    let done: BTreeMap<(String, String), (f64, String)> = events
        .iter()
        .filter(|e| e.stage == "completed")
        .filter_map(|e| {
            Some((
                (e.tenant.clone()?, e.point.clone()),
                (e.t - t0, e.source.clone().unwrap_or_default()),
            ))
        })
        .collect();
    let mut job_s = Vec::new();
    let (mut hit_ms, mut sim_s) = (Vec::new(), Vec::new());
    let mut spans = SpanLog::default();
    let mut intervals = point_intervals(&events, false);
    let mut end = 0.0f64;
    for j in &jobs {
        let request = format!("{}/{}", j.tenant, j.label);
        let Some((t, source)) = done.get(&(j.tenant.clone(), j.label.clone())) else {
            continue;
        };
        end = end.max(*t);
        job_s.push(t - j.due);
        if source == "simulated" {
            sim_s.push(t - j.due)
        } else {
            hit_ms.push((t - j.due) * 1e3)
        }
        let job = spans.push("dcl1d.job", t0 + j.due, t0 + t, None, &request);
        spans.push(
            "dcl1d.submit",
            t0 + j.sent,
            t0 + j.replied,
            Some(job),
            &request,
        );
        let inside = |i: &(String, f64, f64, Option<String>)| {
            i.0 == j.label && i.1 >= t0 + j.sent && i.2 <= t0 + t
        };
        if let Some(pos) = intervals.iter().position(inside) {
            let (_, s, e, src) = intervals.remove(pos);
            let name = if src.as_deref() == Some("simulated") {
                "runner.point"
            } else {
                "store.point"
            };
            spans.push(name, s, e, Some(job), &request);
        }
    }
    for (i, s) in status.iter().enumerate() {
        spans.push(
            "dcl1d.status",
            t0 + s.0,
            t0 + s.2,
            None,
            &format!("status{i}"),
        );
    }
    let submit_ms: Vec<f64> = jobs.iter().map(|j| (j.replied - j.sent) * 1e3).collect();
    let status_ms: Vec<f64> = status.iter().map(|s| (s.2 - s.0) * 1e3).collect();
    let lag_ms: Vec<f64> = jobs
        .iter()
        .map(|j| (j.sent - j.due) * 1e3)
        .chain(status.iter().map(|s| (s.1 - s.0) * 1e3))
        .collect();
    let depth: Vec<f64> = status.iter().map(|s| s.3).collect();
    let bytes: Vec<f64> = status.iter().map(|s| s.4 as f64).collect();
    let timings = runner::point_timings();
    let point_s: Vec<f64> = timings.iter().map(|t| t.wall_seconds).collect();
    let sim_cycles: u64 = timings.iter().map(|t| t.sim_cycles).sum();
    let sim_wall: f64 = point_s.iter().sum();

    out.report
        .push(sample_note("point_latency", point_s.len(), 90.0));
    out.report
        .push(sample_note("job_latency", job_s.len(), 95.0));
    out.report
        .push(sample_note("status_latency", status_ms.len(), 95.0));
    let m = &mut out.metrics;
    m.insert("setup_s", setup_s);
    m.insert("wall_s", end);
    // The window, not the simulator, sets `wall_s` here: simulator speed
    // is cycles per host second spent simulating.
    m.insert("sim_khz", sim_cycles as f64 / sim_wall / 1e3);
    m.insert("point_latency_p50_s", percentile(&point_s, 50.0));
    m.insert("point_latency_p90_s", percentile(&point_s, 90.0));
    m.insert("job_latency_p50_s", percentile(&job_s, 50.0));
    m.insert("job_latency_p95_s", percentile(&job_s, 95.0));
    m.insert("status_latency_p50_ms", percentile(&status_ms, 50.0));
    m.insert("status_latency_p95_ms", percentile(&status_ms, 95.0));
    m.insert("loadgen.lag_p95_ms", percentile(&lag_ms, 95.0));
    m.insert(
        "runner.worker_busy_share",
        sim_wall / (workers as f64 * end),
    );
    m.insert("dcl1d.submit_ms_p50", percentile(&submit_ms, 50.0));
    m.insert("dcl1d.submit_ms_p95", percentile(&submit_ms, 95.0));
    m.insert("dcl1d.hit_job_ms_p50", percentile(&hit_ms, 50.0));
    m.insert("dcl1d.sim_job_s_p50", percentile(&sim_s, 50.0));
    m.insert("dcl1d.queue_depth_p95", percentile(&depth, 95.0));
    m.insert("dcl1d.status_bytes_p95", percentile(&bytes, 95.0));
    let reg = runner::sweep_registry_snapshot();
    let prof = runner::sweep_phase_profile();
    sweep::sim_layers(m, &reg, &prof, sim_cycles, sim_wall * 1e9);
    m.insert("shard.busy_imbalance", 1.0);
    sweep::store_layers(m);
    if job_s.len() < total {
        out.failed += (total - job_s.len()) as u64;
        out.errors.push(format!(
            "{} of {total} jobs never completed",
            total - job_s.len()
        ));
    }
    out.spans = spans;
    Ok(out)
}
