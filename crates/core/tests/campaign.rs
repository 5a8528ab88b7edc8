//! The sharded-campaign differential battery: the merged report is a
//! pure function of (spec, seed, catalog), so its rendered bytes must
//! be identical across worker counts and across same-seed re-runs; a
//! lost worker must surface as a typed error (never a hang) and leave
//! no orphaned processes behind.
//!
//! These tests spawn the real `wideleak` binary in `serve --worker`
//! mode, so they exercise the whole stack: process spawn, the wire-v3
//! campaign control channel, per-shard measurement, and the exact
//! merge.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use wideleak::android_drm::campaign::{CampaignError, LatencyHistogram, HISTOGRAM_BUCKETS};
use wideleak::load::LatencySummary;
use wideleak::monitor::campaign::{run_campaign, CampaignConfig, WorkerCommand, WorkerProcess};

/// The `wideleak` binary of this package, which cargo builds before
/// running the package's integration tests.
fn wideleak_bin() -> WorkerCommand {
    WorkerCommand { program: PathBuf::from(env!("CARGO_BIN_EXE_wideleak")), args: Vec::new() }
}

#[test]
fn report_bytes_are_invariant_across_worker_counts_and_reruns() {
    let cmd = wideleak_bin();
    let render = |workers: usize| {
        let config = CampaignConfig { workers, ..CampaignConfig::quick(2022) };
        run_campaign(&config, &cmd).expect("campaign runs clean").render()
    };
    let one = render(1);
    let two = render(2);
    let four = render(4);
    assert_eq!(one, two, "1-worker and 2-worker reports diverge");
    assert_eq!(two, four, "2-worker and 4-worker reports diverge");
    // Same seed, same bytes — scheduling and arrival order are invisible.
    assert_eq!(two, render(2), "same-seed re-run diverges");
    // The report is genuinely seed-dependent, not constant.
    let config = CampaignConfig { workers: 2, ..CampaignConfig::quick(7) };
    let other = run_campaign(&config, &cmd).expect("campaign runs clean").render();
    assert_ne!(two, other, "reports ignore the seed");
}

#[test]
fn killed_worker_is_a_typed_shard_loss_and_a_retry_recovers() {
    let cmd = wideleak_bin();
    let mut config = CampaignConfig::quick(2022);
    config.workers = 2;
    // Device 30 lands in shard 1 (24..48): that worker dies mid-shard.
    config.spec.kill_at_device = Some(30);
    let started = Instant::now();
    let err = run_campaign(&config, &cmd).expect_err("a dead worker cannot yield a report");
    assert!(
        matches!(err, CampaignError::ShardLost { shard_id: 1 }),
        "expected ShardLost for shard 1, got {err:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "shard loss took {:?} to surface — the coordinator hung",
        started.elapsed()
    );
    // A clean retry with the same seed produces the canonical report.
    config.spec.kill_at_device = None;
    let retried = run_campaign(&config, &cmd).expect("retry runs clean").render();
    let reference =
        run_campaign(&CampaignConfig::quick(2022), &cmd).expect("reference runs clean").render();
    assert_eq!(retried, reference, "post-crash retry diverges from the canonical report");
}

#[test]
fn dropped_worker_guard_kills_and_reaps_the_child() {
    let worker = WorkerProcess::spawn(&wideleak_bin()).expect("worker spawns");
    let pid = worker.pid();
    assert!(
        std::path::Path::new(&format!("/proc/{pid}")).exists(),
        "worker {pid} should be alive while the guard is held"
    );
    drop(worker);
    // Drop kills and reaps synchronously: the pid is gone — not even a
    // zombie — the moment drop returns.
    assert!(
        !std::path::Path::new(&format!("/proc/{pid}")).exists(),
        "worker {pid} survived its drop guard"
    );
}

#[test]
fn worker_exits_when_the_coordinator_pipe_closes() {
    // Spawn a worker by hand (not via the guard) and sever only its
    // stdin, simulating a coordinator killed with SIGKILL: the pipe
    // closes without any Shutdown call, and the watchdog must exit the
    // worker on its own.
    let cmd = wideleak_bin();
    let mut child = Command::new(&cmd.program)
        .args(["serve", "--worker", "127.0.0.1:0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("worker spawns");
    let mut ready = String::new();
    BufReader::new(child.stdout.take().expect("stdout piped"))
        .read_line(&mut ready)
        .expect("ready line");
    assert!(ready.starts_with("WORKER_READY "), "bad ready line {ready:?}");
    drop(child.stdin.take());
    let deadline = Instant::now() + Duration::from_secs(10);
    let exited = loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => break status.success(),
            None if Instant::now() > deadline => break false,
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    if !exited {
        let _ = child.kill();
        let _ = child.wait();
        panic!("worker did not exit within 10s of its stdin closing");
    }
}

/// The raw-sample oracle: nearest-rank statistics over the clamped
/// concatenation of every shard's samples, computed the way
/// `wideleak-load` sorts raw latencies.
fn oracle(shards: &[Vec<u64>]) -> LatencySummary {
    let clamp = HISTOGRAM_BUCKETS as u64 - 1;
    let mut all: Vec<u64> = shards.iter().flatten().map(|&ms| ms.min(clamp)).collect();
    if all.is_empty() {
        return LatencySummary::default();
    }
    all.sort_unstable();
    let n = all.len();
    let q = |num: usize, den: usize| all[(n - 1) * num / den];
    LatencySummary {
        count: n as u64,
        min_ms: all[0],
        mean_ms: all.iter().sum::<u64>() / n as u64,
        p50_ms: q(50, 100),
        p95_ms: q(95, 100),
        p99_ms: q(99, 100),
        max_ms: all[n - 1],
    }
}

/// Builds one histogram per shard and merges them pairwise, as the
/// coordinator does.
fn merged(shards: &[Vec<u64>]) -> LatencyHistogram {
    let mut total = LatencyHistogram::new();
    for shard in shards {
        let mut h = LatencyHistogram::new();
        for &ms in shard {
            h.record(ms);
        }
        total.merge(&h);
    }
    total
}

#[test]
fn merge_oracle_edge_cases() {
    // All shards empty.
    assert_eq!(LatencySummary::from_histogram(&merged(&[vec![], vec![]])), oracle(&[vec![]]));
    // A single sample in one shard, the others empty.
    let shards = vec![vec![], vec![42], vec![]];
    assert_eq!(LatencySummary::from_histogram(&merged(&shards)), oracle(&shards));
    // Clamped outliers collapse onto the last bucket in both views.
    let shards = vec![vec![100_000, 3], vec![511, 512]];
    let summary = LatencySummary::from_histogram(&merged(&shards));
    assert_eq!(summary, oracle(&shards));
    assert_eq!(summary.max_ms, HISTOGRAM_BUCKETS as u64 - 1);
}

proptest::proptest! {
    /// Satellite 2: for any sharding of any sample set, the percentile
    /// summary of the merged histogram equals the nearest-rank summary
    /// of the concatenated raw samples. Width-1ms buckets make the
    /// merge *exact*, not approximate — this is what lets the campaign
    /// report stay byte-identical across worker counts.
    #[test]
    fn merged_histogram_percentiles_match_concatenated_samples(
        shards in proptest::collection::vec(
            proptest::collection::vec(0u64..600, 0..40),
            0..6,
        )
    ) {
        proptest::prop_assert_eq!(
            LatencySummary::from_histogram(&merged(&shards)),
            oracle(&shards)
        );
    }
}
