//! `study_cold`: the paper's experiment as a researcher reproduces it.
//! One pass is `run_study` then `attack_all`, each on a fresh ecosystem,
//! with the in-process binder, so every device is onboarded cold and
//! RSA-2048 key generation dominates. Two passes run at a time (one per
//! core) until the measuring time is up; each pass has its own seed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use wideleak::android_drm::binder::Transport;
use wideleak::attack::recover::{attack_all, attack_app, AttackOutcome, ATTACK_TITLE};
use wideleak::device::catalog::{DeviceModel, SecurityLevel};
use wideleak::device::net::RemoteEndpoint;
use wideleak::faults::ResiliencePolicy;
use wideleak::monitor::report::{render_insights, render_table_1};
use wideleak::monitor::study::{run_study, study_app, StudyReport, STUDY_TITLE};
use wideleak::monitor::MonitorError;
use wideleak::ott::apps::{evaluated_apps, EmbeddedWidevine, OttApp};
use wideleak::ott::content::{synth_samples, TrackSelector, SEGMENTS_PER_REP};
use wideleak::ott::ecosystem::{DeviceStack, Ecosystem, EcosystemConfig};

use crate::inputs::{derive, stream};
use crate::metrics::{self, Layers, Phase};
use crate::replay::replay_layers;
use crate::spans::{Capture, Recorder, TracedEndpoint, TracedTransport};
use crate::{sys, Outcome, RunConfig, SETUPS};

/// Table I and the insights as the paper prints them; the render does
/// not depend on the seed.
const TABLE_1: &str = include_str!("../expected/table1.txt");
const INSIGHTS: &str = include_str!("../expected/insights.txt");
/// The apps the attack obtains DRM-free media from (paper §IV-D).
const LEAKING: [&str; 6] = ["Netflix", "Hulu", "myCANAL", "Showtime", "OCS", "Salto"];
/// The qHD ceiling the discontinued device is licensed for.
const LEAKED_HEIGHT: u32 = 540;
const PARALLEL_PASSES: usize = 2;

/// What a pass's outputs are checked against: per leaking app, the
/// plaintext video the attack must recover.
struct References {
    leaked_video: Vec<(&'static str, Vec<Vec<u8>>)>,
}

impl References {
    fn build() -> Self {
        let leaked_video = evaluated_apps()
            .into_iter()
            .filter(|p| LEAKING.contains(&p.name))
            .map(|p| {
                let samples = (1..=SEGMENTS_PER_REP)
                    .flat_map(|seg| {
                        let video = TrackSelector::Video { height: LEAKED_HEIGHT };
                        synth_samples(p.slug, ATTACK_TITLE, &video, seg)
                    })
                    .collect();
                (p.name, samples)
            })
            .collect();
        References { leaked_video }
    }

    /// The attack must leak exactly the paper's six apps, each at qHD
    /// with the exact plaintext video.
    fn attack_is_correct(&self, outcomes: &[AttackOutcome]) -> bool {
        let leaked: Vec<&str> =
            outcomes.iter().filter(|o| o.succeeded()).map(|o| o.app_name.as_str()).collect();
        leaked == LEAKING
            && self.leaked_video.iter().all(|(name, expected)| {
                let media =
                    outcomes.iter().find(|o| o.app_name == *name).and_then(|o| o.media.as_ref());
                media.is_some_and(|m| {
                    m.best_resolution().map(|(_, h)| h) == Some(LEAKED_HEIGHT)
                        && m.tracks.iter().any(|t| {
                            t.resolution.map(|(_, h)| h) == Some(LEAKED_HEIGHT)
                                && t.samples == *expected
                        })
                })
            })
    }
}

fn study_is_correct(report: &Result<StudyReport, MonitorError>) -> bool {
    report.as_ref().is_ok_and(|r| render_table_1(r) == TABLE_1 && render_insights(r) == INSIGHTS)
}

fn config(seed: u64) -> EcosystemConfig {
    EcosystemConfig { seed, ..Default::default() }
}

struct Pass {
    index: usize,
    study_ms: f64,
    attack_ms: f64,
    study_ok: bool,
    attack_ok: bool,
    cdm_calls: u64,
}

/// One cold pass. Traced, the study and the attack run app by app (what
/// `run_study` and `attack_all` do) inside `study_app`/`attack_app` spans.
fn run_pass(index: usize, seed: u64, refs: &References, rec: Option<&Recorder>) -> Pass {
    let eco = Ecosystem::new(config(seed));
    let started = Instant::now();
    let report = match rec {
        None => run_study(&eco),
        Some(rec) => eco
            .profiles()
            .to_vec()
            .iter()
            .map(|p| rec.time("monitor", "study_app", || study_app(&eco, p.slug)))
            .collect::<Result<Vec<_>, _>>()
            .map(|findings| StudyReport { findings }),
    };
    let study_ms = started.elapsed().as_secs_f64() * 1e3;
    let cdm_calls = report.as_ref().map_or(0, |r| {
        r.findings.iter().flat_map(|f| &f.cdm_call_histogram).map(|(_, n)| *n as u64).sum()
    });
    let study_ok = study_is_correct(&report);

    let eco = Ecosystem::new(config(seed));
    let started = Instant::now();
    let outcomes = match rec {
        None => attack_all(&eco),
        Some(rec) => eco
            .profiles()
            .to_vec()
            .iter()
            .map(|p| rec.time("attack", "attack_app", || attack_app(&eco, p.slug)))
            .collect(),
    };
    let attack_ms = started.elapsed().as_secs_f64() * 1e3;
    let attack_ok = refs.attack_is_correct(&outcomes);
    Pass { index, study_ms, attack_ms, study_ok, attack_ok, cdm_calls }
}

/// Runs passes `indices` (or, with `seconds`, passes 0, 1, … until the
/// time is up) on [`PARALLEL_PASSES`] threads.
fn run_passes(
    seed: u64,
    refs: &References,
    rec: Option<&Recorder>,
    seconds: Option<f64>,
    limit: usize,
) -> (Phase, Vec<Pass>) {
    let next = AtomicUsize::new(0);
    let passes = Mutex::new(Vec::new());
    let cpu = sys::cpu_seconds();
    let started = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..PARALLEL_PASSES {
            s.spawn(|| loop {
                if seconds.is_some_and(|t| started.elapsed().as_secs_f64() >= t) {
                    return;
                }
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= limit {
                    return;
                }
                let pass_seed = derive(seed, stream::PASS + index as u64);
                let pass = run_pass(index, pass_seed, refs, rec);
                passes.lock().expect("pass list lock poisoned").push(pass);
            });
        }
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut passes = passes.into_inner().expect("pass list lock poisoned");
    passes.sort_by_key(|p| p.index);
    let phase = Phase {
        op_ms: passes.iter().map(|p| p.study_ms + p.attack_ms).collect(),
        attempted: passes.len() as u64,
        failed: passes.iter().filter(|p| !(p.study_ok && p.attack_ok)).count() as u64,
        cpu_s: sys::cpu_seconds() - cpu,
        wall_s,
    };
    (phase, passes)
}

pub fn run(cfg: &RunConfig) -> Outcome {
    // Set-up is what a pass sets up before it measures anything: a cold
    // ecosystem boot (trust authority, servers, the CDN packaging every
    // app's catalog), here on pass 0's configuration, plus the check
    // references.
    let mut setups = Vec::new();
    let mut refs = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        let eco = Ecosystem::new(config(derive(cfg.seed, stream::PASS)));
        refs = Some(References::build());
        setups.push(started.elapsed().as_secs_f64());
        drop(eco);
    }
    let refs = refs.expect("at least one setup");
    let (untraced, passes) = run_passes(cfg.seed, &refs, None, Some(cfg.seconds), usize::MAX);
    let median_of =
        |f: fn(&Pass) -> f64| crate::stats::median(&passes.iter().map(f).collect::<Vec<_>>());
    let named = vec![
        ("study_s", median_of(|p| p.study_ms) / 1e3, "s"),
        ("attack_s", median_of(|p| p.attack_ms) / 1e3, "s"),
        ("passes_per_s", untraced.ops_per_s(), "1/s"),
    ];
    if !cfg.trace {
        return Outcome::end_to_end(&untraced, &setups, named);
    }

    // Traced: the first passes again on the same seeds (the overhead
    // compares like with like), then a traced replay of one pass's
    // playbacks for the layers below the monitor.
    let matched = passes.len().min(PARALLEL_PASSES);
    let rec = Recorder::new();
    metrics::start_program_counters();
    let (traced, traced_passes) = run_passes(cfg.seed, &refs, Some(&rec), None, matched);
    let capture = Capture::new(64 << 20);
    let replayed = replay_playbacks(derive(cfg.seed, stream::PASS), &rec, &capture);

    let mut layers = Layers::new();
    metrics::from_spans(&rec.spans(), &mut layers);
    metrics::from_replay(&replay_layers(&capture.take(), false), &mut layers);
    metrics::from_program_counters(&mut layers);
    layers.insert("monitor.cdm_calls", traced_passes.first().map_or(0, |p| p.cdm_calls) as f64);
    // Latencies of the matched passes; CPU per pass over all of them.
    let matched_untraced = Phase { op_ms: untraced.op_ms[..matched].to_vec(), ..untraced.clone() };
    Phase::overhead(&matched_untraced, &traced, &mut layers);
    Outcome::per_layer(&[&untraced, &traced, &replayed], layers, named)
}

/// Installs an app the way `Ecosystem::install_app` does, but with the
/// backend and binder wrapped for tracing.
fn install_traced(
    eco: &Ecosystem,
    stack: &DeviceStack,
    slug: &str,
    user: &str,
    endpoint: Arc<dyn RemoteEndpoint>,
    binder: Arc<dyn Transport>,
) -> OttApp {
    let profile = eco.profile(slug).expect("evaluated app").clone();
    let token = eco.accounts().subscribe(slug, user);
    let embedded = (profile.custom_drm_on_l3 || profile.always_custom_drm).then(|| {
        let name = format!("{}-embedded-{}", profile.slug, stack.instance_name);
        EmbeddedWidevine::new(eco.trust().issue_keybox(&name))
    });
    OttApp::install(
        profile,
        endpoint,
        stack.device.network().clone(),
        binder,
        stack.device.model().security_level,
        token,
        embedded,
    )
    .with_device(stack.device.clone())
    .with_resilience(ResiliencePolicy::default(), eco.fault_injector().clock().clone())
}

/// The playbacks of one pass, in the pass's order and on fresh
/// ecosystems with the pass's seed (so every device gets the same key
/// as in the pass): the study's modern and discontinued device per app,
/// then the attack's discontinued device per app. A playback fails when
/// it ends differently from the study's findings.
fn replay_playbacks(seed: u64, rec: &Arc<Recorder>, capture: &Arc<Capture>) -> Phase {
    let runs: [&[(DeviceModel, &str)]; 2] = [
        &[
            (DeviceModel::pixel_6(), "wideleak-researcher"),
            (DeviceModel::nexus_5(), "wideleak-researcher-legacy"),
        ],
        &[(DeviceModel::nexus_5(), "attacker-subscription")],
    ];
    let mut replayed = Phase::default();
    let cpu = sys::cpu_seconds();
    let started = Instant::now();
    for devices in runs {
        let eco = Ecosystem::new(config(seed));
        let endpoint: Arc<dyn RemoteEndpoint> =
            Arc::new(TracedEndpoint::new(eco.backend().clone(), rec.clone()));
        for profile in eco.profiles().to_vec() {
            for (model, user) in devices {
                let legacy = model.security_level == SecurityLevel::L3;
                let stack = eco.boot_device(model.clone(), true);
                let binder: Arc<dyn Transport> = Arc::new(TracedTransport::new(
                    stack.binder.clone(),
                    rec.clone(),
                    false,
                    Some(capture.clone()),
                ));
                let app =
                    install_traced(&eco, &stack, profile.slug, user, endpoint.clone(), binder);
                let play_started = Instant::now();
                let played = rec.time("app", "play", || app.play(STUDY_TITLE)).is_ok();
                replayed.op_ms.push(play_started.elapsed().as_secs_f64() * 1e3);
                // Only the revocation enforcers refuse, and only the
                // discontinued device.
                let refused = legacy && profile.enforce_revocation;
                replayed.attempted += 1;
                replayed.failed += u64::from(played == refused);
            }
        }
    }
    replayed.cpu_s = sys::cpu_seconds() - cpu;
    replayed.wall_s = started.elapsed().as_secs_f64();
    replayed
}
