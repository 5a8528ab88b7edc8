//! `decrypt_stream`: a closed loop of two long playbacks. Each player
//! holds one licensed session on its own TCP connection and waits for
//! each decrypted sample before sending the next, as MediaCodec does,
//! cycling a seeded pool of `cenc` and `cbcs` video and `cenc` audio.
//! Licensing happens in set-up, so the measured phase has no RSA.

use std::sync::Arc;
use std::time::Instant;

use wideleak::android_drm::binder::{DrmCall, Transport};
use wideleak::bmff::types::{CryptPattern, KeyId};
use wideleak::cdm::oemcrypto::SampleCrypto;
use wideleak::cenc;
use wideleak::cenc::keys::ContentKey;
use wideleak::ott::content::{
    demo_catalog, key_from_label, kid_from_label, track_key_label, AudioProtection, TrackSelector,
};

use crate::drm::{err, license, Served, Tracing};
use crate::inputs::{derive, stream, stream_pool, PoolSample, Track};
use crate::metrics::{self, Layers, Phase};
use crate::replay::replay_layers;
use crate::spans::{Capture, Recorder};
use crate::{sys, Outcome, RunConfig, SETUPS};

const PLAYERS: usize = 2;
/// The one evaluated app that keys audio apart from video.
const APP: &str = "amazon";
const VIDEO_HEIGHT: u32 = 1080;

struct Player {
    binder: Arc<dyn Transport>,
    session_id: u32,
    /// `(kid, ciphertext, plaintext sample)` per pool entry.
    pool: Vec<(KeyId, Vec<u8>, PoolSample)>,
}

struct Setup {
    // Players hold connections to the server, so they go first.
    players: Vec<Player>,
    _served: Served,
}

fn key_for(title: &str, selector: &TrackSelector) -> (KeyId, ContentKey) {
    let label = track_key_label(APP, title, selector, AudioProtection::DistinctKey)
        .expect("video and distinct-key audio are keyed");
    (kid_from_label(&label), key_from_label(&label))
}

fn encrypt(key: &ContentKey, s: &PoolSample) -> Vec<u8> {
    match &s.crypto {
        SampleCrypto::Cenc { iv } => {
            cenc::ctr::encrypt_sample(key, *iv, &s.plaintext, &s.subsamples)
        }
        SampleCrypto::Cbcs { constant_iv, crypt_blocks, skip_blocks } => {
            let pattern = CryptPattern { crypt_blocks: *crypt_blocks, skip_blocks: *skip_blocks };
            cenc::cbcs::encrypt_sample(key, *constant_iv, pattern, &s.plaintext, &s.subsamples)
        }
    }
    .expect("pool subsample maps cover their samples")
}

/// Set-up `index` provisions its own device key: the ecosystem seed is
/// derived from the run seed and the index.
fn setup(cfg: &RunConfig, index: u64, tracing: Option<Tracing>) -> Result<Setup, String> {
    let served = Served::start(derive(derive(cfg.seed, stream::ECOSYSTEM), index), tracing)?;
    let titles = demo_catalog();
    let mut players = Vec::new();
    for p in 0..PLAYERS {
        let title = &titles[(derive(cfg.seed, stream::PLAYERS) as usize + p) % titles.len()].id;
        let (video_kid, video_key) = key_for(title, &TrackSelector::Video { height: VIDEO_HEIGHT });
        let (audio_kid, audio_key) = key_for(title, &TrackSelector::Audio { lang: "en".into() });
        let token = served.subscribe(APP, &format!("stream-viewer-{p}"));
        let binder = served.connect()?;
        let mut nonce = [0u8; 16];
        nonce[..8].copy_from_slice(&derive(cfg.seed, stream::PLAYERS + 1 + p as u64).to_le_bytes());
        let session_id = binder
            .transact(DrmCall::OpenSession { nonce })
            .and_then(|r| r.into_session_id())
            .map_err(err)?;
        let mut loaded = license(
            binder.as_ref(),
            served.endpoint.as_ref(),
            session_id,
            (APP, title, &token),
            &[video_kid, audio_kid],
        )?;
        loaded.sort_unstable_by_key(|k| k.0);
        let mut wanted = [video_kid, audio_kid];
        wanted.sort_unstable_by_key(|k| k.0);
        if loaded != wanted {
            return Err(format!("license loaded {loaded:?}, expected {wanted:?}"));
        }
        let pool = stream_pool(cfg.seed, p as u64)
            .into_iter()
            .map(|s| {
                let (kid, key) = match s.track {
                    Track::Video => (video_kid, &video_key),
                    Track::Audio => (audio_kid, &audio_key),
                };
                (kid, encrypt(key, &s), s)
            })
            .collect();
        players.push(Player { binder, session_id, pool });
    }
    Ok(Setup { players, _served: served })
}

struct Played {
    /// Wall time of each pool cycle, in ms.
    cycle_ms: Vec<f64>,
    bytes: u64,
    /// Cycles with at least one wrong or failed sample.
    failed: u64,
}

/// Plays whole pool cycles until `seconds` have passed since `started`.
/// One operation is one cycle: every sample of the pool once, starting
/// at `offset`, so each operation carries the same bytes and mix.
fn play(player: &Player, offset: usize, seconds: f64, started: Instant) -> Played {
    let mut out = Played { cycle_ms: Vec::new(), bytes: 0, failed: 0 };
    let n = player.pool.len();
    while started.elapsed().as_secs_f64() < seconds {
        let mut cycle_ns = 0u128;
        let mut wrong = false;
        for i in offset..offset + n {
            let (kid, ciphertext, sample) = &player.pool[i % n];
            // The parcel copy is the caller's, made before the call is timed.
            let call = DrmCall::DecryptSample {
                session_id: player.session_id,
                kid: *kid,
                crypto: sample.crypto.clone(),
                data: ciphertext.clone(),
                subsamples: sample.subsamples.clone(),
            };
            let sent = Instant::now();
            let reply = player.binder.transact(call);
            cycle_ns += sent.elapsed().as_nanos();
            match reply.and_then(|r| r.into_bytes()) {
                Ok(plain) if plain == sample.plaintext => out.bytes += plain.len() as u64,
                _ => wrong = true,
            }
        }
        out.cycle_ms.push(cycle_ns as f64 / 1e6);
        out.failed += u64::from(wrong);
    }
    out
}

fn measure(cfg: &RunConfig, s: &Setup) -> (Phase, u64) {
    let cpu = sys::cpu_seconds();
    let started = Instant::now();
    let played: Vec<Played> = std::thread::scope(|scope| {
        let handles: Vec<_> = s
            .players
            .iter()
            .enumerate()
            .map(|(p, player)| {
                let offset = p * player.pool.len() / PLAYERS;
                scope.spawn(move || play(player, offset, cfg.seconds, started))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("player thread panicked")).collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let phase = Phase {
        op_ms: played.iter().flat_map(|p| p.cycle_ms.iter().copied()).collect(),
        attempted: played.iter().map(|p| p.cycle_ms.len() as u64).sum(),
        failed: played.iter().map(|p| p.failed).sum(),
        cpu_s: sys::cpu_seconds() - cpu,
        wall_s,
    };
    (phase, played.iter().map(|p| p.bytes).sum())
}

fn mb_per_s(bytes: u64, phase: &Phase) -> f64 {
    bytes as f64 / 1e6 / phase.wall_s
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut setups = Vec::new();
    let mut last = None;
    for index in 0..SETUPS as u64 {
        drop(last.take());
        let started = Instant::now();
        match setup(cfg, index, None) {
            Ok(s) => last = Some(s),
            Err(e) => return Outcome::setup_failed(&e),
        }
        setups.push(started.elapsed().as_secs_f64());
    }
    let untraced_setup = last.expect("at least one setup");
    let (untraced, bytes) = measure(cfg, &untraced_setup);
    drop(untraced_setup);
    let named = vec![
        ("decrypt_mb_per_s", mb_per_s(bytes, &untraced), "MB/s"),
        ("cycles_per_s", untraced.ops_per_s(), "1/s"),
        ("cycle_p50_ms", untraced.p50_ms(), "ms"),
        ("cycle_p99_ms", untraced.p99_ms(), "ms"),
    ];
    if !cfg.trace {
        return Outcome::end_to_end(&untraced, &setups, named);
    }

    let rec = Recorder::new();
    metrics::start_program_counters();
    // Room for about two cycles of both pools.
    let capture = Capture::new(16 << 20);
    let traced_setup = match setup(
        cfg,
        SETUPS as u64 - 1,
        Some(Tracing { rec: rec.clone(), capture: capture.clone() }),
    ) {
        Ok(s) => s,
        Err(e) => return Outcome::setup_failed(&e),
    };
    let (traced, _) = measure(cfg, &traced_setup);
    drop(traced_setup);

    let mut layers = Layers::new();
    metrics::from_spans(&rec.spans(), &mut layers);
    metrics::from_replay(&replay_layers(&capture.take(), true), &mut layers);
    metrics::from_program_counters(&mut layers);
    Phase::overhead(&untraced, &traced, &mut layers);
    Outcome::per_layer(&[&untraced, &traced], layers, named)
}
