//! Isolated replays of the decrypt path's layers on a workload's own
//! captured decrypt transactions: `cenc` and `cbcs` AES, CRC-32 and the
//! wire codec, each timed alone. The transport residual is what a
//! round trip costs beyond them.

use std::hint::black_box;
use std::time::{Duration, Instant};

use wideleak::android_drm::binder::{DrmCall, DrmReply};
use wideleak::android_drm::wire::{decode_frame, encode_frame, FrameBody};
use wideleak::bmff::types::{CryptPattern, Subsample};
use wideleak::cdm::oemcrypto::SampleCrypto;
use wideleak::cenc;
use wideleak::cenc::keys::ContentKey;
use wideleak::crypto::crc32::crc32;

use crate::spans::Captured;

/// Each replay repeats its pass until it has run at least this long.
const MIN_REPLAY: Duration = Duration::from_millis(150);
const MIB: f64 = 1024.0 * 1024.0;

#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayReport {
    pub ctr_us_per_mib: f64,
    pub cbcs_us_per_mib: f64,
    pub crc32_us_per_mib: f64,
    pub encode_us_per_mib: f64,
    pub decode_us_per_mib: f64,
    pub residual_us_per_mib: f64,
}

struct Sample {
    data: Vec<u8>,
    subsamples: Vec<Subsample>,
    iv: [u8; 8],
    constant_iv: [u8; 16],
    is_cbcs: bool,
    call_frame: Vec<u8>,
    reply_frame: Vec<u8>,
    call_body: FrameBody,
    reply_body: FrameBody,
    round_trip_ns: u64,
}

/// Runs `pass` (which times each sample and adds into the slice) until
/// [`MIN_REPLAY`] has elapsed; returns mean nanoseconds per sample.
fn replay(samples: &mut [Sample], mut pass: impl FnMut(&mut Sample) -> u64) -> Vec<f64> {
    let mut totals = vec![0u64; samples.len()];
    let started = Instant::now();
    let mut reps = 0u64;
    while reps == 0 || started.elapsed() < MIN_REPLAY {
        for (total, sample) in totals.iter_mut().zip(samples.iter_mut()) {
            *total += pass(sample);
        }
        reps += 1;
    }
    totals.into_iter().map(|t| t as f64 / reps as f64).collect()
}

fn timed(f: impl FnOnce()) -> u64 {
    let t = Instant::now();
    f();
    u64::try_from(t.elapsed().as_nanos()).expect("a replay step lasts < 584 years")
}

/// Replays the captured decrypt calls. `over_wire` says whether the
/// round trips crossed the wire codec (TCP), so the residual subtracts
/// the codec only where it ran. Returns zeros when nothing was captured.
pub fn replay_layers(captured: &[Captured], over_wire: bool) -> ReplayReport {
    let mut samples: Vec<Sample> = captured
        .iter()
        .filter_map(|c| {
            let DrmCall::DecryptSample { crypto, data, subsamples, .. } = &c.call else {
                return None;
            };
            let (iv, constant_iv, is_cbcs) = match crypto {
                SampleCrypto::Cenc { iv } => (*iv, [0; 16], false),
                SampleCrypto::Cbcs { constant_iv, .. } => ([0; 8], *constant_iv, true),
            };
            let call_body = FrameBody::Call(c.call.clone());
            let reply_body = FrameBody::Reply(Ok(DrmReply::Bytes(c.reply.clone())));
            Some(Sample {
                data: data.clone(),
                subsamples: subsamples.clone(),
                iv,
                constant_iv,
                is_cbcs,
                call_frame: encode_frame(&call_body),
                reply_frame: encode_frame(&reply_body),
                call_body,
                reply_body,
                round_trip_ns: c.round_trip_ns,
            })
        })
        .collect();
    let payload = samples.iter().map(|s| s.data.len()).sum::<usize>() as f64 / MIB;
    let framed = samples.iter().map(|s| s.call_frame.len() + s.reply_frame.len()).sum::<usize>()
        as f64
        / MIB;
    if samples.is_empty() || payload == 0.0 {
        return ReplayReport::default();
    }
    // Any key: the replays time the work, and AES work is key-independent.
    let cipher = ContentKey([0x5a; 16]).cipher();
    let pattern = CryptPattern { crypt_blocks: 1, skip_blocks: 9 };

    // Both schemes run over every sample, with the sample's own map, so
    // the two rates are comparable on one set of bytes.
    let ctr = replay(&mut samples, |s| {
        timed(|| {
            cenc::ctr::xcrypt_sample_in_place_with_cipher(
                &cipher,
                s.iv,
                &mut s.data,
                &s.subsamples,
            )
            .expect("captured maps cover their samples");
        })
    });
    let cbcs = replay(&mut samples, |s| {
        timed(|| {
            cenc::cbcs::decrypt_sample_in_place_with_cipher(
                &cipher,
                s.constant_iv,
                pattern,
                &mut s.data,
                &s.subsamples,
            )
            .expect("captured maps cover their samples");
        })
    });
    let crc = replay(&mut samples, |s| {
        timed(|| {
            black_box(crc32(black_box(&s.call_frame)));
            black_box(crc32(black_box(&s.reply_frame)));
        })
    });
    let encode = replay(&mut samples, |s| {
        timed(|| {
            black_box(encode_frame(black_box(&s.call_body)));
            black_box(encode_frame(black_box(&s.reply_body)));
        })
    });
    let decode = replay(&mut samples, |s| {
        timed(|| {
            black_box(decode_frame(black_box(&s.call_frame)).expect("own frames decode"));
            black_box(decode_frame(black_box(&s.reply_frame)).expect("own frames decode"));
        })
    });

    let us = |ns: &[f64]| crate::metrics::sum(ns) / 1e3;
    let mut isolated_ns = 0.0;
    for (i, s) in samples.iter().enumerate() {
        isolated_ns += if s.is_cbcs { cbcs[i] } else { ctr[i] };
        if over_wire {
            isolated_ns += encode[i] + decode[i];
        }
    }
    let round_trips_ns = samples.iter().map(|s| s.round_trip_ns as f64).fold(0.0, |a, b| a + b);
    ReplayReport {
        ctr_us_per_mib: us(&ctr) / payload,
        cbcs_us_per_mib: us(&cbcs) / payload,
        crc32_us_per_mib: us(&crc) / framed,
        encode_us_per_mib: us(&encode) / framed,
        decode_us_per_mib: us(&decode) / framed,
        residual_us_per_mib: (round_trips_ns - isolated_ns) / 1e3 / payload,
    }
}
