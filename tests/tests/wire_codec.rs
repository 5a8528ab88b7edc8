//! The TCP wire codec under adversarial inputs: `decode(encode(x)) == x`
//! for arbitrary generated calls and replies, and the decoder must
//! survive corpus-driven mutation and random-garbage fuzzing without a
//! panic, returning only the typed [`WireError`] taxonomy.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use wideleak::android_drm::binder::{DrmCall, DrmReply};
use wideleak::android_drm::wire::{
    decode_frame, decode_frame_full, encode_frame, encode_frame_full, FrameBody, WireError,
    HEADER_LEN, MAX_PAYLOAD, TRAILER_LEN,
};
use wideleak::android_drm::DrmError;
use wideleak::bmff::types::{KeyId, Subsample};
use wideleak::cdm::oemcrypto::SampleCrypto;
use wideleak::cdm::CdmError;
use wideleak::crypto::CryptoError;
use wideleak::tee::TeeError;

fn kid_strategy() -> impl Strategy<Value = KeyId> {
    any::<[u8; 16]>().prop_map(KeyId)
}

fn bytes_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..600)
}

fn subsamples_strategy() -> impl Strategy<Value = Vec<Subsample>> {
    proptest::collection::vec(
        (any::<u16>(), any::<u32>())
            .prop_map(|(clear_bytes, encrypted_bytes)| Subsample { clear_bytes, encrypted_bytes }),
        0..5,
    )
}

fn crypto_strategy() -> impl Strategy<Value = SampleCrypto> {
    prop_oneof![
        any::<[u8; 8]>().prop_map(|iv| SampleCrypto::Cenc { iv }),
        (any::<[u8; 16]>(), any::<u8>(), any::<u8>()).prop_map(|(constant_iv, crypt, skip)| {
            SampleCrypto::Cbcs { constant_iv, crypt_blocks: crypt, skip_blocks: skip }
        }),
    ]
}

/// Every [`DrmCall`] variant with arbitrary field contents.
fn call_strategy() -> impl Strategy<Value = DrmCall> {
    prop_oneof![
        any::<[u8; 16]>().prop_map(|uuid| DrmCall::IsSchemeSupported { uuid }),
        any::<[u8; 16]>().prop_map(|nonce| DrmCall::OpenSession { nonce }),
        any::<u32>().prop_map(|session_id| DrmCall::CloseSession { session_id }),
        Just(DrmCall::IsProvisioned),
        any::<[u8; 16]>().prop_map(|nonce| DrmCall::GetProvisionRequest { nonce }),
        (any::<[u8; 16]>(), bytes_strategy()).prop_map(|(nonce, response)| {
            DrmCall::ProvideProvisionResponse { nonce, response }
        }),
        (any::<u32>(), "[a-z0-9-]{0,40}", proptest::collection::vec(kid_strategy(), 0..6))
            .prop_map(|(session_id, content_id, key_ids)| DrmCall::GetKeyRequest {
                session_id,
                content_id,
                key_ids,
            }),
        (any::<u32>(), bytes_strategy()).prop_map(|(session_id, response)| {
            DrmCall::ProvideKeyResponse { session_id, response }
        }),
        (any::<u32>(), kid_strategy(), crypto_strategy(), bytes_strategy(), subsamples_strategy())
            .prop_map(|(session_id, kid, crypto, data, subsamples)| DrmCall::DecryptSample {
                session_id,
                kid,
                crypto,
                data,
                subsamples,
            }),
        (any::<u32>(), kid_strategy(), any::<[u8; 16]>(), bytes_strategy()).prop_map(
            |(session_id, kid, iv, data)| DrmCall::GenericEncrypt { session_id, kid, iv, data }
        ),
        (any::<u32>(), kid_strategy(), any::<[u8; 16]>(), bytes_strategy()).prop_map(
            |(session_id, kid, iv, data)| DrmCall::GenericDecrypt { session_id, kid, iv, data }
        ),
        (any::<u32>(), kid_strategy(), bytes_strategy())
            .prop_map(|(session_id, kid, data)| { DrmCall::GenericSign { session_id, kid, data } }),
        (any::<u32>(), kid_strategy(), bytes_strategy(), bytes_strategy()).prop_map(
            |(session_id, kid, data, signature)| DrmCall::GenericVerify {
                session_id,
                kid,
                data,
                signature,
            }
        ),
    ]
}

/// Every [`DrmReply`] shape and a cross-section of the nested error
/// taxonomy (CDM, TEE, crypto, wire), including `&'static str` reason
/// fields that must survive the intern round trip.
fn reply_corpus() -> Vec<Result<DrmReply, DrmError>> {
    vec![
        Ok(DrmReply::Unit),
        Ok(DrmReply::Bool(true)),
        Ok(DrmReply::SessionId(u32::MAX)),
        Ok(DrmReply::Bytes(vec![0xA5; 257])),
        Ok(DrmReply::KeyIds(vec![KeyId([0; 16]), KeyId([0xFF; 16])])),
        Err(DrmError::UnsupportedScheme { uuid: [0xDE; 16] }),
        Err(DrmError::BinderDied),
        Err(DrmError::ServerPanic),
        Err(DrmError::BadReply),
        Err(DrmError::Cdm(CdmError::NotProvisioned)),
        Err(DrmError::Cdm(CdmError::BadKeybox { reason: "CRC mismatch" })),
        Err(DrmError::Cdm(CdmError::Rejected { reason: "device revoked".into() })),
        Err(DrmError::Cdm(CdmError::Crypto(CryptoError::BadPadding))),
        Err(DrmError::Cdm(CdmError::Tee(TeeError::AccessDenied { reason: "not secure" }))),
        Err(DrmError::Wire(WireError::BadMagic { found: *b"HTTP" })),
        Err(DrmError::Wire(WireError::Truncated { needed: 12, got: 3 })),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The tentpole property: any call the binder can carry survives
    /// the wire byte-identically.
    #[test]
    fn arbitrary_calls_round_trip(call in call_strategy()) {
        let frame = encode_frame(&FrameBody::Call(call.clone()));
        prop_assert!(frame.len() >= HEADER_LEN + TRAILER_LEN);
        let (body, consumed) = decode_frame(&frame).expect("own frames must decode");
        prop_assert_eq!(consumed, frame.len());
        prop_assert_eq!(body, FrameBody::Call(call));
    }

    /// A frame followed by trailing stream bytes decodes to exactly the
    /// frame: `consumed` tells the stream reader where the next one
    /// starts, and the tail never leaks into the payload.
    #[test]
    fn framing_survives_a_busy_stream(call in call_strategy(), tail in bytes_strategy()) {
        let frame = encode_frame(&FrameBody::Call(call.clone()));
        let mut stream = frame.clone();
        stream.extend_from_slice(&tail);
        let (body, consumed) = decode_frame(&stream).expect("decode from the stream front");
        prop_assert_eq!(consumed, frame.len());
        prop_assert_eq!(body, FrameBody::Call(call));
    }

    /// Pure garbage never panics the decoder; it can only produce a
    /// typed error (a random buffer forging a valid frame would have to
    /// forge magic, version and CRC at once).
    #[test]
    fn random_garbage_yields_typed_errors(garbage in proptest::collection::vec(any::<u8>(), 0..200)) {
        match decode_frame(&garbage) {
            Ok(_) => {}
            Err(
                WireError::Truncated { .. }
                | WireError::Oversized { .. }
                | WireError::BadMagic { .. }
                | WireError::UnsupportedVersion { .. }
                | WireError::BadCrc { .. }
                | WireError::Malformed { .. },
            ) => {}
        }
    }
}

#[test]
fn reply_corpus_round_trips() {
    for reply in reply_corpus() {
        let frame = encode_frame(&FrameBody::Reply(reply.clone()));
        let (body, consumed) = decode_frame(&frame).expect("own frames must decode");
        assert_eq!(consumed, frame.len());
        assert_eq!(body, FrameBody::Reply(reply));
    }
}

/// Corpus-driven mutation fuzz: take every valid frame in the corpus and
/// hammer it with seeded byte flips, splices and length rewrites. The
/// decoder must never panic, and a single-byte change can never decode
/// successfully — the CRC (or an earlier header check) has to catch it.
#[test]
fn mutated_corpus_never_panics_and_never_false_decodes() {
    let mut corpus: Vec<Vec<u8>> =
        reply_corpus().into_iter().map(|r| encode_frame(&FrameBody::Reply(r))).collect();
    corpus.push(encode_frame(&FrameBody::Call(DrmCall::IsProvisioned)));
    corpus.push(encode_frame(&FrameBody::Call(DrmCall::DecryptSample {
        session_id: 3,
        kid: KeyId([1; 16]),
        crypto: SampleCrypto::Cenc { iv: [2; 8] },
        data: vec![0x42; 96],
        subsamples: vec![Subsample { clear_bytes: 16, encrypted_bytes: 80 }],
    })));

    let mut rng = StdRng::seed_from_u64(0x57_49_44_45);
    for frame in &corpus {
        // Single-byte XOR at every position: always a typed error.
        for pos in 0..frame.len() {
            let mut bad = frame.clone();
            let delta = (rng.next_u32() % 255) as u8 + 1;
            bad[pos] ^= delta;
            assert!(
                decode_frame(&bad).is_err(),
                "a flipped byte at {pos} must not decode (frame len {})",
                frame.len()
            );
        }
        // Random splices and rewrites: only "no panic, typed error" is
        // guaranteed (a splice may reassemble a valid frame prefix).
        for _ in 0..64 {
            let mut bad = frame.clone();
            match rng.next_u32() % 3 {
                0 => {
                    let cut = (rng.next_u32() as usize) % (bad.len() + 1);
                    bad.truncate(cut);
                }
                1 => {
                    let extra = (rng.next_u32() as usize) % 32;
                    bad.extend(std::iter::repeat_n(0xAAu8, extra));
                }
                _ => {
                    let len = (rng.next_u32() as usize) % (MAX_PAYLOAD * 2);
                    bad[8..12].copy_from_slice(&(len as u32).to_le_bytes());
                }
            }
            let _ = decode_frame(&bad);
        }
    }
}

/// Rewrites a v3 frame's header version byte to an older revision and
/// recomputes the CRC, producing the frame a downlevel peer would have
/// sent (a bare frame carries no extension flags, so the payload layout
/// is identical across versions).
fn downlevel_frame(version: u8, body: &FrameBody) -> Vec<u8> {
    let mut frame = encode_frame(body);
    assert_eq!(frame[6], 0, "a bare frame carries no extension flags");
    frame[4] = version;
    let body_end = frame.len() - TRAILER_LEN;
    let crc = wideleak::crypto::crc32::crc32(&frame[..body_end]);
    frame[body_end..].copy_from_slice(&crc.to_le_bytes());
    frame
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The v3 request-id extension: any call tagged with any request id
    /// survives the wire byte-identically, the id reaches the decoded
    /// frame metadata, and it never bleeds into the body.
    #[test]
    fn request_ids_round_trip_on_arbitrary_calls(call in call_strategy(), id in any::<u64>()) {
        let frame = encode_frame_full(&FrameBody::Call(call.clone()), None, Some(id));
        let (body, meta, consumed) = decode_frame_full(&frame).expect("own frames must decode");
        prop_assert_eq!(consumed, frame.len());
        prop_assert_eq!(meta.request_id, Some(id));
        prop_assert!(meta.ctx.is_none());
        prop_assert_eq!(body, FrameBody::Call(call));
    }

    /// Downlevel compatibility: v1 and v2 frames (which cannot carry a
    /// request id) still decode under the v3 decoder, with no id.
    #[test]
    fn downlevel_frames_decode_with_no_request_id(call in call_strategy(), version in 1u8..=2) {
        let frame = downlevel_frame(version, &FrameBody::Call(call.clone()));
        let (body, meta, consumed) = decode_frame_full(&frame).expect("downlevel frames decode");
        prop_assert_eq!(consumed, frame.len());
        prop_assert_eq!(meta.request_id, None);
        prop_assert!(meta.ctx.is_none());
        prop_assert_eq!(body, FrameBody::Call(call));
    }
}

/// Every reply shape in the corpus — including the nested error
/// taxonomy — round-trips with a request id attached, exactly as the
/// reactor echoes ids on replies.
#[test]
fn reply_corpus_round_trips_with_request_ids() {
    for (i, reply) in reply_corpus().into_iter().enumerate() {
        let id = (i as u64).wrapping_mul(0x0101_0101_0101_0101).wrapping_add(7);
        let frame = encode_frame_full(&FrameBody::Reply(reply.clone()), None, Some(id));
        let (body, meta, consumed) = decode_frame_full(&frame).expect("own frames must decode");
        assert_eq!(consumed, frame.len());
        assert_eq!(meta.request_id, Some(id));
        assert_eq!(body, FrameBody::Reply(reply));
    }
}

/// The request-id flag is only legal from v3 on. A v2 frame carrying it
/// breaks v2's reserved-bits promise and must be rejected as malformed,
/// not silently decoded.
#[test]
fn a_v2_frame_carrying_the_request_id_flag_is_malformed() {
    let mut frame = encode_frame_full(&FrameBody::Call(DrmCall::IsProvisioned), None, Some(9));
    frame[4] = 2;
    let body_end = frame.len() - TRAILER_LEN;
    let crc = wideleak::crypto::crc32::crc32(&frame[..body_end]);
    frame[body_end..].copy_from_slice(&crc.to_le_bytes());
    assert_eq!(
        decode_frame_full(&frame),
        Err(WireError::Malformed { what: "unknown header flags" })
    );
}

/// The CRC covers the request id: no flipped byte anywhere in an
/// id-tagged frame may survive the full decode.
#[test]
fn flipped_id_bytes_never_survive_the_full_decode() {
    let frame = encode_frame_full(
        &FrameBody::Call(DrmCall::CloseSession { session_id: 44 }),
        None,
        Some(0xDEAD_BEEF_F00D_CAFE),
    );
    for pos in HEADER_LEN..HEADER_LEN + 8 {
        let mut bad = frame.clone();
        bad[pos] ^= 0x40;
        assert!(
            decode_frame_full(&bad).is_err(),
            "a flipped request-id byte at {pos} must not fully decode"
        );
    }
}
