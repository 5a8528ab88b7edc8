//! Provisioning: installing the Device RSA Key.
//!
//! The keybox only bootstraps trust. To sign license requests the CDM
//! needs a 2048-bit Device RSA Key, which the Provisioning Server installs
//! on first use: the CDM sends a CMAC-authenticated request carrying its
//! device id, and the server answers with the private key AES-CBC-wrapped
//! under a keybox-derived provisioning key. An attacker holding the keybox
//! can therefore unwrap the provisioning response too — the exact step
//! the paper's PoC performs after the memory scan.
//!
//! This module hosts the *serialization* of RSA keys and the shared
//! wrap/unwrap routines used by both the CDM core and the (simulated)
//! provisioning server; the request/response message types live in
//! [`crate::messages`].

use wideleak_bigint::BigUint;
use wideleak_crypto::hmac::Hmac;
use wideleak_crypto::modes::{cbc_decrypt_padded, cbc_encrypt_padded};
use wideleak_crypto::rsa::RsaPrivateKey;
use wideleak_crypto::sha256::Sha256;
use wideleak_crypto::{aes::Aes128, ct::ct_eq};

use crate::ladder::derive_provisioning_keys;
use crate::messages::ProvisioningResponse;
use crate::wire::{TlvReader, TlvWriter};
use crate::CdmError;

/// Serializes an RSA private key to the provisioning blob format
/// (`n`, `e`, `d`, `p`, `q` as TLV fields).
pub fn serialize_rsa_key(key: &RsaPrivateKey) -> Vec<u8> {
    let (p, q) = key.factors();
    let mut w = TlvWriter::new();
    w.bytes(0x0501, &key.public_key().modulus().to_bytes_be())
        .bytes(0x0502, &key.public_key().exponent().to_bytes_be())
        .bytes(0x0503, &key.private_exponent().to_bytes_be())
        .bytes(0x0504, &p.to_bytes_be())
        .bytes(0x0505, &q.to_bytes_be());
    w.finish()
}

/// Parses an RSA private key from the provisioning blob format.
///
/// # Errors
///
/// Returns [`CdmError::BadMessage`] on decode failure or inconsistent key
/// components.
pub fn deserialize_rsa_key(blob: &[u8]) -> Result<RsaPrivateKey, CdmError> {
    let r = TlvReader::parse(blob)?;
    let n = BigUint::from_bytes_be(r.require(0x0501)?);
    let e = BigUint::from_bytes_be(r.require(0x0502)?);
    let d = BigUint::from_bytes_be(r.require(0x0503)?);
    let p = BigUint::from_bytes_be(r.require(0x0504)?);
    let q = BigUint::from_bytes_be(r.require(0x0505)?);
    RsaPrivateKey::from_components(n, e, d, p, q)
        .map_err(|_| CdmError::BadMessage { reason: "inconsistent RSA key components" })
}

/// Server side: wraps an RSA key into a provisioning response for the
/// device owning `device_id`/`device_key`.
pub fn wrap_rsa_key(
    device_key: &[u8; 16],
    device_id: &[u8],
    nonce: [u8; 16],
    iv: [u8; 16],
    key: &RsaPrivateKey,
) -> ProvisioningResponse {
    let (enc_key, mac_key) = derive_provisioning_keys(device_key, device_id);
    let encrypted_rsa_key =
        cbc_encrypt_padded(&Aes128::new(&enc_key), &iv, &serialize_rsa_key(key));
    let mut resp = ProvisioningResponse { iv, encrypted_rsa_key, nonce, signature: Vec::new() };
    resp.signature = Hmac::<Sha256>::mac(&mac_key, &resp.body_bytes());
    resp
}

/// Client side (CDM core *and* attack PoC): verifies and unwraps a
/// provisioning response with keybox material.
///
/// # Errors
///
/// Returns [`CdmError::BadSignature`] when the MAC fails and
/// [`CdmError::BadMessage`] on decryption or decoding failures.
pub fn unwrap_rsa_key(
    device_key: &[u8; 16],
    device_id: &[u8],
    expected_nonce: Option<[u8; 16]>,
    response: &ProvisioningResponse,
) -> Result<RsaPrivateKey, CdmError> {
    let (enc_key, mac_key) = derive_provisioning_keys(device_key, device_id);
    let expected_sig = Hmac::<Sha256>::mac(&mac_key, &response.body_bytes());
    if !ct_eq(&expected_sig, &response.signature) {
        return Err(CdmError::BadSignature);
    }
    if let Some(nonce) = expected_nonce {
        if nonce != response.nonce {
            return Err(CdmError::BadMessage { reason: "provisioning nonce mismatch" });
        }
    }
    let blob =
        cbc_decrypt_padded(&Aes128::new(&enc_key), &response.iv, &response.encrypted_rsa_key)
            .map_err(|_| CdmError::BadMessage { reason: "provisioning blob decryption failed" })?;
    deserialize_rsa_key(&blob)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;
    use wideleak_crypto::rng::seeded_rng;

    fn test_key() -> &'static RsaPrivateKey {
        static KEY: OnceLock<RsaPrivateKey> = OnceLock::new();
        KEY.get_or_init(|| RsaPrivateKey::generate(&mut seeded_rng(1234), 512))
    }

    #[test]
    fn rsa_key_serialization_round_trip() {
        let key = test_key();
        let blob = serialize_rsa_key(key);
        let parsed = deserialize_rsa_key(&blob).unwrap();
        assert_eq!(parsed.public_key(), key.public_key());
        let sig = parsed.sign_pkcs1v15_sha256(b"probe").unwrap();
        key.public_key().verify_pkcs1v15_sha256(b"probe", &sig).unwrap();
    }

    #[test]
    fn corrupted_blob_rejected() {
        let mut blob = serialize_rsa_key(test_key());
        let mid = blob.len() / 2;
        blob[mid] ^= 0xFF;
        assert!(deserialize_rsa_key(&blob).is_err());
    }

    #[test]
    fn wrap_unwrap_round_trip() {
        let device_key = [0x11u8; 16];
        let device_id = b"provision-me";
        let resp = wrap_rsa_key(&device_key, device_id, [7; 16], [8; 16], test_key());
        let key = unwrap_rsa_key(&device_key, device_id, Some([7; 16]), &resp).unwrap();
        assert_eq!(key.public_key(), test_key().public_key());
    }

    #[test]
    fn wrong_device_key_fails_mac() {
        let resp = wrap_rsa_key(&[1; 16], b"dev", [0; 16], [0; 16], test_key());
        assert_eq!(unwrap_rsa_key(&[2; 16], b"dev", None, &resp), Err(CdmError::BadSignature));
    }

    #[test]
    fn wrong_device_id_fails_mac() {
        let resp = wrap_rsa_key(&[1; 16], b"dev-a", [0; 16], [0; 16], test_key());
        assert_eq!(unwrap_rsa_key(&[1; 16], b"dev-b", None, &resp), Err(CdmError::BadSignature));
    }

    #[test]
    fn nonce_mismatch_rejected() {
        let resp = wrap_rsa_key(&[1; 16], b"dev", [5; 16], [0; 16], test_key());
        assert!(matches!(
            unwrap_rsa_key(&[1; 16], b"dev", Some([6; 16]), &resp),
            Err(CdmError::BadMessage { .. })
        ));
        // Without nonce checking (the attack path) it succeeds.
        assert!(unwrap_rsa_key(&[1; 16], b"dev", None, &resp).is_ok());
    }

    #[test]
    fn tampered_ciphertext_fails_mac_first() {
        let mut resp = wrap_rsa_key(&[1; 16], b"dev", [0; 16], [0; 16], test_key());
        resp.encrypted_rsa_key[10] ^= 1;
        assert_eq!(unwrap_rsa_key(&[1; 16], b"dev", None, &resp), Err(CdmError::BadSignature));
    }
}
