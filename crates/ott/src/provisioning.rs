//! The provisioning server: installs Device RSA Keys.
//!
//! Verifies the CMAC on each [`ProvisioningRequest`] against the trust
//! authority's device-key records, optionally applies the revocation
//! policy (the paper's Q4 axis: only Disney+, HBO Max and Starz ask for
//! enforcement), generates a fresh RSA key pair for the device, and
//! returns it wrapped under keybox-derived keys.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use wideleak_cdm::messages::{ProvisioningRequest, ProvisioningResponse};
use wideleak_cdm::provisioning::wrap_rsa_key;
use wideleak_crypto::cmac::aes_cmac_with_key;
use wideleak_crypto::ct::ct_eq;
use wideleak_crypto::rng::{random_array, seeded_rng};
use wideleak_crypto::rsa::RsaPrivateKey;
use wideleak_device::catalog::CdmVersion;

use crate::trust::TrustAuthority;
use crate::OttError;

/// The Widevine revocation policy: CDM versions below the floor are
/// revoked (no longer receiving security updates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RevocationPolicy {
    /// Minimum still-supported CDM version.
    pub min_cdm_version: CdmVersion,
}

impl Default for RevocationPolicy {
    fn default() -> Self {
        // The study's discontinued Nexus 5 runs CDM 3.1.0; anything before
        // the Android-11-era release train is revoked.
        RevocationPolicy { min_cdm_version: CdmVersion::new(14, 0, 0) }
    }
}

impl RevocationPolicy {
    /// Whether a version is revoked under this policy.
    pub fn is_revoked(&self, version: CdmVersion) -> bool {
        version < self.min_cdm_version
    }
}

/// The provisioning server.
pub struct ProvisioningServer {
    trust: Arc<TrustAuthority>,
    policy: RevocationPolicy,
    rsa_bits: usize,
    seed: u64,
    /// Cache of generated device keys so re-provisioning is stable (and
    /// tests don't pay RSA keygen twice).
    issued: Mutex<HashMap<Vec<u8>, RsaPrivateKey>>,
}

impl std::fmt::Debug for ProvisioningServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ProvisioningServer(rsa: {} bits, floor: {})",
            self.rsa_bits, self.policy.min_cdm_version
        )
    }
}

/// Tunable provisioning-server knobs; [`Default`] is the production
/// shape (2048-bit RSA, default revocation floor).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvisioningServerConfig {
    /// Revocation floor applied to apps that opt into enforcement.
    pub policy: RevocationPolicy,
    /// Size of issued Device RSA Keys (tests shrink this for speed).
    pub rsa_bits: usize,
    /// Seed for key generation and response IVs.
    pub seed: u64,
}

impl Default for ProvisioningServerConfig {
    fn default() -> Self {
        ProvisioningServerConfig { policy: RevocationPolicy::default(), rsa_bits: 2048, seed: 0 }
    }
}

/// Builds a [`ProvisioningServer`]. Obtained from
/// [`ProvisioningServer::builder`].
pub struct ProvisioningServerBuilder {
    trust: Arc<TrustAuthority>,
    config: ProvisioningServerConfig,
}

impl ProvisioningServerBuilder {
    /// Replaces the whole configuration at once.
    #[must_use]
    pub fn config(mut self, config: ProvisioningServerConfig) -> Self {
        self.config = config;
        self
    }

    /// The revocation floor.
    #[must_use]
    pub fn policy(mut self, policy: RevocationPolicy) -> Self {
        self.config.policy = policy;
        self
    }

    /// The issued RSA key size.
    #[must_use]
    pub fn rsa_bits(mut self, rsa_bits: usize) -> Self {
        self.config.rsa_bits = rsa_bits;
        self
    }

    /// The keying seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Builds the server.
    #[must_use]
    pub fn build(self) -> ProvisioningServer {
        ProvisioningServer {
            trust: self.trust,
            policy: self.config.policy,
            rsa_bits: self.config.rsa_bits,
            seed: self.config.seed,
            issued: Mutex::new(HashMap::new()),
        }
    }
}

impl ProvisioningServer {
    /// Starts configuring a provisioning server for a trust authority.
    #[must_use]
    pub fn builder(trust: Arc<TrustAuthority>) -> ProvisioningServerBuilder {
        ProvisioningServerBuilder { trust, config: ProvisioningServerConfig::default() }
    }

    /// The active revocation policy.
    pub fn policy(&self) -> RevocationPolicy {
        self.policy
    }

    /// Handles one provisioning request.
    ///
    /// `enforce_revocation` is the *app's* choice (Q4): when false, the
    /// server provisions even revoked devices — the widespread practice
    /// the paper criticizes.
    ///
    /// # Errors
    ///
    /// Returns [`OttError::Unauthorized`] for bad signatures or unknown
    /// devices and [`OttError::DeviceRevoked`] under enforcement.
    pub fn provision(
        &self,
        request: &ProvisioningRequest,
        enforce_revocation: bool,
    ) -> Result<ProvisioningResponse, OttError> {
        let device_key = self.trust.device_key(&request.device_id).ok_or(OttError::Unauthorized)?;
        let expected = aes_cmac_with_key(&device_key, &request.body_bytes());
        if !ct_eq(&expected, &request.signature) {
            return Err(OttError::Unauthorized);
        }
        if enforce_revocation && self.policy.is_revoked(request.cdm_version) {
            return Err(OttError::DeviceRevoked { cdm_version: request.cdm_version.to_string() });
        }

        let key = {
            let mut issued = self.issued.lock();
            issued
                .entry(request.device_id.clone())
                .or_insert_with(|| {
                    let mut rng_seed = self.seed;
                    for b in &request.device_id {
                        rng_seed = rng_seed.rotate_left(5) ^ *b as u64;
                    }
                    RsaPrivateKey::generate(&mut seeded_rng(rng_seed), self.rsa_bits)
                })
                .clone()
        };
        self.trust.record_rsa_key(&request.device_id, key.public_key().clone());
        self.trust.record_attested_level(&request.device_id, request.security_level);

        let mut iv_rng = seeded_rng(
            self.seed ^ u64::from_be_bytes(request.nonce[..8].try_into().expect("8 bytes")),
        );
        let iv: [u8; 16] = random_array(&mut iv_rng);
        Ok(wrap_rsa_key(&device_key, &request.device_id, request.nonce, iv, &key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wideleak_cdm::provisioning::unwrap_rsa_key;
    use wideleak_device::catalog::SecurityLevel;

    fn setup() -> (Arc<TrustAuthority>, ProvisioningServer) {
        let trust = Arc::new(TrustAuthority::new(11));
        let server = ProvisioningServer::builder(trust.clone()).rsa_bits(512).seed(900).build();
        (trust, server)
    }

    fn request(trust: &TrustAuthority, device: &str, version: CdmVersion) -> ProvisioningRequest {
        let kb = trust.issue_keybox(device);
        let mut req = ProvisioningRequest {
            device_id: kb.device_id().to_vec(),
            cdm_version: version,
            security_level: SecurityLevel::L3,
            nonce: [9; 16],
            signature: [0; 16],
        };
        req.signature = aes_cmac_with_key(kb.device_key(), &req.body_bytes());
        req
    }

    #[test]
    fn provisions_valid_devices() {
        let (trust, server) = setup();
        let req = request(&trust, "modern-phone", CdmVersion::new(16, 0, 0));
        let resp = server.provision(&req, true).unwrap();
        // The device can unwrap the response with its keybox material.
        let kb = trust.issue_keybox("modern-phone");
        let key = unwrap_rsa_key(kb.device_key(), kb.device_id(), Some([9; 16]), &resp).unwrap();
        assert_eq!(trust.rsa_key(kb.device_id()).unwrap(), *key.public_key());
    }

    #[test]
    fn rejects_unknown_devices() {
        let (_, server) = setup();
        let other_trust = TrustAuthority::new(999);
        let req = request(&other_trust, "alien-phone", CdmVersion::new(16, 0, 0));
        assert_eq!(server.provision(&req, false), Err(OttError::Unauthorized));
    }

    #[test]
    fn rejects_bad_signatures() {
        let (trust, server) = setup();
        let mut req = request(&trust, "phone", CdmVersion::new(16, 0, 0));
        req.signature[0] ^= 1;
        assert_eq!(server.provision(&req, false), Err(OttError::Unauthorized));
    }

    #[test]
    fn revocation_only_bites_under_enforcement() {
        let (trust, server) = setup();
        let req = request(&trust, "nexus5", CdmVersion::new(3, 1, 0));
        // Enforcing app (Disney+-like): refused.
        assert!(matches!(server.provision(&req, true), Err(OttError::DeviceRevoked { .. })));
        // Lenient app (Netflix-like): provisioned anyway.
        assert!(server.provision(&req, false).is_ok());
    }

    #[test]
    fn reprovisioning_returns_same_key() {
        let (trust, server) = setup();
        let req = request(&trust, "phone", CdmVersion::new(16, 0, 0));
        let kb = trust.issue_keybox("phone");
        let r1 = server.provision(&req, false).unwrap();
        let r2 = server.provision(&req, false).unwrap();
        let k1 = unwrap_rsa_key(kb.device_key(), kb.device_id(), None, &r1).unwrap();
        let k2 = unwrap_rsa_key(kb.device_key(), kb.device_id(), None, &r2).unwrap();
        assert_eq!(k1.public_key(), k2.public_key());
    }

    #[test]
    fn responses_are_deterministic_per_nonce() {
        let (trust, server) = setup();
        let req = request(&trust, "phone", CdmVersion::new(16, 0, 0));
        let baseline = server.provision(&req, false).unwrap();
        assert_eq!(server.provision(&req, false).unwrap(), baseline);
        // A different nonce still round-trips through keybox material.
        let mut req2 = request(&trust, "phone", CdmVersion::new(16, 0, 0));
        req2.nonce = [0xB7; 16];
        req2.signature =
            aes_cmac_with_key(&trust.device_key(&req2.device_id).unwrap(), &req2.body_bytes());
        let resp2 = server.provision(&req2, false).unwrap();
        assert_ne!(resp2, baseline, "nonce-dependent bytes differ");
        let kb = trust.issue_keybox("phone");
        let k = unwrap_rsa_key(kb.device_key(), kb.device_id(), Some([0xB7; 16]), &resp2).unwrap();
        assert_eq!(trust.rsa_key(kb.device_id()).unwrap(), *k.public_key());
    }

    #[test]
    fn rotated_keybox_reprovisions_under_the_new_device_key() {
        let (trust, server) = setup();
        let req = request(&trust, "phone", CdmVersion::new(16, 0, 0));
        server.provision(&req, false).unwrap();

        // Rotate the keybox: the device key changes, the identity stays.
        let kb = trust.rotate_keybox("phone");
        let mut req2 = ProvisioningRequest {
            device_id: kb.device_id().to_vec(),
            cdm_version: CdmVersion::new(16, 0, 0),
            security_level: wideleak_device::catalog::SecurityLevel::L3,
            nonce: [9; 16],
            signature: [0; 16],
        };
        req2.signature = aes_cmac_with_key(kb.device_key(), &req2.body_bytes());
        // The response unwraps under the *new* keybox.
        let resp = server.provision(&req2, false).unwrap();
        let key = unwrap_rsa_key(kb.device_key(), kb.device_id(), Some([9; 16]), &resp).unwrap();
        assert_eq!(trust.rsa_key(kb.device_id()).unwrap(), *key.public_key());
    }

    #[test]
    fn default_policy_revokes_the_nexus_5() {
        let policy = RevocationPolicy::default();
        assert!(policy.is_revoked(CdmVersion::new(3, 1, 0)));
        assert!(!policy.is_revoked(CdmVersion::new(16, 0, 0)));
        assert!(!policy.is_revoked(policy.min_cdm_version));
    }
}
