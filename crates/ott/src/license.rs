//! The license server: authenticates devices, applies app policy, and
//! wraps content keys.
//!
//! For every request the server verifies the Device RSA signature against
//! the trust authority's provisioning records, checks the subscriber
//! token, optionally applies revocation (per app), gates HD keys on the
//! device's security level (the reason L3 playback tops out at 540p), and
//! returns the content keys wrapped under the session key ladder.

use std::sync::Arc;

use wideleak_bmff::types::KeyId;
use wideleak_cdm::ladder::derive_session_keys;
use wideleak_cdm::messages::{KeyControl, KeyEntry, LicenseRequest, LicenseResponse};
use wideleak_crypto::aes::Aes128;
use wideleak_crypto::hmac::Hmac;
use wideleak_crypto::modes::cbc_encrypt_padded;
use wideleak_crypto::rng::{random_array, seeded_rng};
use wideleak_crypto::sha256::Sha256;
use wideleak_device::catalog::SecurityLevel;

use crate::accounts::AccountRegistry;
use crate::content::{
    key_from_label, kid_from_label, track_key_label, AudioProtection, TrackSelector, L3_MAX_HEIGHT,
    RESOLUTIONS,
};
use crate::provisioning::RevocationPolicy;
use crate::trust::TrustAuthority;
use crate::OttError;

/// Default license duration in seconds (one day, renewable).
pub const DEFAULT_LICENSE_DURATION_SECS: u32 = 86_400;

/// Per-app licensing policy (derived from the app profile).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LicensePolicy {
    /// How audio is protected (decides which key labels exist).
    pub audio: AudioProtection,
    /// Whether the app honours the revocation list.
    pub enforce_revocation: bool,
    /// Whether the app licenses a non-DASH "URI channel" key used to
    /// protect manifest links (Netflix's secure channel).
    pub uri_channel: bool,
}

/// The key label of an app's non-DASH URI-protection channel.
pub fn uri_channel_label(app: &str, title_id: &str) -> String {
    format!("{app}/{title_id}/uri")
}

/// The license server.
pub struct LicenseServer {
    trust: Arc<TrustAuthority>,
    accounts: Arc<AccountRegistry>,
    revocation: RevocationPolicy,
    /// Whether to cross-check the claimed security level against the
    /// provisioning-time attestation (Android does; per the paper's §V-C,
    /// web-browser deployments effectively do not).
    verify_attested_level: bool,
    seed: u64,
}

impl std::fmt::Debug for LicenseServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LicenseServer(floor: {})", self.revocation.min_cdm_version)
    }
}

/// Tunable license-server knobs; [`Default`] matches production Android
/// deployments (attestation checked, default revocation floor).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LicenseServerConfig {
    /// Revocation floor applied to apps that opt into enforcement.
    pub revocation: RevocationPolicy,
    /// Whether claimed security levels are clamped to the attested one.
    pub verify_attested_level: bool,
    /// Seed for session-key and IV generation.
    pub seed: u64,
}

impl Default for LicenseServerConfig {
    fn default() -> Self {
        LicenseServerConfig {
            revocation: RevocationPolicy::default(),
            verify_attested_level: true,
            seed: 0,
        }
    }
}

/// Builds a [`LicenseServer`]. Obtained from [`LicenseServer::builder`].
pub struct LicenseServerBuilder {
    trust: Arc<TrustAuthority>,
    accounts: Arc<AccountRegistry>,
    config: LicenseServerConfig,
}

impl LicenseServerBuilder {
    /// Replaces the whole configuration at once.
    #[must_use]
    pub fn config(mut self, config: LicenseServerConfig) -> Self {
        self.config = config;
        self
    }

    /// The revocation floor.
    #[must_use]
    pub fn revocation(mut self, revocation: RevocationPolicy) -> Self {
        self.config.revocation = revocation;
        self
    }

    /// Whether to clamp claimed levels to the provisioning-time
    /// attestation (the web-browser-like deployments of §V-C turn this
    /// off).
    #[must_use]
    pub fn verify_attested_level(mut self, verify: bool) -> Self {
        self.config.verify_attested_level = verify;
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
    pub fn build(self) -> LicenseServer {
        LicenseServer {
            trust: self.trust,
            accounts: self.accounts,
            revocation: self.config.revocation,
            verify_attested_level: self.config.verify_attested_level,
            seed: self.config.seed,
        }
    }
}

impl LicenseServer {
    /// Starts configuring a license server for a trust authority and an
    /// account registry (the two collaborators every deployment needs).
    #[must_use]
    pub fn builder(
        trust: Arc<TrustAuthority>,
        accounts: Arc<AccountRegistry>,
    ) -> LicenseServerBuilder {
        LicenseServerBuilder { trust, accounts, config: LicenseServerConfig::default() }
    }

    /// Disables attested-level verification — the web-browser-like
    /// configuration the netflix-1080p exploit relied on (§V-C).
    pub fn without_attestation_check(mut self) -> Self {
        self.verify_attested_level = false;
        self
    }

    /// The control block for a key label (video heights gate on L1).
    fn control_for(label: &str) -> KeyControl {
        for (_, h) in RESOLUTIONS {
            if label.ends_with(&format!("/video-{h}")) {
                return KeyControl {
                    max_resolution_height: h,
                    min_security_level: if h > L3_MAX_HEIGHT {
                        SecurityLevel::L1
                    } else {
                        SecurityLevel::L3
                    },
                    duration_seconds: DEFAULT_LICENSE_DURATION_SECS,
                };
            }
        }
        // Audio keys are playable at any level.
        KeyControl {
            max_resolution_height: 0,
            min_security_level: SecurityLevel::L3,
            duration_seconds: DEFAULT_LICENSE_DURATION_SECS,
        }
    }

    /// All key labels that exist for `(app, title)` under a policy.
    fn labels_for(app: &str, title_id: &str, policy: LicensePolicy) -> Vec<String> {
        let mut labels: Vec<String> = RESOLUTIONS
            .iter()
            .filter_map(|&(_, h)| {
                track_key_label(app, title_id, &TrackSelector::Video { height: h }, policy.audio)
            })
            .collect();
        if let Some(audio) = track_key_label(
            app,
            title_id,
            &TrackSelector::Audio { lang: "en".into() },
            policy.audio,
        ) {
            if !labels.contains(&audio) {
                labels.push(audio);
            }
        }
        if policy.uri_channel {
            labels.push(uri_channel_label(app, title_id));
        }
        labels
    }

    /// Handles one license request for `(app, title)`.
    ///
    /// # Errors
    ///
    /// Returns [`OttError::Unauthorized`] for invalid tokens, signatures
    /// or unprovisioned devices; [`OttError::DeviceRevoked`] under
    /// enforcement; [`OttError::NotFound`] when no requested key exists.
    pub fn issue_license(
        &self,
        app: &str,
        title_id: &str,
        policy: LicensePolicy,
        account_token: &str,
        request: &LicenseRequest,
    ) -> Result<LicenseResponse, OttError> {
        if !self.accounts.is_valid(account_token) {
            return Err(OttError::Unauthorized);
        }
        let device_rsa = self.trust.rsa_key(&request.device_id).ok_or(OttError::Unauthorized)?;
        device_rsa
            .verify_pkcs1v15_sha256(&request.body_bytes(), &request.rsa_signature)
            .map_err(|_| OttError::Unauthorized)?;
        if policy.enforce_revocation && self.revocation.is_revoked(request.cdm_version) {
            return Err(OttError::DeviceRevoked { cdm_version: request.cdm_version.to_string() });
        }
        // Effective security level: a client may claim any level, but when
        // attestation checking is on, claims stronger than the
        // provisioning-time attestation are clamped to the attested level.
        let effective_level = if self.verify_attested_level {
            match self.trust.attested_level(&request.device_id) {
                Some(attested) if request.security_level < attested => attested,
                _ => request.security_level,
            }
        } else {
            request.security_level
        };

        // Resolve requested key ids against this app/title's labels.
        let labels = Self::labels_for(app, title_id, policy);
        let available: Vec<(KeyId, String)> =
            labels.into_iter().map(|l| (kid_from_label(&l), l)).collect();

        let selected: Vec<&(KeyId, String)> = if request.key_ids.is_empty() {
            // No explicit key ids: serve everything the level permits.
            available.iter().collect()
        } else {
            available.iter().filter(|(kid, _)| request.key_ids.contains(kid)).collect()
        };
        if selected.is_empty() {
            return Err(OttError::NotFound { what: format!("keys for {title_id}") });
        }
        let plan: Vec<(KeyId, &str, KeyControl)> = selected
            .into_iter()
            .map(|(kid, label)| (*kid, label.as_str(), Self::control_for(label)))
            // HD keys never leave the server for sub-L1 requesters.
            .filter(|(_, _, control)| effective_level <= control.min_security_level)
            .collect();
        if plan.is_empty() {
            return Err(OttError::NotFound {
                what: format!("keys for {title_id} at {}", request.security_level),
            });
        }

        if wideleak_telemetry::is_enabled() {
            // Narrow (per-tier) requests are the license-churn signal the
            // adaptation study watches; open requests cover every tier.
            if request.key_ids.is_empty() {
                wideleak_telemetry::incr("license.issued.open");
            } else {
                wideleak_telemetry::incr("license.issued.narrow");
            }
            wideleak_telemetry::add("license.keys_served", plan.len() as u64);
        }

        // Session key and derivation contexts, seeded by the nonce.
        let mut rng = seeded_rng(
            self.seed ^ u64::from_be_bytes(request.nonce[..8].try_into().expect("8 bytes")),
        );
        let session_key: [u8; 16] = random_array(&mut rng);
        let enc_context = format!("ENC|{app}|{title_id}").into_bytes();
        let mac_context = format!("MAC|{app}|{title_id}").into_bytes();
        let keys = derive_session_keys(&session_key, &enc_context, &mac_context);
        let cipher = Aes128::new(&keys.enc_key);

        let key_entries: Vec<KeyEntry> = plan
            .iter()
            .map(|&(kid, label, control)| {
                let iv: [u8; 16] = random_array(&mut rng);
                KeyEntry {
                    kid,
                    iv,
                    encrypted_key: cbc_encrypt_padded(&cipher, &iv, &key_from_label(label).0),
                    control,
                }
            })
            .collect();

        let encrypted_session_key = device_rsa
            .encrypt_oaep(&mut rng, &session_key)
            .map_err(|e| OttError::Protocol { reason: format!("session key wrap: {e}") })?;
        let mut resp = LicenseResponse {
            nonce: request.nonce,
            encrypted_session_key,
            enc_context,
            mac_context,
            key_entries,
            signature: Vec::new(),
        };
        resp.signature = Hmac::<Sha256>::mac(&keys.mac_key_server, &resp.body_bytes());
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provisioning::ProvisioningServer;
    use wideleak_cdm::messages::ProvisioningRequest;
    use wideleak_cdm::provisioning::unwrap_rsa_key;
    use wideleak_crypto::cmac::aes_cmac_with_key;
    use wideleak_crypto::rsa::RsaPrivateKey;
    use wideleak_device::catalog::CdmVersion;

    struct Fixture {
        license: LicenseServer,
        accounts: Arc<AccountRegistry>,
        rsa: RsaPrivateKey,
        device_id: Vec<u8>,
    }

    fn fixture() -> Fixture {
        let trust = Arc::new(TrustAuthority::new(42));
        let accounts = Arc::new(AccountRegistry::new());
        let prov = ProvisioningServer::builder(trust.clone()).rsa_bits(768).seed(1000).build();
        // Provision a device so the license server knows its RSA key.
        let kb = trust.issue_keybox("test-device");
        let mut preq = ProvisioningRequest {
            device_id: kb.device_id().to_vec(),
            cdm_version: CdmVersion::new(3, 1, 0),
            // Attest L1: tests claim both L1 and L3 (weaker claims are
            // always allowed; stronger ones are clamped).
            security_level: SecurityLevel::L1,
            nonce: [1; 16],
            signature: [0; 16],
        };
        preq.signature = aes_cmac_with_key(kb.device_key(), &preq.body_bytes());
        let presp = prov.provision(&preq, false).unwrap();
        let rsa = unwrap_rsa_key(kb.device_key(), kb.device_id(), None, &presp).unwrap();
        let license = LicenseServer::builder(trust, accounts.clone()).seed(7).build();
        Fixture { license, accounts, rsa, device_id: kb.device_id().to_vec() }
    }

    fn signed_request(
        f: &Fixture,
        key_ids: Vec<KeyId>,
        level: SecurityLevel,
        version: CdmVersion,
    ) -> LicenseRequest {
        let mut req = LicenseRequest {
            device_id: f.device_id.clone(),
            content_id: "title-001".into(),
            key_ids,
            nonce: [3; 16],
            cdm_version: version,
            security_level: level,
            rsa_signature: Vec::new(),
        };
        req.rsa_signature = f.rsa.sign_pkcs1v15_sha256(&req.body_bytes()).unwrap();
        req
    }

    fn policy(audio: AudioProtection, enforce: bool) -> LicensePolicy {
        LicensePolicy { audio, enforce_revocation: enforce, uri_channel: false }
    }

    #[test]
    fn issues_sub_hd_keys_to_l3() {
        let f = fixture();
        let token = f.accounts.subscribe("netflix", "alice");
        let req = signed_request(&f, vec![], SecurityLevel::L3, CdmVersion::new(3, 1, 0));
        let resp = f
            .license
            .issue_license(
                "netflix",
                "title-001",
                policy(AudioProtection::Clear, false),
                &token,
                &req,
            )
            .unwrap();
        // Clear-audio app: only video keys exist; L3 gets only 540p.
        assert_eq!(resp.key_entries.len(), 1);
        assert_eq!(resp.key_entries[0].control.max_resolution_height, 540);
    }

    #[test]
    fn issues_all_keys_to_l1() {
        let f = fixture();
        let token = f.accounts.subscribe("amazon", "alice");
        let req = signed_request(&f, vec![], SecurityLevel::L1, CdmVersion::new(16, 0, 0));
        let resp = f
            .license
            .issue_license(
                "amazon",
                "title-001",
                policy(AudioProtection::DistinctKey, false),
                &token,
                &req,
            )
            .unwrap();
        // 3 video resolutions + 1 distinct audio key.
        assert_eq!(resp.key_entries.len(), 4);
    }

    #[test]
    fn shared_audio_key_collapses_with_video() {
        let f = fixture();
        let token = f.accounts.subscribe("hulu", "alice");
        let req = signed_request(&f, vec![], SecurityLevel::L1, CdmVersion::new(16, 0, 0));
        let resp = f
            .license
            .issue_license(
                "hulu",
                "title-001",
                policy(AudioProtection::SharedKeyWithVideo, false),
                &token,
                &req,
            )
            .unwrap();
        // 3 video keys; the audio key *is* the 540p video key.
        assert_eq!(resp.key_entries.len(), 3);
    }

    #[test]
    fn invalid_token_rejected() {
        let f = fixture();
        let req = signed_request(&f, vec![], SecurityLevel::L3, CdmVersion::new(16, 0, 0));
        assert_eq!(
            f.license.issue_license(
                "netflix",
                "title-001",
                policy(AudioProtection::Clear, false),
                "token:netflix:nobody",
                &req,
            ),
            Err(OttError::Unauthorized)
        );
    }

    #[test]
    fn bad_signature_rejected() {
        let f = fixture();
        let token = f.accounts.subscribe("netflix", "alice");
        let mut req = signed_request(&f, vec![], SecurityLevel::L3, CdmVersion::new(16, 0, 0));
        req.rsa_signature[0] ^= 1;
        assert_eq!(
            f.license.issue_license(
                "netflix",
                "title-001",
                policy(AudioProtection::Clear, false),
                &token,
                &req,
            ),
            Err(OttError::Unauthorized)
        );
    }

    #[test]
    fn revocation_enforced_per_app_policy() {
        let f = fixture();
        let token = f.accounts.subscribe("disney", "alice");
        let req = signed_request(&f, vec![], SecurityLevel::L3, CdmVersion::new(3, 1, 0));
        assert!(matches!(
            f.license.issue_license(
                "disney",
                "title-001",
                policy(AudioProtection::SharedKeyWithVideo, true),
                &token,
                &req,
            ),
            Err(OttError::DeviceRevoked { .. })
        ));
        // Same request, lenient app: served.
        assert!(f
            .license
            .issue_license(
                "disney",
                "title-001",
                policy(AudioProtection::SharedKeyWithVideo, false),
                &token,
                &req,
            )
            .is_ok());
    }

    #[test]
    fn unknown_key_ids_not_found() {
        let f = fixture();
        let token = f.accounts.subscribe("netflix", "alice");
        let req = signed_request(
            &f,
            vec![KeyId([0xEE; 16])],
            SecurityLevel::L3,
            CdmVersion::new(16, 0, 0),
        );
        assert!(matches!(
            f.license.issue_license(
                "netflix",
                "title-001",
                policy(AudioProtection::Clear, false),
                &token,
                &req,
            ),
            Err(OttError::NotFound { .. })
        ));
    }

    #[test]
    fn licenses_are_deterministic_per_nonce() {
        let f = fixture();
        let token = f.accounts.subscribe("netflix", "alice");
        let pol = policy(AudioProtection::Clear, false);
        let req = signed_request(&f, vec![], SecurityLevel::L3, CdmVersion::new(3, 1, 0));
        let baseline = f.license.issue_license("netflix", "title-001", pol, &token, &req).unwrap();
        assert_eq!(
            f.license.issue_license("netflix", "title-001", pol, &token, &req).unwrap(),
            baseline
        );
        // A fresh nonce serves the same keys under freshly wrapped bytes.
        let mut req2 = signed_request(&f, vec![], SecurityLevel::L3, CdmVersion::new(3, 1, 0));
        req2.nonce = [0x4C; 16];
        req2.rsa_signature = f.rsa.sign_pkcs1v15_sha256(&req2.body_bytes()).unwrap();
        let resp2 = f.license.issue_license("netflix", "title-001", pol, &token, &req2).unwrap();
        assert_ne!(resp2, baseline);
        assert_eq!(resp2.key_entries.len(), baseline.key_entries.len());
    }

    #[test]
    fn hd_keys_withheld_from_l3_even_when_requested() {
        let f = fixture();
        let token = f.accounts.subscribe("netflix", "alice");
        let hd_label = "netflix/title-001/video-1080";
        let hd_kid = kid_from_label(hd_label);
        let req = signed_request(&f, vec![hd_kid], SecurityLevel::L3, CdmVersion::new(3, 1, 0));
        // The only requested key needs L1 → nothing issuable.
        assert!(matches!(
            f.license.issue_license(
                "netflix",
                "title-001",
                policy(AudioProtection::Clear, false),
                &token,
                &req,
            ),
            Err(OttError::NotFound { .. })
        ));
    }
}
