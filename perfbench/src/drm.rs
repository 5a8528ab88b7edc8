//! The client side of the TCP workload, written against the program's
//! public surface: a media DRM server on loopback, device provisioning
//! and the license exchange, each a sequence of [`DrmCall`]s plus one
//! backend request.

use std::net::SocketAddr;
use std::sync::Arc;

use wideleak::android_drm::binder::{DrmCall, Transport};
use wideleak::android_drm::netserver::TcpBinder;
use wideleak::android_drm::reactor::TcpDrmServer;
use wideleak::bmff::types::KeyId;
use wideleak::cdm::wire::TlvWriter;
use wideleak::device::catalog::DeviceModel;
use wideleak::device::net::RemoteEndpoint;
use wideleak::ott::ecosystem::{Ecosystem, EcosystemConfig};

use crate::spans::{Capture, Recorder, TracedEndpoint, TracedTransport};

/// The app whose backend provisions the served device (any app would
/// do: a modern device passes every revocation policy).
const PROVISIONING_APP: &str = "netflix";

/// One media DRM server on loopback, fronting a single provisioned
/// device, plus the backend its clients license against. The default
/// ecosystem configuration: RSA-2048, caches off, no faults.
pub struct Served {
    pub eco: Ecosystem,
    pub endpoint: Arc<dyn RemoteEndpoint>,
    _server: TcpDrmServer,
    pub addr: SocketAddr,
    tracing: Option<Tracing>,
}

/// What a traced run wraps every binder with.
#[derive(Clone)]
pub struct Tracing {
    pub rec: Arc<Recorder>,
    pub capture: Arc<Capture>,
}

impl Served {
    /// Boots the ecosystem and server and provisions the device (one
    /// RSA-2048 key generation) over a first connection.
    pub fn start(eco_seed: u64, tracing: Option<Tracing>) -> Result<Self, String> {
        let eco = Ecosystem::new(EcosystemConfig { seed: eco_seed, ..Default::default() });
        let backend: Arc<dyn RemoteEndpoint> = eco.backend().clone();
        let endpoint: Arc<dyn RemoteEndpoint> = match &tracing {
            Some(t) => Arc::new(TracedEndpoint::new(backend, t.rec.clone())),
            None => backend,
        };
        let server =
            TcpDrmServer::bind("127.0.0.1:0", eco.media_drm_server(DeviceModel::pixel_6()))
                .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        let served = Served { eco, endpoint, _server: server, addr, tracing };
        let binder = served.connect()?;
        let nonce = [0x9d; 16];
        if !binder.transact(DrmCall::IsProvisioned).and_then(|r| r.into_bool()).map_err(err)? {
            let request = binder
                .transact(DrmCall::GetProvisionRequest { nonce })
                .and_then(|r| r.into_bytes())
                .map_err(err)?;
            let response =
                served.endpoint.handle(&format!("provision/{PROVISIONING_APP}"), &request)?;
            binder.transact(DrmCall::ProvideProvisionResponse { nonce, response }).map_err(err)?;
        }
        Ok(served)
    }

    /// A binder on a new connection (opened by its first call), wrapped
    /// for tracing when this run is traced.
    pub fn connect(&self) -> Result<Arc<dyn Transport>, String> {
        let binder: Arc<dyn Transport> = Arc::new(
            TcpBinder::connect(self.addr)
                .pool_size(1)
                .build()
                .map_err(|e| format!("connect: {e}"))?,
        );
        Ok(match &self.tracing {
            Some(t) => {
                Arc::new(TracedTransport::new(binder, t.rec.clone(), true, Some(t.capture.clone())))
            }
            None => binder,
        })
    }

    /// Subscribes a viewer to `app`, returning the account token.
    pub fn subscribe(&self, app: &str, user: &str) -> String {
        self.eco.accounts().subscribe(app, user)
    }
}

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// `GetKeyRequest → license/<app>/<title> → ProvideKeyResponse` on an
/// open session; returns the key ids the CDM loaded.
pub fn license(
    binder: &dyn Transport,
    endpoint: &dyn RemoteEndpoint,
    session_id: u32,
    (app, title, token): (&str, &str, &str),
    key_ids: &[KeyId],
) -> Result<Vec<KeyId>, String> {
    let request = binder
        .transact(DrmCall::GetKeyRequest {
            session_id,
            content_id: title.to_owned(),
            key_ids: key_ids.to_vec(),
        })
        .and_then(|r| r.into_bytes())
        .map_err(err)?;
    let mut envelope = TlvWriter::new();
    envelope.string(1, token).bytes(2, &request);
    let response = endpoint.handle(&format!("license/{app}/{title}"), &envelope.finish())?;
    binder
        .transact(DrmCall::ProvideKeyResponse { session_id, response })
        .and_then(|r| r.into_key_ids())
        .map_err(err)
}
