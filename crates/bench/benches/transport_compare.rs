//! Transport comparison: the same licensed `DecryptSample` round trip
//! through all three binder transports — in-process dispatch, the
//! threaded worker pool, and framed TCP over loopback — reporting
//! per-call p50/p95/p99 so the cost of each IPC boundary is visible.
//!
//! ```text
//! cargo bench -p wideleak-bench --bench transport_compare [-- --quick]
//! ```
//!
//! `--quick` (or `WIDELEAK_BENCH_QUICK=1`) shrinks the iteration count
//! so CI can compare the transports on every PR in a few seconds.

use std::sync::Arc;
use std::time::{Duration, Instant};

use wideleak::android_drm::binder::{
    DrmCall, InProcessBinder, ThreadedBinder, Transport, TransportKind,
};
use wideleak::android_drm::netserver::TcpBinder;
use wideleak::android_drm::server::MediaDrmServer;
use wideleak::bmff::types::{KeyId, WIDEVINE_SYSTEM_ID};
use wideleak::cdm::cdm::Cdm;
use wideleak::cdm::oemcrypto::{L3OemCrypto, OemCrypto, SampleCrypto};
use wideleak::cdm::wire::TlvWriter;
use wideleak::device::catalog::CdmVersion;
use wideleak::device::hooks::HookEngine;
use wideleak::device::memory::ProcessMemory;
use wideleak::device::net::RemoteEndpoint;
use wideleak::ott::ecosystem::Ecosystem;
use wideleak_bench::{bench_ecosystem, BenchReport};

/// Audio-sized samples: small enough that the transport round trip is a
/// visible fraction of the total, the regime the comparison is about.
const SAMPLE_BYTES: usize = 4 * 1024;

fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick") || std::env::var_os("WIDELEAK_BENCH_QUICK").is_some()
}

/// Boots an L3 CDM behind a fresh media DRM server on one transport.
fn boot_binder(eco: &Ecosystem, transport: TransportKind) -> Arc<dyn Transport> {
    let backend = L3OemCrypto::new(
        CdmVersion::new(16, 0, 0),
        Arc::new(HookEngine::new()),
        Arc::new(ProcessMemory::new("mediaserver")),
    );
    backend
        .install_keybox(eco.trust().issue_keybox(&format!("bench-transport-{transport}")))
        .unwrap();
    let mut server = MediaDrmServer::new();
    let cdm = Cdm::builder().backend(Arc::new(backend)).build();
    server.register_plugin(WIDEVINE_SYSTEM_ID, Arc::new(cdm));
    match transport {
        TransportKind::InProcess => Arc::new(InProcessBinder::new(server)),
        TransportKind::Threaded => Arc::new(ThreadedBinder::builder(server).spawn()),
        TransportKind::Tcp => Arc::new(TcpBinder::loopback(server).build().unwrap()),
    }
}

/// Provisions and licenses one session; returns it with a decryptable kid.
fn license_session(binder: &dyn Transport, eco: &Ecosystem, token: &str) -> (u32, KeyId) {
    let req = binder
        .transact(DrmCall::GetProvisionRequest { nonce: [7; 16] })
        .unwrap()
        .into_bytes()
        .unwrap();
    let response = eco.backend().handle("provision/ocs", &req).unwrap();
    binder.transact(DrmCall::ProvideProvisionResponse { nonce: [7; 16], response }).unwrap();
    let sid = binder
        .transact(DrmCall::OpenSession { nonce: [9; 16] })
        .unwrap()
        .into_session_id()
        .unwrap();
    let req = binder
        .transact(DrmCall::GetKeyRequest {
            session_id: sid,
            content_id: "title-001".to_owned(),
            key_ids: vec![],
        })
        .unwrap()
        .into_bytes()
        .unwrap();
    let mut w = TlvWriter::new();
    w.string(1, token).bytes(2, &req);
    let response = eco.backend().handle("license/ocs/title-001", &w.finish()).unwrap();
    let kids = binder
        .transact(DrmCall::ProvideKeyResponse { session_id: sid, response })
        .unwrap()
        .into_key_ids()
        .unwrap();
    (sid, kids[0])
}

/// Nearest-rank percentile over a sorted sample set.
fn percentile(sorted: &[Duration], p: usize) -> Duration {
    let n = sorted.len();
    sorted[((n * p).div_ceil(100)).max(1) - 1]
}

/// Times `iters` sequential decrypt round trips and returns the sorted
/// per-call latencies.
fn measure(binder: &dyn Transport, sid: u32, kid: KeyId, iters: usize) -> Vec<Duration> {
    let mut samples = Vec::with_capacity(iters);
    for i in 0..iters {
        let data = vec![i as u8; SAMPLE_BYTES];
        let start = Instant::now();
        let out = binder
            .transact(DrmCall::DecryptSample {
                session_id: sid,
                kid,
                crypto: SampleCrypto::Cenc { iv: [1; 8] },
                data,
                subsamples: vec![],
            })
            .unwrap()
            .into_bytes()
            .unwrap();
        samples.push(start.elapsed());
        assert_eq!(out.len(), SAMPLE_BYTES);
    }
    samples.sort();
    samples
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn main() {
    let iters = if quick_mode() { 300 } else { 5000 };
    wideleak::telemetry::enable();
    let eco = bench_ecosystem();
    let token = eco.accounts().subscribe("ocs", "bench-user");

    println!("transport_compare: {SAMPLE_BYTES}-byte cenc samples, {iters} decrypts per transport");
    println!(
        "{:>10} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "transport", "mean us", "p50 us", "p95 us", "p99 us", "decrypts/s"
    );

    let mut report = BenchReport::new("transport_compare");
    report
        .label("mode", if quick_mode() { "quick" } else { "full" })
        .label("iters", iters.to_string())
        .label("sample_bytes", SAMPLE_BYTES.to_string());
    for transport in TransportKind::ALL {
        let label = transport.label();
        let binder = boot_binder(&eco, transport);
        let (sid, kid) = license_session(binder.as_ref(), &eco, &token);
        // Warm-up: connections dialed, threads faulted in, caches hot.
        measure(binder.as_ref(), sid, kid, 16);
        let samples = measure(binder.as_ref(), sid, kid, iters);
        let total: Duration = samples.iter().sum();
        let mean = total / samples.len() as u32;
        println!(
            "{:>10} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>12.0}",
            label,
            micros(mean),
            micros(percentile(&samples, 50)),
            micros(percentile(&samples, 95)),
            micros(percentile(&samples, 99)),
            samples.len() as f64 / total.as_secs_f64(),
        );
        report
            .metric(format!("{label}.mean_us"), micros(mean))
            .metric(format!("{label}.p50_us"), micros(percentile(&samples, 50)))
            .metric(format!("{label}.p95_us"), micros(percentile(&samples, 95)))
            .metric(format!("{label}.p99_us"), micros(percentile(&samples, 99)))
            .metric(format!("{label}.decrypts_per_s"), samples.len() as f64 / total.as_secs_f64());
        binder.transact(DrmCall::CloseSession { session_id: sid }).unwrap();
    }
    report.write();

    let counters = wideleak::telemetry::snapshot().counters;
    for name in [
        "binder.tcp.frames.sent",
        "binder.tcp.bytes.sent",
        "binder.tcp.connects",
        "binder.tcp.reconnects",
    ] {
        let v = counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v);
        println!("{name} = {v}");
    }
}
