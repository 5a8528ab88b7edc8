//! The TCP client transport: a pooled [`TcpBinder`] speaking the
//! [`wire`](crate::wire) frame format over real sockets to a
//! [`TcpDrmServer`] — the event-driven reactor server living in
//! [`reactor`](crate::reactor) and re-exported here.
//!
//! [`TcpBinder`] is routed through the same
//! [`transact_via`](crate::binder) seam as the in-memory transports so
//! telemetry and fault injection compose identically. It keeps a
//! bounded pool of connections ([`TcpBinderBuilder::pool_size`]), one
//! in-flight call per checked-out socket, with a health-checked
//! reconnect. The health check covers *both* stale-socket symptoms: a
//! failed write, and a clean EOF before any reply byte (the write
//! landed in a dead socket's buffer) — each worth exactly one
//! reconnect-and-retry.
//!
//! Every read is bounded by a configurable deadline
//! ([`TcpBinderBuilder::read_timeout`]); a wedged server surfaces as
//! the transient, retryable [`DrmError::Timeout`] instead of hanging
//! the caller forever.
//!
//! Fault realisation differs from the in-memory transports by design:
//! they corrupt the typed reply payload, but here corruption faults
//! damage the *received frame bytes* before decoding, so they surface
//! as typed [`WireError`]s through [`DrmError::Wire`]. Drop faults
//! sever a live pooled connection (the reconnect machinery recovers).
//! The differential battery pins that all transports still produce
//! byte-identical study reports.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wideleak_faults::{corrupt_body, FaultInjector, FaultKind};
use wideleak_telemetry::{trace, CounterHandle};

use crate::binder::{transact_via, DrmCall, DrmReply, FaultStyle, Transport};
use crate::server::MediaDrmServer;
use crate::wire::{decode_frame, encode_frame_with, frame_len, FrameBody, WireError, HEADER_LEN};
use crate::DrmError;

pub use crate::reactor::{ReactorConfig, TcpDrmServer};

static FRAMES_SENT: CounterHandle = CounterHandle::new("binder.tcp.frames.sent");
static FRAMES_RECEIVED: CounterHandle = CounterHandle::new("binder.tcp.frames.received");
static BYTES_SENT: CounterHandle = CounterHandle::new("binder.tcp.bytes.sent");
static BYTES_RECEIVED: CounterHandle = CounterHandle::new("binder.tcp.bytes.received");
/// First dials of pool slots that never held a socket.
static CONNECTS: CounterHandle = CounterHandle::new("binder.tcp.connects");
/// Dials that replace a socket which used to be live: a severed slot, a
/// failed write, or an EOF before the reply.
static RECONNECTS: CounterHandle = CounterHandle::new("binder.tcp.reconnects");

/// How often a blocked read wakes up to re-check its deadline.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Default read deadline: generous against real dispatch latency,
/// finite against a wedged server.
const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Outcome of a deadline-bounded frame read on a pooled socket.
enum FrameRead {
    /// A complete frame.
    Frame(Vec<u8>),
    /// The header was unparseable; the stream can no longer be trusted
    /// to be frame-aligned.
    Wire(WireError),
    /// Clean EOF before any reply byte — the stale-socket symptom the
    /// one-retry health check covers.
    CleanEof,
    /// The deadline expired with the frame incomplete.
    TimedOut,
}

enum FillStatus {
    Done,
    CleanEof,
    TimedOut,
}

/// Reads exactly `buf.len()` bytes or gives up when `deadline` (dated
/// from `started`) expires. Each blocking wait is capped at
/// [`POLL_INTERVAL`] so the remaining budget is re-checked often.
fn read_full_deadline(
    stream: &mut TcpStream,
    buf: &mut [u8],
    started: Instant,
    deadline: Duration,
) -> std::io::Result<FillStatus> {
    let mut filled = 0;
    while filled < buf.len() {
        let Some(remaining) = deadline.checked_sub(started.elapsed()) else {
            return Ok(FillStatus::TimedOut);
        };
        let slice = remaining.min(POLL_INTERVAL).max(Duration::from_millis(1));
        let _ = stream.set_read_timeout(Some(slice));
        match stream.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(FillStatus::CleanEof),
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "peer closed mid-frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(FillStatus::Done)
}

/// Reads one whole frame with a deadline covering header and payload
/// together. A timeout mid-frame still reports [`FrameRead::TimedOut`]
/// — the caller severs the (now desynced) socket either way.
fn read_frame_deadline(stream: &mut TcpStream, deadline: Duration) -> std::io::Result<FrameRead> {
    let started = Instant::now();
    let mut header = [0u8; HEADER_LEN];
    match read_full_deadline(stream, &mut header, started, deadline)? {
        FillStatus::Done => {}
        FillStatus::CleanEof => return Ok(FrameRead::CleanEof),
        FillStatus::TimedOut => return Ok(FrameRead::TimedOut),
    }
    let total = match frame_len(&header) {
        Ok(total) => total,
        Err(e) => return Ok(FrameRead::Wire(e)),
    };
    let mut frame = vec![0u8; total];
    frame[..HEADER_LEN].copy_from_slice(&header);
    match read_full_deadline(stream, &mut frame[HEADER_LEN..], started, deadline)? {
        FillStatus::Done => Ok(FrameRead::Frame(frame)),
        FillStatus::CleanEof => {
            Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "peer closed mid-frame"))
        }
        FillStatus::TimedOut => Ok(FrameRead::TimedOut),
    }
}

/// A pooled connection slot. Checking out a slot without a live socket
/// dials one, which is the health check.
enum ConnSlot {
    /// Never held a socket; its first dial counts as a connect.
    Unopened,
    /// A live socket.
    Live(TcpStream),
    /// Its socket died; the next dial counts as a reconnect.
    Dead,
}

/// Builds a [`TcpBinder`] — pool size, read deadline, fault plane and
/// target are configured here.
pub struct TcpBinderBuilder {
    target: Target,
    pool_size: usize,
    injector: Option<Arc<FaultInjector>>,
    read_timeout: Duration,
}

enum Target {
    /// Connect to an external [`TcpDrmServer`] (or `wideleak serve`).
    Addr(SocketAddr),
    /// Own a loopback server for this binder's lifetime.
    Loopback(MediaDrmServer),
}

impl TcpBinderBuilder {
    /// Sets the connection-pool size (clamped to ≥ 1; default 4).
    #[must_use]
    pub fn pool_size(mut self, pool_size: usize) -> Self {
        self.pool_size = pool_size.max(1);
        self
    }

    /// Attaches a fault injector whose binder-plane rules apply to every
    /// transaction; corruption and drops are realised on real frames.
    #[must_use]
    pub fn fault_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Sets the reply-read deadline (clamped to ≥ 1 ms; default 5 s).
    /// A deadline expiry surfaces as the transient
    /// [`DrmError::Timeout`].
    #[must_use]
    pub fn read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout.max(Duration::from_millis(1));
        self
    }

    /// Connects (lazily — sockets open on first use).
    ///
    /// # Errors
    ///
    /// Returns the bind error when a loopback target cannot listen.
    pub fn build(self) -> std::io::Result<TcpBinder> {
        let (addr, server, local) = match self.target {
            Target::Addr(addr) => (addr, None, None),
            Target::Loopback(server) => {
                let server = Arc::new(server);
                let local = TcpDrmServer::bind_shared("127.0.0.1:0", Arc::clone(&server))?;
                (local.local_addr(), Some(server), Some(local))
            }
        };
        let (slot_tx, slot_rx) = crossbeam::channel::bounded::<ConnSlot>(self.pool_size);
        for _ in 0..self.pool_size {
            slot_tx.send(ConnSlot::Unopened).expect("pre-filling the connection pool");
        }
        Ok(TcpBinder {
            addr,
            pool_size: self.pool_size,
            read_timeout: self.read_timeout,
            slot_tx,
            slot_rx,
            injector: self.injector,
            server,
            _local: local,
        })
    }
}

/// The client half of the TCP transport: transactions multiplexed to a
/// [`TcpDrmServer`] over a bounded connection pool.
///
/// Pool behaviour: a transaction checks a slot out of a bounded channel
/// (blocking when all are in flight, which bounds concurrent sockets),
/// dials if the slot holds no live socket, and returns the slot — live
/// on success, dead after any IO or frame error, because a failed
/// stream cannot be trusted to be frame-aligned. First dials are
/// counted on `binder.tcp.connects`, dials that replace a once-live
/// socket on `binder.tcp.reconnects`.
pub struct TcpBinder {
    addr: SocketAddr,
    pool_size: usize,
    read_timeout: Duration,
    // Client-side connection state is declared before `_local` so
    // pooled sockets shut down before the owned server does.
    slot_tx: crossbeam::channel::Sender<ConnSlot>,
    slot_rx: crossbeam::channel::Receiver<ConnSlot>,
    injector: Option<Arc<FaultInjector>>,
    /// Loopback handle onto the served instance so clock-skew faults can
    /// reach the CDM clock; `None` when connected to a remote server.
    server: Option<Arc<MediaDrmServer>>,
    _local: Option<TcpDrmServer>,
}

impl TcpBinder {
    /// Starts building a binder that owns its own loopback server.
    #[must_use]
    pub fn loopback(server: MediaDrmServer) -> TcpBinderBuilder {
        TcpBinderBuilder {
            target: Target::Loopback(server),
            pool_size: 4,
            injector: None,
            read_timeout: DEFAULT_READ_TIMEOUT,
        }
    }

    /// Starts building a binder against an already-running server.
    #[must_use]
    pub fn connect(addr: SocketAddr) -> TcpBinderBuilder {
        TcpBinderBuilder {
            target: Target::Addr(addr),
            pool_size: 4,
            injector: None,
            read_timeout: DEFAULT_READ_TIMEOUT,
        }
    }

    /// The server address transactions go to.
    #[must_use]
    pub fn server_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Pool capacity (concurrent connections ceiling).
    #[must_use]
    pub fn pool_size(&self) -> usize {
        self.pool_size
    }

    /// Opens a fresh connection to the server.
    fn connect_fresh(&self) -> Result<TcpStream, DrmError> {
        match TcpStream::connect(self.addr) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                Ok(stream)
            }
            Err(_) => Err(DrmError::BinderDied),
        }
    }

    /// Checks a slot out of the pool, dialing if it holds no live
    /// socket.
    fn checkout(&self) -> Result<TcpStream, DrmError> {
        let slot = self.slot_rx.recv().map_err(|_| DrmError::BinderDied)?;
        let counter = match slot {
            ConnSlot::Live(stream) => return Ok(stream),
            ConnSlot::Unopened => &CONNECTS,
            ConnSlot::Dead => &RECONNECTS,
        };
        counter.incr();
        self.connect_fresh().inspect_err(|_| {
            // Return the slot as it was so the pool keeps its capacity;
            // the next checkout retries.
            self.checkin(slot);
        })
    }

    /// Returns a slot to the pool (dead slots keep the capacity).
    fn checkin(&self, slot: ConnSlot) {
        let _ = self.slot_tx.send(slot);
    }

    /// Returns a severed slot to the pool.
    fn sever(&self) {
        self.checkin(ConnSlot::Dead);
    }

    /// One framed round trip over a pooled socket, with the transport's
    /// share of fault realisation: `Drop` severs the checked-out
    /// connection, and corruption kinds damage the received reply frame
    /// before decode.
    fn run_over_socket(
        &self,
        call: DrmCall,
        fault: Option<&FaultKind>,
    ) -> Result<DrmReply, DrmError> {
        // Capture the caller's trace context *before* opening phase
        // spans: the frame should carry the `drm.call` root so the
        // server stitches under it, not under a transient phase.
        let trace_ctx = trace::current();
        let mut stream = {
            // Queue-wait phase: time blocked on a free pool slot.
            let _checkout = trace::span("tcp.checkout");
            self.checkout()?
        };
        if matches!(fault, Some(FaultKind::Drop)) {
            // Sever: the socket closes, the slot is marked dead, and the
            // *next* transaction pays the reconnect.
            self.sever();
            return Err(DrmError::BinderDied);
        }
        let request = {
            let _encode = trace::span("tcp.encode");
            encode_frame_with(&FrameBody::Call(call), trace_ctx.as_ref())
        };
        let started = Instant::now();
        let roundtrip = trace::span("tcp.roundtrip");
        // The stale-socket health check: at most one reconnect-and-retry
        // per transaction, whether the staleness shows as a failed write
        // or as a clean EOF before any reply byte.
        let mut retried = false;
        if stream.write_all(&request).is_err() {
            retried = true;
            RECONNECTS.incr();
            trace::annotate("reconnect", "stale_socket");
            stream = match self.connect_fresh() {
                Ok(fresh) => fresh,
                Err(e) => {
                    self.sever();
                    return Err(e);
                }
            };
            if stream.write_all(&request).is_err() {
                self.sever();
                return Err(DrmError::BinderDied);
            }
        }
        FRAMES_SENT.incr();
        BYTES_SENT.add(request.len() as u64);
        let mut frame = loop {
            match read_frame_deadline(&mut stream, self.read_timeout) {
                Ok(FrameRead::Frame(frame)) => break frame,
                Ok(FrameRead::Wire(wire_err)) => {
                    self.sever();
                    return Err(DrmError::Wire(wire_err));
                }
                Ok(FrameRead::TimedOut) => {
                    // A wedged server. The stream may deliver the stale
                    // reply later, so the socket cannot be reused; the
                    // error is transient and the retry policy pays one
                    // reconnect.
                    self.sever();
                    return Err(DrmError::Timeout {
                        ms: u64::try_from(self.read_timeout.as_millis()).unwrap_or(u64::MAX),
                    });
                }
                Ok(FrameRead::CleanEof) if !retried => {
                    // The write landed in a dead socket's buffer and the
                    // EOF is the first evidence. Same one-shot health
                    // check as a failed write.
                    retried = true;
                    RECONNECTS.incr();
                    trace::annotate("reconnect", "eof_before_reply");
                    stream = match self.connect_fresh() {
                        Ok(fresh) => fresh,
                        Err(e) => {
                            self.sever();
                            return Err(e);
                        }
                    };
                    if stream.write_all(&request).is_err() {
                        self.sever();
                        return Err(DrmError::BinderDied);
                    }
                    FRAMES_SENT.incr();
                    BYTES_SENT.add(request.len() as u64);
                }
                Ok(FrameRead::CleanEof) | Err(_) => {
                    self.sever();
                    return Err(DrmError::BinderDied);
                }
            }
        };
        FRAMES_RECEIVED.incr();
        BYTES_RECEIVED.add(frame.len() as u64);
        drop(roundtrip);
        wideleak_telemetry::observe("binder.tcp.rtt", started.elapsed());
        if let Some(kind) = fault {
            // Frame-level corruption: the damage lands on real received
            // bytes, and the codec's own checks turn it into a typed
            // error — nothing is faked downstream of the socket.
            frame = corrupt_body(kind, frame);
        }
        let _decode = trace::span("tcp.decode");
        match decode_frame(&frame) {
            Ok((FrameBody::Reply(reply), _)) => {
                self.checkin(ConnSlot::Live(stream));
                reply
            }
            Ok((
                FrameBody::Call(_) | FrameBody::CampaignCall(_) | FrameBody::CampaignReply(_),
                _,
            )) => {
                // Anything but a DRM reply on the DRM channel is a
                // protocol violation.
                self.sever();
                Err(DrmError::BadReply)
            }
            Err(wire_err) => {
                // The stream may be desynced; sever and let the retry
                // policy pay one reconnect.
                self.sever();
                Err(DrmError::Wire(wire_err))
            }
        }
    }
}

impl Transport for TcpBinder {
    fn transact(&self, call: DrmCall) -> Result<DrmReply, DrmError> {
        transact_via(
            "binder.transact.tcp",
            self.injector.as_deref(),
            self.server.as_deref(),
            FaultStyle::Frame,
            call,
            |call, fault| self.run_over_socket(call, fault),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use wideleak_bmff::types::WIDEVINE_SYSTEM_ID;
    use wideleak_cdm::cdm::Cdm;
    use wideleak_cdm::keybox::Keybox;
    use wideleak_device::catalog::DeviceModel;
    use wideleak_device::Device;
    use wideleak_faults::{FaultPlan, Schedule};

    /// Serializes this module's tests: the connect and reconnect
    /// counters are process-global, so a test reading their deltas must
    /// not overlap another test's dials.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
        SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn counter(handle: &CounterHandle) -> u64 {
        let registry = wideleak_telemetry::global().registry();
        registry.counter(handle.name()).load(std::sync::atomic::Ordering::Relaxed)
    }

    fn server() -> MediaDrmServer {
        let device = Device::new(DeviceModel::nexus_5());
        let cdm =
            Cdm::builder().keybox(Keybox::issue(b"net-test", &[1; 16])).boot(&device).unwrap();
        let mut s = MediaDrmServer::new();
        s.register_plugin(WIDEVINE_SYSTEM_ID, Arc::new(cdm));
        s
    }

    #[test]
    fn loopback_round_trip() {
        let _serial = serial();
        let binder = TcpBinder::loopback(server()).build().unwrap();
        assert!(binder
            .transact(DrmCall::IsSchemeSupported { uuid: WIDEVINE_SYSTEM_ID })
            .unwrap()
            .into_bool()
            .unwrap());
        let sid = binder
            .transact(DrmCall::OpenSession { nonce: [1; 16] })
            .unwrap()
            .into_session_id()
            .unwrap();
        assert!(binder.transact(DrmCall::CloseSession { session_id: sid }).is_ok());
        assert!(binder.transact(DrmCall::CloseSession { session_id: sid }).is_err());
    }

    #[test]
    fn connect_reaches_a_standalone_server() {
        let _serial = serial();
        let srv = TcpDrmServer::bind("127.0.0.1:0", server()).unwrap();
        let binder = TcpBinder::connect(srv.local_addr()).pool_size(2).build().unwrap();
        assert!(binder
            .transact(DrmCall::IsSchemeSupported { uuid: WIDEVINE_SYSTEM_ID })
            .unwrap()
            .into_bool()
            .unwrap());
        assert_eq!(binder.pool_size(), 2);
    }

    #[test]
    fn concurrent_clients_share_the_pool() {
        let _serial = serial();
        let binder = Arc::new(TcpBinder::loopback(server()).pool_size(2).build().unwrap());
        let handles: Vec<_> = (0u8..8)
            .map(|i| {
                let b = Arc::clone(&binder);
                std::thread::spawn(move || {
                    b.transact(DrmCall::OpenSession { nonce: [i; 16] })
                        .unwrap()
                        .into_session_id()
                        .unwrap()
                })
            })
            .collect();
        let mut ids: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8, "every client got a distinct session");
    }

    #[test]
    fn server_errors_round_trip_typed() {
        let _serial = serial();
        let binder = TcpBinder::loopback(server()).build().unwrap();
        let reply = binder.transact(DrmCall::CloseSession { session_id: 9999 });
        assert!(
            matches!(reply, Err(DrmError::Cdm(wideleak_cdm::CdmError::NoSuchSession { .. }))),
            "got {reply:?}"
        );
    }

    #[test]
    fn server_survives_client_churn() {
        let _serial = serial();
        let srv = TcpDrmServer::bind("127.0.0.1:0", server()).unwrap();
        for _ in 0..3 {
            let binder = TcpBinder::connect(srv.local_addr()).pool_size(1).build().unwrap();
            assert!(binder
                .transact(DrmCall::IsSchemeSupported { uuid: WIDEVINE_SYSTEM_ID })
                .is_ok());
            drop(binder);
        }
    }

    #[test]
    fn drop_fault_severs_and_the_pool_reconnects() {
        let _serial = serial();
        let plan = FaultPlan::builder()
            .binder_fault("open_session", FaultKind::Drop, Schedule::Once { at: 0 })
            .build();
        let binder = TcpBinder::loopback(server())
            .pool_size(1)
            .fault_injector(Arc::new(FaultInjector::new(&plan, 9)))
            .build()
            .unwrap();
        // Prime the pool so the drop severs a *live* connection.
        assert!(binder.transact(DrmCall::IsProvisioned).is_ok());
        assert_eq!(
            binder.transact(DrmCall::OpenSession { nonce: [1; 16] }),
            Err(DrmError::BinderDied)
        );
        // The rule fired once; the next call reconnects and succeeds.
        assert!(binder.transact(DrmCall::OpenSession { nonce: [2; 16] }).is_ok());
    }

    #[test]
    fn first_dials_are_connects_and_only_severed_sockets_reconnect() {
        let _serial = serial();
        wideleak_telemetry::enable();
        let plan = FaultPlan::builder()
            .binder_fault("open_session", FaultKind::Drop, Schedule::Once { at: 0 })
            .build();
        let binder = TcpBinder::loopback(server())
            .pool_size(1)
            .fault_injector(Arc::new(FaultInjector::new(&plan, 9)))
            .build()
            .unwrap();
        let (connects, reconnects) = (counter(&CONNECTS), counter(&RECONNECTS));
        for _ in 0..3 {
            assert!(binder.transact(DrmCall::IsProvisioned).is_ok());
        }
        assert_eq!(counter(&CONNECTS) - connects, 1, "one first dial fills the empty slot");
        assert_eq!(counter(&RECONNECTS) - reconnects, 0, "a fault-free run never reconnects");
        assert_eq!(
            binder.transact(DrmCall::OpenSession { nonce: [1; 16] }),
            Err(DrmError::BinderDied)
        );
        assert!(binder.transact(DrmCall::OpenSession { nonce: [2; 16] }).is_ok());
        assert_eq!(counter(&CONNECTS) - connects, 1);
        assert_eq!(counter(&RECONNECTS) - reconnects, 1, "the severed slot redials once");
    }

    #[test]
    fn garble_fault_surfaces_as_a_typed_wire_error() {
        let _serial = serial();
        let plan = FaultPlan::builder()
            .binder_fault("get_provision_request", FaultKind::GarbleBody, Schedule::Once { at: 0 })
            .build();
        let binder = TcpBinder::loopback(server())
            .fault_injector(Arc::new(FaultInjector::new(&plan, 5)))
            .build()
            .unwrap();
        let reply = binder.transact(DrmCall::GetProvisionRequest { nonce: [7; 16] });
        assert!(matches!(reply, Err(DrmError::Wire(_))), "got {reply:?}");
        // Recovery: the schedule is exhausted, the severed slot
        // reconnects, and the same call succeeds.
        assert!(binder.transact(DrmCall::GetProvisionRequest { nonce: [7; 16] }).is_ok());
    }

    #[test]
    fn truncate_fault_maps_to_truncated_frames() {
        let _serial = serial();
        let plan = FaultPlan::builder()
            .binder_fault(
                "get_provision_request",
                FaultKind::TruncateBody { keep: 6 },
                Schedule::Once { at: 0 },
            )
            .build();
        let binder = TcpBinder::loopback(server())
            .fault_injector(Arc::new(FaultInjector::new(&plan, 5)))
            .build()
            .unwrap();
        let reply = binder.transact(DrmCall::GetProvisionRequest { nonce: [7; 16] });
        assert!(matches!(reply, Err(DrmError::Wire(WireError::Truncated { .. }))), "got {reply:?}");
    }

    #[test]
    fn stale_pool_slot_heals_after_server_restart() {
        let _serial = serial();
        let first = TcpDrmServer::bind("127.0.0.1:0", server()).unwrap();
        let addr = first.local_addr();
        let binder = TcpBinder::connect(addr).pool_size(1).build().unwrap();
        assert!(binder.transact(DrmCall::IsProvisioned).is_ok());
        drop(first);
        // The pooled socket is now stale. Depending on timing the first
        // call may fail (reconnect has no listener yet) — but once a new
        // server listens on the same port, the pool must heal.
        let listener = TcpListener::bind(addr);
        let Ok(listener) = listener else {
            // The OS withheld the port; nothing left to assert.
            return;
        };
        drop(listener);
        let second_server = server();
        let Ok(_second) = TcpDrmServer::bind(&addr.to_string(), second_server) else {
            return;
        };
        let mut healed = false;
        for _ in 0..4 {
            if binder.transact(DrmCall::IsProvisioned).is_ok() {
                healed = true;
                break;
            }
        }
        assert!(healed, "pool reconnected to the restarted server");
    }

    #[test]
    fn error_on_one_call_does_not_kill_the_connection() {
        let _serial = serial();
        // A server with no plugins: IsSchemeSupported answers false,
        // a scheme-less OpenSession errors, and the connection keeps
        // serving afterwards.
        let binder = TcpBinder::loopback(MediaDrmServer::new()).build().unwrap();
        assert!(!binder
            .transact(DrmCall::IsSchemeSupported { uuid: [0; 16] })
            .unwrap()
            .into_bool()
            .unwrap());
        assert!(binder.transact(DrmCall::OpenSession { nonce: [1; 16] }).is_err());
        // The connection still serves after the error.
        assert!(binder.transact(DrmCall::IsSchemeSupported { uuid: [0; 16] }).is_ok());
    }

    #[test]
    fn tcp_telemetry_counts_frames_and_bytes() {
        let _serial = serial();
        wideleak_telemetry::enable();
        let binder = TcpBinder::loopback(server()).build().unwrap();
        binder.transact(DrmCall::IsProvisioned).unwrap().into_bool().unwrap();
        let snapshot = wideleak_telemetry::snapshot();
        for name in
            ["binder.tcp.frames.sent", "binder.tcp.frames.received", "binder.tcp.bytes.sent"]
        {
            assert!(
                snapshot.counters.iter().any(|(n, v)| n == name && *v > 0),
                "expected counter {name} in {:?}",
                snapshot.counters
            );
        }
        assert!(
            snapshot.histograms.iter().any(|(name, _)| name == "binder.tcp.rtt"),
            "rtt histogram exported"
        );
    }
}
