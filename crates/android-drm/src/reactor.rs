//! The readiness-driven reactor behind [`TcpDrmServer`]: a few event
//! loops multiplexing thousands of non-blocking connections.
//!
//! The thread-per-connection server (PR 5) capped concurrent simulated
//! devices at thread-pool size and spent a stack per idle socket. This
//! module replaces it with the event-driven shape the ROADMAP calls
//! for, hand-rolled over non-blocking `std` sockets so the workspace
//! stays vendor-light and `#![forbid(unsafe_code)]`-clean:
//!
//! - an **accept thread** hands incoming connections round-robin to the
//!   event loops (non-blocking + nodelay already set);
//! - each **event loop** owns a slab of connections, each with a read
//!   buffer running a frame-reassembly state machine, a bounded
//!   outbound queue, and an in-flight dispatch count. A sweep reads
//!   until `WouldBlock`, parses complete frames, hands calls to the
//!   dispatch pool, drains finished replies into outbound queues, and
//!   flushes writes until `WouldBlock`;
//! - a **dispatch worker pool** runs the actual
//!   [`dispatch`](crate::binder) (panic-contained, trace-stitched) so a
//!   slow CDM call never stalls the loops' IO.
//!
//! **Pipelining:** a connection may have many calls in flight at once.
//! Each call frame can carry a wire-v3 request id
//! ([`FLAG_REQUEST_ID`](crate::wire::FLAG_REQUEST_ID)); the reply frame
//! echoes it, so replies may complete out of order and the client
//! correlates them by id (the `load --fleet` client does). Calls
//! without an id still work — their replies simply carry no id, and a
//! client that sends them one at a time, like the pooled
//! [`TcpBinder`](crate::netserver::TcpBinder), needs no correlation.
//!
//! **Backpressure:** per-connection in-flight dispatches and queued
//! outbound bytes are both bounded ([`ReactorConfig`]); at either
//! limit the loop simply stops parsing (and reading) that connection
//! until replies drain, so one greedy or stalled peer cannot balloon
//! server memory.
//!
//! **Observability:** `netserver.connections` counts accepts (as
//! before), the `netserver.connections.active` gauge tracks live
//! connections (decremented on close — the thing the increment-only
//! counter could never show), `reactor.loop_lag` histograms each busy
//! sweep's duration, and `reactor.dispatch.queue_depth` gauges the
//! dispatch backlog.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use wideleak_telemetry::{trace, CounterHandle, TraceContext};

use crate::binder::{dispatch, DrmCall};
use crate::campaign::{CampaignCall, CampaignError, CampaignHandler};
use crate::server::MediaDrmServer;
use crate::wire::{decode_frame_full, encode_frame_full, frame_len, FrameBody, HEADER_LEN};
use crate::DrmError;

pub(crate) static SERVER_CONNECTIONS: CounterHandle = CounterHandle::new("netserver.connections");
pub(crate) static SERVER_FRAMES: CounterHandle = CounterHandle::new("netserver.frames");

/// How long an idle event loop parks before re-sweeping when it has
/// live connections. Short enough that a lone blocking caller sees
/// millisecond-class latency even when the yield window has lapsed.
const IDLE_WAIT_BUSY: Duration = Duration::from_millis(1);

/// The park interval with zero connections (and the ceiling on how
/// long shutdown can take to be noticed).
const IDLE_WAIT_EMPTY: Duration = Duration::from_millis(5);

/// How many empty sweeps an event loop yields through before it starts
/// parking. Yielding keeps single-caller round trips at
/// thread-per-connection latency on a busy box; parking keeps an idle
/// server cheap.
const YIELD_STREAK: u32 = 256;

/// Tuning for the reactor: how many threads it runs and where each
/// connection's backpressure limits sit.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Event-loop threads multiplexing the connections (min 1).
    pub event_loops: usize,
    /// Dispatch worker threads running CDM calls (min 1).
    pub dispatch_workers: usize,
    /// Max dispatches in flight per connection before the loop stops
    /// parsing new calls from it (min 1).
    pub max_inflight_per_conn: usize,
    /// Max bytes queued outbound per connection before the loop stops
    /// parsing new calls from it (min one frame).
    pub outbound_queue_bytes: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get);
        ReactorConfig {
            event_loops: 1,
            dispatch_workers: cores.max(2),
            max_inflight_per_conn: 32,
            outbound_queue_bytes: 1024 * 1024,
        }
    }
}

/// A Media DRM server listening on a TCP socket, served by an
/// event-driven reactor. Binds on construction, serves until dropped.
///
/// The public surface is unchanged from the thread-per-connection
/// server it replaces ([`bind`](Self::bind), [`bind_shared`](Self::bind_shared),
/// [`local_addr`](Self::local_addr), [`server`](Self::server)); the
/// concurrency model underneath is what moved.
pub struct TcpDrmServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    active: Arc<AtomicU64>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    loop_handles: Vec<std::thread::JoinHandle<()>>,
    worker_handles: Vec<std::thread::JoinHandle<()>>,
    server: Arc<MediaDrmServer>,
}

impl TcpDrmServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral loopback
    /// port) and starts accepting connections.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable.
    pub fn bind(addr: &str, server: MediaDrmServer) -> std::io::Result<Self> {
        Self::bind_shared(addr, Arc::new(server))
    }

    /// Like [`Self::bind`], but sharing an already-`Arc`ed server — the
    /// loopback [`TcpBinder`](crate::netserver::TcpBinder) uses this to
    /// keep a handle for the clock-skew fault plane.
    pub fn bind_shared(addr: &str, server: Arc<MediaDrmServer>) -> std::io::Result<Self> {
        Self::bind_with(addr, server, ReactorConfig::default())
    }

    /// Binds with explicit reactor tuning.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable.
    pub fn bind_with(
        addr: &str,
        server: Arc<MediaDrmServer>,
        config: ReactorConfig,
    ) -> std::io::Result<Self> {
        Self::bind_inner(addr, server, config, None)
    }

    /// Binds a *campaign worker* endpoint: in addition to DRM calls,
    /// the server answers campaign control frames by delegating to
    /// `handler` (on the dispatch pool, so a long-running shard never
    /// stalls the IO loops). A server bound without a handler refuses
    /// campaign frames with a typed
    /// [`CampaignError::Protocol`](crate::campaign::CampaignError) reply.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable.
    pub fn bind_campaign(
        addr: &str,
        server: Arc<MediaDrmServer>,
        config: ReactorConfig,
        handler: Arc<dyn CampaignHandler>,
    ) -> std::io::Result<Self> {
        Self::bind_inner(addr, server, config, Some(handler))
    }

    fn bind_inner(
        addr: &str,
        server: Arc<MediaDrmServer>,
        config: ReactorConfig,
        campaign: Option<Arc<dyn CampaignHandler>>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicU64::new(0));
        let event_loops = config.event_loops.max(1);
        let dispatch_workers = config.dispatch_workers.max(1);

        let (jobs_tx, jobs_rx) = crossbeam::channel::unbounded::<Job>();
        let mut conn_txs = Vec::with_capacity(event_loops);
        let mut loop_handles = Vec::with_capacity(event_loops);
        for i in 0..event_loops {
            let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
            conn_txs.push(conn_tx);
            let jobs_tx = jobs_tx.clone();
            let config = config.clone();
            let shutdown = Arc::clone(&shutdown);
            let active = Arc::clone(&active);
            loop_handles.push(
                std::thread::Builder::new()
                    .name(format!("netdrm-reactor-{i}"))
                    .spawn(move || event_loop(&conn_rx, &jobs_tx, &config, &shutdown, &active))
                    .expect("spawning a reactor event loop"),
            );
        }
        // The loops own the only job senders now, so the workers'
        // receive loop ends exactly when the last loop exits.
        drop(jobs_tx);

        let mut worker_handles = Vec::with_capacity(dispatch_workers);
        for i in 0..dispatch_workers {
            let jobs_rx = jobs_rx.clone();
            let server = Arc::clone(&server);
            let campaign = campaign.clone();
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("netdrm-dispatch-{i}"))
                    .spawn(move || worker_loop(&jobs_rx, &server, campaign.as_deref()))
                    .expect("spawning a dispatch worker"),
            );
        }

        let accept_handle = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("netdrmserver-accept".into())
                .spawn(move || accept_loop(&listener, &conn_txs, &shutdown))
                .expect("spawning the accept thread")
        };

        Ok(TcpDrmServer {
            addr,
            shutdown,
            active,
            accept_handle: Some(accept_handle),
            loop_handles,
            worker_handles,
            server,
        })
    }

    /// The bound address (with the real port when bound to port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served instance.
    #[must_use]
    pub fn server(&self) -> &Arc<MediaDrmServer> {
        &self.server
    }

    /// Connections currently registered with the event loops. This is
    /// the per-server truth behind the global
    /// `netserver.connections.active` gauge (which aggregates every
    /// server in the process).
    #[must_use]
    pub fn active_connections(&self) -> u64 {
        self.active.load(Ordering::Acquire)
    }
}

impl Drop for TcpDrmServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection; if that
        // fails the listener is already gone, which is fine too.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        for handle in self.loop_handles.drain(..) {
            let _ = handle.join();
        }
        // The loops dropped their job senders; the workers drain what
        // is queued and exit.
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One parsed call on its way to the dispatch pool.
struct Job {
    slot: usize,
    generation: u64,
    work: Work,
    request_id: Option<u64>,
    done: mpsc::Sender<Completion>,
}

/// What a dispatch worker runs: a DRM transaction through the server
/// router, or a campaign transaction through the registered handler.
enum Work {
    Drm { call: DrmCall, ctx: Option<TraceContext> },
    Campaign(CampaignCall),
}

/// A finished dispatch on its way back to the owning event loop.
struct Completion {
    slot: usize,
    generation: u64,
    frame: Vec<u8>,
}

/// One connection's state in an event loop's slab.
struct Conn {
    stream: TcpStream,
    /// Distinguishes this connection from earlier tenants of the same
    /// slab slot, so a completion for a closed connection is dropped
    /// instead of delivered to its successor.
    generation: u64,
    /// Unparsed inbound bytes (the frame-reassembly buffer).
    rbuf: Vec<u8>,
    /// Encoded reply frames waiting for the socket to accept them.
    wqueue: VecDeque<Vec<u8>>,
    /// How far into `wqueue.front()` the socket has accepted.
    woffset: usize,
    wqueue_bytes: usize,
    /// Calls handed to the dispatch pool and not yet completed.
    inflight: usize,
    /// The connection is done reading (EOF or protocol error); it
    /// closes once every queued reply is flushed and every in-flight
    /// dispatch has completed.
    closing: bool,
}

fn accept_loop(
    listener: &TcpListener,
    conn_txs: &[mpsc::Sender<TcpStream>],
    shutdown: &AtomicBool,
) {
    let mut next = 0usize;
    for stream in listener.incoming() {
        if shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let _ = stream.set_nodelay(true);
        SERVER_CONNECTIONS.incr();
        if conn_txs[next % conn_txs.len()].send(stream).is_err() {
            break;
        }
        next = next.wrapping_add(1);
    }
}

fn worker_loop(
    jobs: &crossbeam::channel::Receiver<Job>,
    server: &Arc<MediaDrmServer>,
    campaign: Option<&dyn CampaignHandler>,
) {
    while let Ok(job) = jobs.recv() {
        let frame = match job.work {
            Work::Drm { call, ctx } => {
                // When the frame carried the caller's trace context,
                // adopt it around the dispatch so this process's spans
                // stitch into the client's trace.
                let reply = if let Some(ctx) = ctx {
                    let _g = trace::span_with_parent("server.handle", ctx);
                    dispatch(server, call)
                } else {
                    dispatch(server, call)
                };
                encode_frame_full(&FrameBody::Reply(reply), None, job.request_id)
            }
            Work::Campaign(call) => {
                let reply = match campaign {
                    Some(handler) => handler.handle(call),
                    None => Err(CampaignError::Protocol {
                        what: "this endpoint serves no campaigns".into(),
                    }),
                };
                encode_frame_full(&FrameBody::CampaignReply(reply), None, job.request_id)
            }
        };
        // A send failure means the owning loop is gone (shutdown); the
        // reply has nowhere to go.
        let _ = job.done.send(Completion { slot: job.slot, generation: job.generation, frame });
    }
}

fn bump_active(active: &AtomicU64, opened: bool) {
    let now = if opened {
        active.fetch_add(1, Ordering::AcqRel) + 1
    } else {
        active.fetch_sub(1, Ordering::AcqRel) - 1
    };
    wideleak_telemetry::set_gauge("netserver.connections.active", now);
}

fn event_loop(
    conn_rx: &mpsc::Receiver<TcpStream>,
    jobs: &crossbeam::channel::Sender<Job>,
    config: &ReactorConfig,
    shutdown: &AtomicBool,
    active: &AtomicU64,
) {
    let (done_tx, done_rx) = mpsc::channel::<Completion>();
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut live = 0usize;
    let mut generation = 0u64;
    let mut scratch = vec![0u8; 64 * 1024];
    let mut idle_streak = 0u32;

    loop {
        if shutdown.load(Ordering::Acquire) {
            break;
        }
        let tick = Instant::now();
        let mut work = 0usize;

        // Register connections the accept thread handed over.
        while let Ok(stream) = conn_rx.try_recv() {
            generation += 1;
            let conn = Conn {
                stream,
                generation,
                rbuf: Vec::new(),
                wqueue: VecDeque::new(),
                woffset: 0,
                wqueue_bytes: 0,
                inflight: 0,
                closing: false,
            };
            let slot = free.pop().unwrap_or_else(|| {
                conns.push(None);
                conns.len() - 1
            });
            conns[slot] = Some(conn);
            live += 1;
            bump_active(active, true);
            work += 1;
        }

        // Drain finished dispatches into their connections' queues.
        while let Ok(done) = done_rx.try_recv() {
            apply_completion(&mut conns, &done);
            work += 1;
        }

        // IO sweep.
        for (slot, entry) in conns.iter_mut().enumerate() {
            let Some(conn) = entry.as_mut() else { continue };
            let (did, dead) = sweep_conn(conn, slot, jobs, &done_tx, config, &mut scratch);
            work += did;
            if dead || (conn.closing && conn.wqueue.is_empty() && conn.inflight == 0) {
                *entry = None;
                free.push(slot);
                live -= 1;
                bump_active(active, false);
                work += 1;
            }
        }

        if work > 0 {
            idle_streak = 0;
            wideleak_telemetry::observe("reactor.loop_lag", tick.elapsed());
            wideleak_telemetry::set_gauge("reactor.dispatch.queue_depth", jobs.len() as u64);
            continue;
        }
        idle_streak = idle_streak.saturating_add(1);
        if idle_streak < YIELD_STREAK && live > 0 {
            // Recently busy: yield instead of parking so a lone
            // blocking caller keeps thread-per-connection latency.
            std::thread::yield_now();
            continue;
        }
        let wait = if live == 0 { IDLE_WAIT_EMPTY } else { IDLE_WAIT_BUSY };
        match done_rx.recv_timeout(wait) {
            Ok(done) => apply_completion(&mut conns, &done),
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => std::thread::sleep(wait),
        }
    }

    // Account the connections this loop still held at shutdown.
    for conn in conns.into_iter().flatten() {
        drop(conn);
        bump_active(active, false);
    }
}

fn apply_completion(conns: &mut [Option<Conn>], done: &Completion) {
    if let Some(conn) = conns.get_mut(done.slot).and_then(Option::as_mut) {
        if conn.generation == done.generation {
            conn.inflight -= 1;
            conn.wqueue_bytes += done.frame.len();
            conn.wqueue.push_back(done.frame.clone());
        }
    }
}

/// Whether the connection may grow its workload, or must drain first.
fn under_limits(conn: &Conn, config: &ReactorConfig) -> bool {
    conn.inflight < config.max_inflight_per_conn.max(1)
        && conn.wqueue_bytes < config.outbound_queue_bytes
}

fn push_reply(conn: &mut Conn, frame: Vec<u8>) {
    conn.wqueue_bytes += frame.len();
    conn.wqueue.push_back(frame);
}

/// One connection's share of a sweep: read, parse, dispatch, flush.
/// Returns `(events_processed, fatally_dead)`.
fn sweep_conn(
    conn: &mut Conn,
    slot: usize,
    jobs: &crossbeam::channel::Sender<Job>,
    done_tx: &mpsc::Sender<Completion>,
    config: &ReactorConfig,
    scratch: &mut [u8],
) -> (usize, bool) {
    let mut work = 0usize;

    // Read until WouldBlock — but only while under the backpressure
    // limits: a connection at its in-flight or outbound cap is left on
    // the socket until it drains, which is what bounds its memory.
    while !conn.closing && under_limits(conn, config) {
        match conn.stream.read(scratch) {
            Ok(0) => {
                conn.closing = true;
                break;
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&scratch[..n]);
                work += 1;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return (work, true),
        }
    }

    // Parse complete frames off the reassembly buffer.
    while under_limits(conn, config) && conn.rbuf.len() >= HEADER_LEN {
        let total = match frame_len(&conn.rbuf[..HEADER_LEN]) {
            Ok(total) => total,
            Err(e) => {
                // A bad header means the frame boundary is unknowable:
                // send the typed error and close once it flushes.
                push_reply(
                    conn,
                    encode_frame_full(&FrameBody::Reply(Err(DrmError::Wire(e))), None, None),
                );
                conn.closing = true;
                conn.rbuf.clear();
                work += 1;
                break;
            }
        };
        if conn.rbuf.len() < total {
            break;
        }
        let frame: Vec<u8> = conn.rbuf.drain(..total).collect();
        SERVER_FRAMES.incr();
        work += 1;
        match decode_frame_full(&frame) {
            Ok((FrameBody::Call(call), meta, _)) => {
                conn.inflight += 1;
                let job = Job {
                    slot,
                    generation: conn.generation,
                    work: Work::Drm { call, ctx: meta.ctx },
                    request_id: meta.request_id,
                    done: done_tx.clone(),
                };
                if jobs.send(job).is_err() {
                    // Shutdown already tore the worker pool down.
                    return (work, true);
                }
            }
            Ok((FrameBody::CampaignCall(call), meta, _)) => {
                conn.inflight += 1;
                let job = Job {
                    slot,
                    generation: conn.generation,
                    work: Work::Campaign(call),
                    request_id: meta.request_id,
                    done: done_tx.clone(),
                };
                if jobs.send(job).is_err() {
                    return (work, true);
                }
            }
            Ok((FrameBody::Reply(_), meta, _)) => {
                // A reply frame arriving at the server is a protocol
                // violation; answer with the taxonomy's close cousin
                // and keep serving (the stream is still aligned).
                push_reply(
                    conn,
                    encode_frame_full(
                        &FrameBody::Reply(Err(DrmError::BadReply)),
                        None,
                        meta.request_id,
                    ),
                );
            }
            Ok((FrameBody::CampaignReply(_), meta, _)) => {
                push_reply(
                    conn,
                    encode_frame_full(
                        &FrameBody::CampaignReply(Err(CampaignError::Protocol {
                            what: "campaign reply frame at server".into(),
                        })),
                        None,
                        meta.request_id,
                    ),
                );
            }
            Err(e) => {
                push_reply(
                    conn,
                    encode_frame_full(&FrameBody::Reply(Err(DrmError::Wire(e))), None, None),
                );
                conn.closing = true;
                conn.rbuf.clear();
                break;
            }
        }
    }

    // Flush queued replies until WouldBlock.
    while let Some(front) = conn.wqueue.front() {
        match conn.stream.write(&front[conn.woffset..]) {
            Ok(0) => return (work, true),
            Ok(n) => {
                conn.woffset += n;
                work += 1;
                if conn.woffset == front.len() {
                    conn.wqueue_bytes -= front.len();
                    conn.woffset = 0;
                    conn.wqueue.pop_front();
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return (work, true),
        }
    }

    (work, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::DrmReply;
    use crate::wire::{decode_frame, encode_frame, WireError};
    use wideleak_bmff::types::WIDEVINE_SYSTEM_ID;
    use wideleak_cdm::cdm::Cdm;
    use wideleak_cdm::keybox::Keybox;
    use wideleak_device::catalog::DeviceModel;
    use wideleak_device::Device;

    fn server() -> MediaDrmServer {
        let device = Device::new(DeviceModel::nexus_5());
        let cdm =
            Cdm::builder().keybox(Keybox::issue(b"reactor-test", &[1; 16])).boot(&device).unwrap();
        let mut s = MediaDrmServer::new();
        s.register_plugin(WIDEVINE_SYSTEM_ID, Arc::new(cdm));
        s
    }

    /// Reads one whole frame from a blocking client socket.
    fn read_reply_frame(stream: &mut TcpStream) -> Vec<u8> {
        let mut header = [0u8; HEADER_LEN];
        stream.read_exact(&mut header).unwrap();
        let total = frame_len(&header).unwrap();
        let mut frame = vec![0u8; total];
        frame[..HEADER_LEN].copy_from_slice(&header);
        stream.read_exact(&mut frame[HEADER_LEN..]).unwrap();
        frame
    }

    #[test]
    fn pipelined_calls_on_one_socket_answer_with_echoed_ids() {
        let srv = TcpDrmServer::bind("127.0.0.1:0", server()).unwrap();
        let mut stream = TcpStream::connect(srv.local_addr()).unwrap();
        // Two calls with *different* answers, written back-to-back
        // before any reply is read: correlation must come from the
        // echoed ids, not arrival order.
        let mut batch = encode_frame_full(
            &FrameBody::Call(DrmCall::IsSchemeSupported { uuid: [0; 16] }),
            None,
            Some(71),
        );
        batch.extend_from_slice(&encode_frame_full(
            &FrameBody::Call(DrmCall::IsSchemeSupported { uuid: WIDEVINE_SYSTEM_ID }),
            None,
            Some(72),
        ));
        stream.write_all(&batch).unwrap();
        let mut seen = std::collections::HashMap::new();
        for _ in 0..2 {
            let frame = read_reply_frame(&mut stream);
            let (body, meta, _) = decode_frame_full(&frame).unwrap();
            seen.insert(meta.request_id.expect("reply echoes the request id"), body);
        }
        assert_eq!(seen[&71], FrameBody::Reply(Ok(DrmReply::Bool(false))));
        assert_eq!(seen[&72], FrameBody::Reply(Ok(DrmReply::Bool(true))));
    }

    #[test]
    fn inflight_cap_queues_rather_than_drops() {
        let config = ReactorConfig { max_inflight_per_conn: 1, ..ReactorConfig::default() };
        let srv = TcpDrmServer::bind_with("127.0.0.1:0", Arc::new(server()), config).unwrap();
        let mut stream = TcpStream::connect(srv.local_addr()).unwrap();
        let mut batch = Vec::new();
        for id in 0..8u64 {
            batch.extend_from_slice(&encode_frame_full(
                &FrameBody::Call(DrmCall::IsProvisioned),
                None,
                Some(id),
            ));
        }
        stream.write_all(&batch).unwrap();
        let mut ids: Vec<u64> = (0..8)
            .map(|_| {
                decode_frame_full(&read_reply_frame(&mut stream)).unwrap().1.request_id.unwrap()
            })
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..8).collect::<Vec<u64>>());
    }

    #[test]
    fn malformed_frame_gets_a_typed_error_then_the_connection_closes() {
        let srv = TcpDrmServer::bind("127.0.0.1:0", server()).unwrap();
        let mut stream = TcpStream::connect(srv.local_addr()).unwrap();
        stream.write_all(b"XXXXXXXXXXXXXXXX").unwrap();
        let frame = read_reply_frame(&mut stream);
        let (body, _) = decode_frame(&frame).unwrap();
        assert!(
            matches!(body, FrameBody::Reply(Err(DrmError::Wire(WireError::BadMagic { .. })))),
            "got {body:?}"
        );
        // The server closes after a frame-boundary-destroying error.
        let mut rest = Vec::new();
        assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0);
    }

    #[test]
    fn reply_frames_at_the_server_answer_bad_reply_and_keep_serving() {
        let srv = TcpDrmServer::bind("127.0.0.1:0", server()).unwrap();
        let mut stream = TcpStream::connect(srv.local_addr()).unwrap();
        stream.write_all(&encode_frame(&FrameBody::Reply(Ok(DrmReply::Unit)))).unwrap();
        let (body, _) = decode_frame(&read_reply_frame(&mut stream)).unwrap();
        assert_eq!(body, FrameBody::Reply(Err(DrmError::BadReply)));
        // The stream is still frame-aligned, so the server keeps serving.
        stream
            .write_all(&encode_frame(&FrameBody::Call(DrmCall::IsSchemeSupported {
                uuid: WIDEVINE_SYSTEM_ID,
            })))
            .unwrap();
        let (body, _) = decode_frame(&read_reply_frame(&mut stream)).unwrap();
        assert_eq!(body, FrameBody::Reply(Ok(DrmReply::Bool(true))));
    }

    #[test]
    fn active_connections_gauge_rises_and_falls() {
        let srv = TcpDrmServer::bind("127.0.0.1:0", server()).unwrap();
        assert_eq!(srv.active_connections(), 0);
        let stream = TcpStream::connect(srv.local_addr()).unwrap();
        let mut registered = false;
        for _ in 0..200 {
            if srv.active_connections() == 1 {
                registered = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(registered, "connection registered with an event loop");
        drop(stream);
        let mut reaped = false;
        for _ in 0..200 {
            if srv.active_connections() == 0 {
                reaped = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(reaped, "closed connection decremented the gauge");
    }

    #[test]
    fn many_idle_connections_cost_no_threads() {
        let srv = TcpDrmServer::bind("127.0.0.1:0", server()).unwrap();
        let conns: Vec<TcpStream> =
            (0..64).map(|_| TcpStream::connect(srv.local_addr()).unwrap()).collect();
        for _ in 0..200 {
            if srv.active_connections() == 64 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(srv.active_connections(), 64);
        // One of them still gets served while the other 63 idle.
        let mut stream = TcpStream::connect(srv.local_addr()).unwrap();
        stream
            .write_all(&encode_frame(&FrameBody::Call(DrmCall::IsSchemeSupported {
                uuid: WIDEVINE_SYSTEM_ID,
            })))
            .unwrap();
        let (body, _) = decode_frame(&read_reply_frame(&mut stream)).unwrap();
        assert_eq!(body, FrameBody::Reply(Ok(DrmReply::Bool(true))));
        drop(conns);
    }
}
