//! Cross-process backend shards: a TCP server hosting an [`EvalService`]'s
//! worker pools, and a [`RemoteBackend`] client that makes a remote shard
//! look like any other [`Backend`].
//!
//! ```text
//!  client process                         shard process (shardd)
//!  ───────────────                        ──────────────────────
//!  EvalService                            ShardServer
//!    ├─ local backend pools                 └─ EvalService
//!    └─ RemoteBackend ── pooled framed ──►      ├─ backend pools
//!         (shared ConnectionPool)               └─ report cache
//! ```
//!
//! Because [`RemoteBackend`] implements the [`Backend`] trait, remote shards
//! slot transparently into everything built on the evaluation layer: the
//! sweep runner, [`EvalService`] batching/caching, and the table binaries.
//! Evaluation stays deterministic wherever it runs, so a grid computed
//! through a remote shard is byte-identical (through the `crate::json`
//! emitters and the rendered table text) to the same grid computed
//! in-process — the loopback integration tests pin exactly that.
//!
//! # Pooling and pipelining
//!
//! Exchanges run over a shared [`ConnectionPool`]: connections are reused
//! across evaluations (health-checked at checkout, re-dialled on transport
//! error, never returned poisoned — see [`crate::pool`]), so the per-call
//! TCP connect the first version of this layer paid is gone from the hot
//! path.  [`RemoteBackend::evaluate_many`] sends a whole micro-batch of
//! specs as **one** `evaluate_batch` wire exchange and the shard answers
//! with one frame of results — the serving worker pools call
//! `evaluate_many` with their share of each micro-batch, so batches formed
//! by the client-side batcher cross the wire intact.
//!
//! # Failure semantics
//!
//! Transport failures (dead shard, malformed frame, timeout) surface as
//! [`EvalError::Transport`] — a domain *result*, not a panic, so one dead
//! shard fails only the requests routed to it.  Like every error, transport
//! failures are never retained by the report cache: a restarted shard
//! serves the next request for the same spec normally.

use crate::binary::{ConnCodec, RxSymbols, TxSymbols};
use crate::config::{EncodingPolicy, FrontendPolicy, RemoteConfig, TransportPolicy};
use crate::pool::ConnectionPool;
use crate::reactor::completed_response;
use crate::request::ResponseHandle;
use crate::service::EvalService;
use crate::shm::{self, Direction, Parker, RingConsumer, RingProducer, Segment};
use crate::stats::ServiceStats;
use crate::wire::{
    decode_request_payload_dict, protocol_mismatch, write_response_frame,
    write_response_frame_dict, FrameBuffer, ShardRequest, ShardResponse, SharedResult,
    WireEncoding, WireError, PROTOCOL_VERSION,
};
use rsn_eval::{Backend, EvalError, EvalReport, WorkloadSpec};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Live connections of a [`ShardServer`], so dropping the server can sever
/// them (pooled clients hold connections open between exchanges; without
/// this a "killed" server would keep answering on them).
type ConnectionRegistry = Mutex<HashMap<u64, TcpStream>>;

/// Live ring segments by connection id, so
/// [`ShardServer::ring_segments`] can report which shared-memory files
/// this server currently owns (tests pin that they unlink on teardown;
/// operators can audit `/dev/shm` against it).
type RingRegistry = Mutex<HashMap<u64, std::path::PathBuf>>;

/// A TCP server hosting one [`EvalService`] as a backend shard.
///
/// Each accepted connection is served by its own thread; one connection
/// carries any number of sequential request/response exchanges (see
/// [`crate::wire`] for the protocol).  Dropping the server stops
/// accepting, severs every live connection (in-flight exchanges die with
/// their sockets — pooled clients re-dial and surface
/// [`EvalError::Transport`]), and unblocks the listener.
pub struct ShardServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    service: Arc<EvalService>,
    connections: Arc<ConnectionRegistry>,
    rings: Arc<RingRegistry>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ShardServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// serving the given service's backends, on the front end the service's
    /// [`RemoteConfig::frontend`] selects (thread-per-connection by
    /// default; see [`bind_with_frontend`](Self::bind_with_frontend)).
    pub fn bind(addr: &str, service: EvalService) -> std::io::Result<Self> {
        let frontend = service.config().remote.frontend;
        Self::bind_with_frontend(addr, service, frontend)
    }

    /// [`bind`](Self::bind) with the front end forced: `Threads` serves
    /// each connection from its own blocking thread (strict FIFO, may
    /// offer shared-memory rings), `Reactor` serves every connection from
    /// one nonblocking event-loop thread (multiplexing, never
    /// offers rings) — see [`crate::reactor`].
    pub fn bind_with_frontend(
        addr: &str,
        service: EvalService,
        frontend: FrontendPolicy,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let service = Arc::new(service);
        let connections: Arc<ConnectionRegistry> = Arc::new(Mutex::new(HashMap::new()));
        let rings: Arc<RingRegistry> = Arc::new(Mutex::new(HashMap::new()));
        let accept_thread = match frontend {
            FrontendPolicy::Reactor => {
                let shutdown = Arc::clone(&shutdown);
                let service = Arc::clone(&service);
                let connections = Arc::clone(&connections);
                std::thread::Builder::new()
                    .name("shard-reactor".to_string())
                    .spawn(move || {
                        crate::reactor::serve_reactor(listener, service, shutdown, connections);
                    })?
            }
            FrontendPolicy::Threads => {
                let shutdown = Arc::clone(&shutdown);
                let service = Arc::clone(&service);
                let connections = Arc::clone(&connections);
                let rings = Arc::clone(&rings);
                std::thread::spawn(move || {
                    let next_id = AtomicU64::new(0);
                    for stream in listener.incoming() {
                        if shutdown.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let id = next_id.fetch_add(1, Ordering::Relaxed);
                        if let Ok(clone) = stream.try_clone() {
                            connections
                                .lock()
                                .expect("connection registry lock")
                                .insert(id, clone);
                        }
                        let service = Arc::clone(&service);
                        let connections = Arc::clone(&connections);
                        let rings = Arc::clone(&rings);
                        std::thread::spawn(move || {
                            serve_connection(stream, &service, id, &rings);
                            rings.lock().expect("ring registry lock").remove(&id);
                            connections
                                .lock()
                                .expect("connection registry lock")
                                .remove(&id);
                        });
                    }
                })
            }
        };
        Ok(Self {
            local_addr,
            shutdown,
            service,
            connections,
            rings,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The hosted service's statistics (includes per-shard counters for the
    /// backends this server hosts).
    pub fn stats(&self) -> ServiceStats {
        self.service.stats()
    }

    /// Names of the backends this server hosts, in registration order.
    pub fn backend_names(&self) -> &[String] {
        self.service.backend_names()
    }

    /// Paths of the shared-memory ring segments live connections currently
    /// own.  Every one is unlinked when its connection (or this server)
    /// winds down — auditing `/dev/shm` against this list finds leaks.
    pub fn ring_segments(&self) -> Vec<std::path::PathBuf> {
        self.rings
            .lock()
            .expect("ring registry lock")
            .values()
            .cloned()
            .collect()
    }
}

impl Drop for ShardServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection and join it
        // *before* severing: a connection accepted concurrently with this
        // drop registers from the accept thread, so only after the join is
        // the registry complete (serving threads only ever remove).
        let _ = TcpStream::connect(self.local_addr);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
        // Sever live connections: pooled clients keep sockets open between
        // exchanges, and their serving threads hold the service alive —
        // a dead server must stop answering, not linger on old sockets.
        for (_, connection) in self
            .connections
            .lock()
            .expect("connection registry lock")
            .drain()
        {
            let _ = connection.shutdown(Shutdown::Both);
        }
    }
}

/// The server end of one connection's negotiated ring: its segment (owned,
/// unlinked on drop), the two ring halves, and a [`FrameBuffer`]
/// accumulating the client's request bytes.
struct ServerRing {
    segment: Arc<Segment>,
    producer: RingProducer,
    consumer: RingConsumer,
    frames: FrameBuffer,
}

/// Non-blocking `Read` over a ring consumer for [`FrameBuffer::fill`]: an
/// empty ring reads as `WouldBlock`, never 0 (0 would mean EOF, and rings
/// have no EOF — the liveness socket carries that signal).
struct RingReader<'a>(&'a mut RingConsumer);

impl Read for RingReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self.0.read_some(buf)? {
            0 => Err(std::io::Error::new(
                std::io::ErrorKind::WouldBlock,
                "ring empty",
            )),
            n => Ok(n),
        }
    }
}

/// Serves one connection: frames in, frames out, until EOF, an idle
/// timeout, or a transport error.  Each socket read drains *every*
/// complete frame it delivered (a client's coalesced burst is answered as
/// one burst: all evaluations submitted before any is waited on, all
/// responses written back in one buffer).  Malformed frames are answered
/// with a protocol-level rejection (id 0, since the request id never
/// decoded) and the connection closes — after a framing error the stream
/// position can no longer be trusted.  The idle bound
/// ([`RemoteConfig::server_idle_timeout`]) reaps abandoned sockets (a peer
/// that vanished without a FIN) so they cannot pin a server thread
/// forever; pooled clients that idle past it transparently re-dial.
///
/// When the transport policy allows it, the first matching `hello`
/// creates a shared-memory ring segment for this connection and
/// advertises it; from then on the loop polls *both* sources and answers
/// every request on the transport it arrived on, so clients that decline
/// the offer (or raced frames onto the socket before switching) are
/// served identically.
fn serve_connection(
    mut stream: TcpStream,
    service: &EvalService,
    conn_id: u64,
    rings: &RingRegistry,
) {
    let remote = service.config().remote.clone();
    let idle_timeout = remote.server_idle_timeout;
    if stream.set_read_timeout(Some(idle_timeout)).is_err() {
        return;
    }
    // Answers must leave immediately: a pooled client runs sequential
    // exchanges on this connection, and Nagle would stall each response
    // behind the client's delayed ACK (see the matching client-side note
    // in `crate::pool`).
    let _ = stream.set_nodelay(true);
    // Per-connection scratch buffers, reused for every received payload,
    // every binary response image, and every outgoing burst — the steady
    // state allocates no per-frame buffers.
    let mut scratch = Vec::new();
    let mut out = Vec::new();
    let mut socket_frames = FrameBuffer::new();
    let mut ring: Option<ServerRing> = None;
    // This connection's protocol-7 symbol dictionaries: `rx` resolves the
    // client's label ids, `tx` defines ours.  One codec per connection —
    // the ring phase continues the socket phase's tables, because a ring
    // upgrade is the same connection on a different byte channel.
    let mut codec = ConnCodec::new();

    // Socket phase: blocking reads with the idle timeout doing the
    // reaping, until (if ever) a hello negotiates a ring.
    while ring.is_none() {
        let burst = match drain_burst(&mut socket_frames, &mut scratch, &mut codec.rx) {
            Ok(burst) => burst,
            Err(error) => {
                reject_unframeable(&mut stream, &error, &mut scratch);
                return;
            }
        };
        if burst.is_empty() {
            match socket_frames.fill(&mut stream) {
                Ok(0) => return,
                Ok(_) => continue,
                // Idle reap: the peer went quiet, there is nobody to answer.
                Err(ref e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return
                }
                Err(_) => return,
            }
        }
        let responses = answer_burst(service, burst, &remote, &stream, conn_id, &mut ring, false);
        out.clear();
        if encode_responses(&mut out, &responses, &mut scratch, &mut codec.tx).is_err() {
            return;
        }
        if stream.write_all(&out).is_err() {
            return;
        }
    }

    // Ring phase: poll both sources without blocking on either — the
    // client is switching (or declined and stays on the socket), and a
    // request must be answered where it arrived.
    if let Some(server_ring) = ring.as_ref() {
        rings
            .lock()
            .expect("ring registry lock")
            .insert(conn_id, server_ring.segment.path().to_path_buf());
    }
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let mut parker = Parker::new();
    let mut last_activity = Instant::now();
    loop {
        let mut progressed = false;
        match socket_frames.fill(&mut stream) {
            Ok(0) => return, // FIN: the peer is gone; its segment unlinks with `ring`
            Ok(_) => progressed = true,
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(_) => return,
        }
        {
            let server_ring = ring.as_mut().expect("ring phase");
            match server_ring
                .frames
                .fill(&mut RingReader(&mut server_ring.consumer))
            {
                Ok(_) => progressed = true,
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(_) => return, // corrupt cursors: abandon the connection
            }
        }
        let socket_burst = match drain_burst(&mut socket_frames, &mut scratch, &mut codec.rx) {
            Ok(burst) => burst,
            Err(error) => {
                reject_unframeable(&mut stream, &error, &mut scratch);
                return;
            }
        };
        if !socket_burst.is_empty() {
            progressed = true;
            let responses = answer_burst(
                service,
                socket_burst,
                &remote,
                &stream,
                conn_id,
                &mut ring,
                false,
            );
            out.clear();
            if encode_responses(&mut out, &responses, &mut scratch, &mut codec.tx).is_err() {
                return;
            }
            if write_all_nonblocking(&mut stream, &out, idle_timeout).is_err() {
                return;
            }
        }
        let ring_burst = {
            let server_ring = ring.as_mut().expect("ring phase");
            match drain_burst(&mut server_ring.frames, &mut scratch, &mut codec.rx) {
                Ok(burst) => burst,
                Err(_) => return, // garbage on the ring: abandon it
            }
        };
        if !ring_burst.is_empty() {
            progressed = true;
            let responses = answer_burst(
                service, ring_burst, &remote, &stream, conn_id, &mut ring, true,
            );
            out.clear();
            if encode_responses(&mut out, &responses, &mut scratch, &mut codec.tx).is_err() {
                return;
            }
            let server_ring = ring.as_mut().expect("ring phase");
            if ring_write_all(server_ring, &stream, &out, idle_timeout).is_err() {
                return;
            }
        }
        if progressed {
            last_activity = Instant::now();
            parker.reset();
        } else {
            if last_activity.elapsed() >= idle_timeout {
                return;
            }
            parker.park();
        }
    }
}

/// Extracts and decodes every complete frame currently buffered,
/// resolving dictionary frames against the connection's receive table.
fn drain_burst(
    frames: &mut FrameBuffer,
    scratch: &mut Vec<u8>,
    rx: &mut RxSymbols,
) -> Result<Vec<(u64, ShardRequest, WireEncoding)>, WireError> {
    let mut burst = Vec::new();
    while frames.take_frame(scratch)? {
        burst.push(decode_request_payload_dict(scratch, rx)?);
    }
    Ok(burst)
}

/// Best-effort rejection of a frame that never decoded: its encoding is
/// unknown, so answer in JSON, which every client reads.
fn reject_unframeable(stream: &mut TcpStream, error: &WireError, scratch: &mut Vec<u8>) {
    let rejection = ShardResponse::Rejected(error.to_string());
    let _ = write_response_frame(stream, 0, &rejection, WireEncoding::Json, scratch);
}

/// One request staged against the service: answered immediately, or
/// submitted and owed a wait.  Staging a whole burst before resolving any
/// of it lets the shard's worker pools run every chunk of the burst
/// concurrently — the point of coalescing.
enum Staged {
    Now(ShardResponse),
    Submitted {
        handle: ResponseHandle,
        expected: usize,
        single: bool,
    },
}

/// Answers a burst of decoded requests: stage everything (submitting all
/// evaluations), then resolve in request order.  Responses carry the
/// encoding each will be written in (`Auto` mirrors the request's).
///
/// `inline` selects the shard's evaluation path: socket bursts fan out
/// through the service's worker pools (the peer may be a different
/// machine, so shard-side parallelism is free), while ring bursts — by
/// construction same-host — evaluate on this thread, where queue
/// hand-offs to a pool that shares cores with the client would only add
/// context switches.
fn answer_burst(
    service: &EvalService,
    burst: Vec<(u64, ShardRequest, WireEncoding)>,
    remote: &RemoteConfig,
    stream: &TcpStream,
    conn_id: u64,
    ring: &mut Option<ServerRing>,
    inline: bool,
) -> Vec<(u64, ShardResponse, WireEncoding)> {
    let staged: Vec<(u64, Staged, WireEncoding)> = burst
        .into_iter()
        .map(|(id, request, request_encoding)| {
            // `Auto` mirrors the request's encoding, so JSON, plain binary
            // and dictionary requests are each answered in kind; forcing
            // `json` keeps a shard's answers human-readable.  `Binary`
            // upgrades to dictionaries only when the request proves the
            // peer resolves them, and `BinaryNodict` pins plain binary even
            // then.
            let encoding = match remote.encoding {
                EncodingPolicy::Auto => request_encoding,
                EncodingPolicy::Json => WireEncoding::Json,
                EncodingPolicy::Binary => {
                    if request_encoding == WireEncoding::BinaryDict {
                        WireEncoding::BinaryDict
                    } else {
                        WireEncoding::Binary
                    }
                }
                EncodingPolicy::BinaryNodict => WireEncoding::Binary,
            };
            (
                id,
                stage(service, request, remote, stream, conn_id, ring, inline),
                encoding,
            )
        })
        .collect();
    staged
        .into_iter()
        .map(|(id, staged, encoding)| (id, resolve(staged), encoding))
        .collect()
}

/// Stages one decoded request against the hosted service.
fn stage(
    service: &EvalService,
    request: ShardRequest,
    remote: &RemoteConfig,
    stream: &TcpStream,
    conn_id: u64,
    ring: &mut Option<ServerRing>,
    inline: bool,
) -> Staged {
    match request {
        ShardRequest::Hello { protocol } if protocol != PROTOCOL_VERSION => Staged::Now(
            ShardResponse::Rejected(protocol_mismatch("shard", "peer", protocol)),
        ),
        ShardRequest::Hello { .. } => {
            maybe_offer_ring(remote, stream, conn_id, ring);
            Staged::Now(ShardResponse::Backends {
                names: service.backend_names().to_vec(),
                protocol: PROTOCOL_VERSION,
                ring: ring
                    .as_ref()
                    .map(|server_ring| server_ring.segment.path().display().to_string()),
                // The blocking front end is strictly FIFO: no credit window
                // is advertised, so clients keep sequential exchanges here.
                window: None,
            })
        }
        ShardRequest::Supports { backend, spec } => {
            Staged::Now(match service.backend_supports(&backend, &spec) {
                Some(supported) => ShardResponse::Supported(supported),
                None => ShardResponse::Rejected(format!("unknown backend `{backend}`")),
            })
        }
        ShardRequest::Evaluate { backend, spec } => {
            submit(service, backend, vec![spec], true, inline)
        }
        ShardRequest::EvaluateBatch { backend, specs } => {
            submit(service, backend, specs, false, inline)
        }
        ShardRequest::Stats => Staged::Now(ShardResponse::Stats(service.stats())),
        // Cancellation is a reactor-front-end feature; a client can only
        // send one here by ignoring the missing window in our hello.
        // Answer (rather than silently dropping) so the 1:1
        // request/response invariant of this front end holds.
        ShardRequest::Cancel { target } => Staged::Now(ShardResponse::Rejected(format!(
            "cancel (target {target}) is not supported by the threads front end"
        ))),
    }
}

/// Submits `specs` to the hosted service on one named backend (the whole
/// batch as one burst, so the shard's own micro-batcher and cache see it
/// intact) without waiting for the results.  With `inline` the specs are
/// instead evaluated on this thread through the cache-preserving
/// [`EvalService::evaluate_batch_inline`] fast path.
fn submit(
    service: &EvalService,
    backend: String,
    specs: Vec<WorkloadSpec>,
    single: bool,
    inline: bool,
) -> Staged {
    if !service.backend_names().contains(&backend) {
        return Staged::Now(ShardResponse::Rejected(format!(
            "unknown backend `{backend}`"
        )));
    }
    if inline {
        let mut results = service
            .evaluate_batch_inline(&backend, specs)
            .unwrap_or_default();
        return Staged::Now(if single {
            ShardResponse::Evaluated(results.pop().unwrap_or_else(|| {
                Arc::new(Err(EvalError::Remote {
                    message: "shard produced no result slot".to_string(),
                }))
            }))
        } else {
            ShardResponse::EvaluatedBatch(results)
        });
    }
    let expected = specs.len();
    let handle = service.submit_batch(
        specs,
        crate::request::BackendSelector::Named(vec![backend]),
        crate::request::Priority::Normal,
    );
    Staged::Submitted {
        handle,
        expected,
        single,
    }
}

/// Resolves one staged request into its response.  Results stay
/// `Arc`-shared with the shard's report cache all the way into the
/// response encoder — answering a cached spec copies nothing.
fn resolve(staged: Staged) -> ShardResponse {
    match staged {
        Staged::Now(response) => response,
        Staged::Submitted {
            handle,
            expected,
            single,
        } => completed_response(handle.wait(), expected, single),
    }
}

/// Creates and registers this connection's ring segment when the policy
/// allows one and none exists yet.  Any failure (an unwritable segment
/// dir, an unlikely path collision) simply leaves the offer unmade.
fn maybe_offer_ring(
    remote: &RemoteConfig,
    stream: &TcpStream,
    conn_id: u64,
    ring: &mut Option<ServerRing>,
) {
    if ring.is_some() {
        return;
    }
    let eligible = match remote.transport {
        TransportPolicy::Socket => false,
        // Rings only work inside one host's memory; `Shm` extends the
        // offer to every peer for operators who know their clients are
        // local behind a non-loopback address.
        TransportPolicy::Shm => true,
        TransportPolicy::Auto => stream
            .peer_addr()
            .map(|addr| addr.ip().is_loopback())
            .unwrap_or(false),
    };
    if !eligible {
        return;
    }
    let path = shm::segment_path(conn_id);
    let Ok(segment) = Segment::create(&path, shm::DEFAULT_CAPACITY) else {
        return;
    };
    *ring = Some(ServerRing {
        producer: segment.producer(Direction::ServerToClient),
        consumer: segment.consumer(Direction::ClientToServer),
        frames: FrameBuffer::new(),
        segment,
    });
}

/// Encodes a burst's responses back-to-back into `out`, so the whole
/// answer leaves in one write.
fn encode_responses(
    out: &mut Vec<u8>,
    responses: &[(u64, ShardResponse, WireEncoding)],
    scratch: &mut Vec<u8>,
    tx: &mut TxSymbols,
) -> Result<(), WireError> {
    for (id, response, encoding) in responses {
        write_response_frame_dict(out, *id, response, *encoding, scratch, tx)?;
    }
    Ok(())
}

/// `write_all` over the (now non-blocking) socket, parking on a full send
/// buffer, bounded by `budget`.
fn write_all_nonblocking(
    stream: &mut TcpStream,
    bytes: &[u8],
    budget: Duration,
) -> std::io::Result<()> {
    let deadline = Instant::now() + budget;
    let mut parker = Parker::new();
    let mut written = 0;
    while written < bytes.len() {
        match stream.write(&bytes[written..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "socket accepted no bytes",
                ))
            }
            Ok(n) => {
                written += n;
                parker.reset();
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if parker.is_parking() && Instant::now() >= deadline {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "socket write stalled",
                    ));
                }
                parker.park();
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Writes a response burst into the ring, pumping the inbound direction
/// while the outbound one is full: the client's write path does the
/// mirror-image pumping, so even bursts larger than both rings stream
/// through without deadlock.  Bounded by `budget`; a dead peer (socket
/// EOF) aborts immediately.
fn ring_write_all(
    server_ring: &mut ServerRing,
    stream: &TcpStream,
    bytes: &[u8],
    budget: Duration,
) -> std::io::Result<()> {
    let deadline = Instant::now() + budget;
    let mut parker = Parker::new();
    let mut written = 0;
    while written < bytes.len() {
        let n = server_ring.producer.write_some(&bytes[written..])?;
        if n > 0 {
            written += n;
            parker.reset();
            continue;
        }
        match server_ring
            .frames
            .fill(&mut RingReader(&mut server_ring.consumer))
        {
            Ok(_) => {}
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) => return Err(e),
        }
        if parker.is_parking() {
            let mut probe = [0u8; 1];
            match stream.peek(&mut probe) {
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::ConnectionAborted,
                        "client closed the ring connection",
                    ))
                }
                Ok(_) => {}
                Err(e) => return Err(e),
            }
            if Instant::now() >= deadline {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "ring write stalled against a full ring",
                ));
            }
        }
        parker.park();
    }
    Ok(())
}

/// A [`Backend`] whose evaluations run in a shard server across pooled TCP
/// connections.
///
/// All backends returned by one [`connect_all`](Self::connect_all) share a
/// single [`ConnectionPool`], so concurrent evaluations reuse one warm
/// connection set; the pool bound keeps a shard from hoarding sockets.  A
/// shard restart between calls costs one transparent re-dial.  All socket
/// operations carry the pool's configured timeouts
/// ([`RemoteConfig`]), so a hung shard yields
/// [`EvalError::Transport`], never a stuck worker.
#[derive(Debug, Clone)]
pub struct RemoteBackend {
    pool: Arc<ConnectionPool>,
    name: String,
    pipelining: bool,
}

impl RemoteBackend {
    /// Performs the `hello` handshake against a shard server and returns
    /// one `RemoteBackend` per backend it hosts, in the server's
    /// registration order, all sharing one connection pool.  A shard of
    /// another protocol version fails the handshake with a mismatch error.
    pub fn connect_all(addr: &str) -> Result<Vec<RemoteBackend>, WireError> {
        Self::connect_all_with(addr, RemoteConfig::default())
    }

    /// [`connect_all`](Self::connect_all) with explicit transport tuning
    /// (timeouts, pool bound).
    pub fn connect_all_with(
        addr: &str,
        config: RemoteConfig,
    ) -> Result<Vec<RemoteBackend>, WireError> {
        let pool = Arc::new(ConnectionPool::new(addr, config));
        let names = pool.hello()?;
        Ok(names
            .into_iter()
            .map(|name| RemoteBackend {
                pool: Arc::clone(&pool),
                name,
                pipelining: true,
            })
            .collect())
    }

    /// A client for one named backend on a shard server (no handshake; the
    /// name is trusted, and the protocol version is checked on the first
    /// dial or batched evaluation).
    pub fn named(addr: &str, name: &str) -> RemoteBackend {
        Self::named_with(addr, name, RemoteConfig::default())
    }

    /// [`named`](Self::named) with explicit transport tuning.
    pub fn named_with(addr: &str, name: &str, config: RemoteConfig) -> RemoteBackend {
        RemoteBackend {
            pool: Arc::new(ConnectionPool::new(addr, config)),
            name: name.to_string(),
            pipelining: true,
        }
    }

    /// Returns the backend with both transport timeouts (connect and
    /// per-operation I/O) set to `timeout`, on a fresh private pool.
    pub fn with_timeout(self, timeout: Duration) -> Self {
        let config = RemoteConfig {
            connect_timeout: timeout,
            io_timeout: timeout,
            ..self.pool.config().clone()
        };
        RemoteBackend {
            pool: Arc::new(ConnectionPool::new(self.pool.addr(), config)),
            name: self.name,
            pipelining: self.pipelining,
        }
    }

    /// Returns the backend with pipelining forced on or off.  With
    /// pipelining off, [`evaluate_many`](Backend::evaluate_many) always
    /// falls back to per-spec exchanges — the serve benchmark uses this to
    /// measure exactly what batching the wire exchanges is worth.
    pub fn with_pipelining(mut self, pipelining: bool) -> Self {
        self.pipelining = pipelining;
        self
    }

    /// The shard server address this backend evaluates on.
    pub fn addr(&self) -> &str {
        self.pool.addr()
    }

    /// The connection pool this backend exchanges over (shared with every
    /// backend from the same [`connect_all`](Self::connect_all)).
    pub fn pool(&self) -> &Arc<ConnectionPool> {
        &self.pool
    }

    fn transport_error(&self, error: &WireError) -> EvalError {
        EvalError::Transport {
            backend: self.name.clone(),
            detail: error.to_string(),
        }
    }

    fn unexpected(&self, what: &str) -> EvalError {
        EvalError::Transport {
            backend: self.name.clone(),
            detail: format!("shard answered with an unexpected payload ({what})"),
        }
    }

    fn rejected(&self, message: &str) -> EvalError {
        EvalError::Transport {
            backend: self.name.clone(),
            detail: format!("shard rejected the request: {message}"),
        }
    }

    /// Shapes one `evaluate_batch` outcome into a result per spec: the
    /// shard's results, or the exchange's failure repeated for every spec.
    fn batch_results(
        &self,
        outcome: Result<ShardResponse, EvalError>,
        specs: usize,
    ) -> Vec<SharedResult> {
        let error = match outcome {
            Ok(ShardResponse::EvaluatedBatch(results)) if results.len() == specs => {
                self.pool.count_pipelined(specs);
                return results;
            }
            Ok(ShardResponse::EvaluatedBatch(results)) => {
                self.unexpected(&format!("{} results for batch", results.len()))
            }
            Ok(ShardResponse::Rejected(message)) => self.rejected(&message),
            Ok(_) => self.unexpected("evaluate_batch"),
            Err(error) => error,
        };
        (0..specs).map(|_| Arc::new(Err(error.clone()))).collect()
    }
}

/// Takes ownership of a decoded wire result.  Freshly decoded results are
/// sole owners of their `Arc`, so this is a move, not a copy; the clone
/// fallback only runs if a caller shared the response first.
fn unshare(result: SharedResult) -> Result<EvalReport, EvalError> {
    Arc::try_unwrap(result).unwrap_or_else(|shared| (*shared).clone())
}

impl Backend for RemoteBackend {
    fn name(&self) -> &str {
        &self.name
    }

    /// Probes the shard; an unreachable shard reports `false` (the
    /// `supports` contract has no error channel — `evaluate` will surface
    /// the [`EvalError::Transport`] if the caller proceeds anyway).
    fn supports(&self, workload: &WorkloadSpec) -> bool {
        matches!(
            self.pool.exchange(&ShardRequest::Supports {
                backend: self.name.clone(),
                spec: workload.clone(),
            }),
            Ok(ShardResponse::Supported(true))
        )
    }

    fn evaluate(&self, workload: &WorkloadSpec) -> Result<EvalReport, EvalError> {
        match self.pool.exchange(&ShardRequest::Evaluate {
            backend: self.name.clone(),
            spec: workload.clone(),
        }) {
            Ok(ShardResponse::Evaluated(result)) => unshare(result),
            Ok(ShardResponse::Rejected(message)) => Err(self.rejected(&message)),
            Ok(_) => Err(self.unexpected("evaluate")),
            Err(error) => Err(self.transport_error(&error)),
        }
    }

    /// Pipelines a whole micro-batch into one `evaluate_batch` wire
    /// exchange, using per-spec exchanges (still pooled) only when
    /// pipelining is disabled or for single-spec batches (where the
    /// per-spec frame is the same size).  `named` clients skip the
    /// construction-time handshake, so this performs it on first use; a
    /// failed one fails every spec with its [`EvalError::Transport`].
    fn evaluate_many(&self, workloads: &[WorkloadSpec]) -> Vec<Result<EvalReport, EvalError>> {
        if !self.pipelining || workloads.len() < 2 {
            return workloads.iter().map(|w| self.evaluate(w)).collect();
        }
        let outcome = self.pool.ensure_hello().and_then(|()| {
            self.pool.exchange(&ShardRequest::EvaluateBatch {
                backend: self.name.clone(),
                specs: workloads.to_vec(),
            })
        });
        let outcome = outcome.map_err(|error| self.transport_error(&error));
        self.batch_results(outcome, workloads.len())
            .into_iter()
            .map(unshare)
            .collect()
    }

    /// A pipelining remote backend wants its worker's pending chunks
    /// coalesced: the whole backlog crosses the wire as one burst instead
    /// of one round-trip per chunk.
    fn coalesces_chunks(&self) -> bool {
        self.pipelining
    }

    /// Burst path, plain-result form: unwraps the shared results of
    /// [`evaluate_chunks_shared`](Backend::evaluate_chunks_shared) (each a
    /// freshly decoded sole-owner `Arc`, so the unwrap is a move).
    fn evaluate_chunks(
        &self,
        chunks: &[Vec<WorkloadSpec>],
    ) -> Vec<Vec<Result<EvalReport, EvalError>>> {
        self.evaluate_chunks_shared(chunks)
            .into_iter()
            .map(|chunk| chunk.into_iter().map(unshare).collect())
            .collect()
    }

    /// Sends every chunk of a coalesced backlog as one contiguous
    /// multi-frame burst (one `EvaluateBatch` frame per chunk, one socket
    /// or ring write for all of them), then reads the responses in order.
    /// Results are handed through in the `Arc`s the wire decoder produced —
    /// the serving cache stores exactly those, so the burst path never
    /// unwraps and re-boxes a report.  Falls back to sequential
    /// [`Backend::evaluate_many`] calls when pipelining is off or the burst
    /// is trivial; a failed first-use handshake fails every spec, exactly
    /// as in `evaluate_many`.
    fn evaluate_chunks_shared(&self, chunks: &[Vec<WorkloadSpec>]) -> Vec<Vec<SharedResult>> {
        if !self.pipelining || chunks.len() < 2 {
            return chunks
                .iter()
                .map(|specs| {
                    self.evaluate_many(specs)
                        .into_iter()
                        .map(Arc::new)
                        .collect()
                })
                .collect();
        }
        let requests: Vec<ShardRequest> = chunks
            .iter()
            .map(|specs| ShardRequest::EvaluateBatch {
                backend: self.name.clone(),
                specs: specs.clone(),
            })
            .collect();
        match self
            .pool
            .ensure_hello()
            .and_then(|()| self.pool.exchange_burst(&requests))
        {
            Ok(responses) => responses
                .into_iter()
                .zip(chunks)
                .map(|(response, specs)| self.batch_results(Ok(response), specs.len()))
                .collect(),
            Err(error) => {
                let error = self.transport_error(&error);
                chunks
                    .iter()
                    .map(|specs| self.batch_results(Err(error.clone()), specs.len()))
                    .collect()
            }
        }
    }
}
