//! Bounded per-shard connection pooling for the remote backend layer.
//!
//! Before this module every remote evaluation paid a fresh TCP connect and
//! a full exchange set-up — simple and parallel-safe, but a per-call
//! handshake tax on the serving hot path.  A [`ConnectionPool`] amortises
//! that tax: framed connections to one shard address are kept idle between
//! exchanges and handed out again, bounded by
//! [`RemoteConfig::pool_size`](crate::config::RemoteConfig::pool_size).
//!
//! # Invariants
//!
//! * **Health-checked checkout** — an idle connection is probed before
//!   reuse (a closed or desynchronised socket is discarded, never handed
//!   out), so a shard restart between exchanges costs one re-dial, not an
//!   error.
//! * **Poison-free check-in** — a connection returns to the pool only
//!   after a fully clean exchange (frame written, response frame read and
//!   decoded, not a protocol rejection).  Any transport error discards the
//!   connection on the spot.
//! * **One retry over a fresh dial** — an exchange that fails on a
//!   *reused* connection is retried exactly once on a freshly dialled one
//!   (the shard may have legitimately reaped the idle connection).
//!   Evaluations are deterministic and side-effect-free, so the retry is
//!   idempotent; a failure on a fresh connection is a genuine shard
//!   failure and surfaces immediately.
//! * **Bounded** — at most `pool_size` idle connections are retained;
//!   a `pool_size` of zero disables pooling entirely (every exchange
//!   dials, the pre-pool behaviour, kept measurable for the serve
//!   benchmark's pooled-vs-unpooled comparison).
//!
//! The pool also owns the handshake state: the `hello` exchange checks
//! that the shard speaks exactly [`PROTOCOL_VERSION`] (any other version
//! fails the handshake with a mismatch error) and records the credit
//! window it advertises.  Because the state lives on the pool — not on
//! individual connections — it survives connection check-in and is shared
//! by every [`RemoteBackend`](crate::remote::RemoteBackend) routed through
//! this shard address.

use crate::binary::ConnCodec;
use crate::config::{EncodingPolicy, RemoteConfig, TransportPolicy};
use crate::reactor::Multiplexer;
use crate::shm::{RingConn, Segment};
use crate::stats::PoolStats;
use crate::wire::{
    read_response_frame_dict, write_request_frame_dict, ShardRequest, ShardResponse, WireEncoding,
    WireError, PROTOCOL_VERSION,
};
use std::cell::RefCell;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

thread_local! {
    /// Per-thread frame scratch: binary images are built here and received
    /// payloads land here, so the steady-state exchange path allocates no
    /// per-frame buffers (the buffer grows once to the working-set frame
    /// size and is reused).
    static FRAME_SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
    /// Per-thread burst buffer: a coalesced exchange's frames are laid out
    /// contiguously here so the whole burst leaves in one write.
    static BURST_SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Per-pool memory of whether this shard's connections can ride a
/// shared-memory ring, so only the first dial pays the probing hello
/// against a shard that will never offer one.
const RING_UNKNOWN: u64 = 0;
const RING_AVAILABLE: u64 = 1;
const RING_REFUSED: u64 = 2;

/// One pooled connection: a transport plus its per-connection symbol
/// dictionaries.  The codec rides with the connection through check-in
/// and checkout — whichever thread holds the connection holds its tables,
/// and dropping the connection drops them (fresh connections always start
/// from empty tables).
#[derive(Debug)]
struct PooledConn {
    transport: Transport,
    codec: ConnCodec,
}

impl PooledConn {
    fn tcp(stream: TcpStream) -> Self {
        Self {
            transport: Transport::Tcp(stream),
            codec: ConnCodec::new(),
        }
    }

    fn ring(conn: Box<RingConn>) -> Self {
        Self {
            transport: Transport::Ring(conn),
            codec: ConnCodec::new(),
        }
    }
}

/// The byte channel of one pooled connection: either a plain framed TCP
/// stream, or a negotiated shared-memory ring pair (with its TCP stream
/// demoted to the liveness channel — see [`crate::shm`]).  Both speak
/// identical frames, so the exchange paths are transport-blind.
#[derive(Debug)]
enum Transport {
    Tcp(TcpStream),
    Ring(Box<RingConn>),
}

impl Transport {
    fn is_ring(&self) -> bool {
        matches!(self, Transport::Ring(_))
    }

    /// Bounds the time the next response reads may take.
    fn set_read_budget(&mut self, budget: Duration) -> Result<(), WireError> {
        match self {
            Transport::Tcp(stream) => stream.set_read_timeout(Some(budget)).map_err(WireError::Io),
            Transport::Ring(conn) => {
                conn.set_read_budget(budget);
                Ok(())
            }
        }
    }

    /// Whether an *idle* connection is healthy enough to hand out again:
    /// live peer, no unconsumed bytes (leftovers mean desynchronisation).
    fn is_idle_and_live(&self) -> bool {
        match self {
            Transport::Tcp(stream) => connection_is_idle_and_live(stream),
            Transport::Ring(conn) => {
                if conn.is_desynchronised() {
                    return false;
                }
                // The liveness socket is permanently non-blocking; a
                // healthy idle peer has nothing to say on it.
                let mut probe = [0u8; 1];
                matches!(
                    conn.stream().peek(&mut probe),
                    Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock
                )
            }
        }
    }
}

impl Read for Transport {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Transport::Tcp(stream) => stream.read(buf),
            Transport::Ring(conn) => conn.read(buf),
        }
    }
}

impl Write for Transport {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Transport::Tcp(stream) => stream.write(buf),
            Transport::Ring(conn) => conn.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Transport::Tcp(stream) => stream.flush(),
            Transport::Ring(conn) => conn.flush(),
        }
    }
}

/// Lock-free transport counters of one shard pool, surfaced through
/// [`ServiceStats::remote_pools`](crate::ServiceStats::remote_pools).
#[derive(Debug, Default)]
pub(crate) struct PoolCounters {
    /// Connections requested from the pool (one per exchange).
    pub checkouts: AtomicU64,
    /// Checkouts served by a healthy idle connection (no dial paid).
    pub reused: AtomicU64,
    /// Fresh TCP dials (pool empty, pooling disabled, or retry).
    pub dials: AtomicU64,
    /// Of those dials, how many were the retry of an exchange that failed
    /// on a reused connection.
    pub redials: AtomicU64,
    /// Idle connections found dead (or desynchronised) at checkout and
    /// thrown away.
    pub discarded: AtomicU64,
    /// `evaluate_batch` exchanges sent (one frame per micro-batch).
    pub pipelined_batches: AtomicU64,
    /// Specs carried by those exchanges (`pipelined_specs /
    /// pipelined_batches` is the achieved pipeline depth).
    pub pipelined_specs: AtomicU64,
    /// Bytes put on the wire by this pool (length prefixes included).
    pub bytes_sent: AtomicU64,
    /// Bytes taken off the wire by this pool (length prefixes included).
    pub bytes_received: AtomicU64,
    /// Request frames that shared a coalesced burst write with at least
    /// one other frame (bursts of one count nothing).
    pub frames_coalesced: AtomicU64,
    /// Exchanges whose frames rode a shared-memory ring instead of the
    /// socket.
    pub ring_exchanges: AtomicU64,
    /// Times a reactor thread driving this pool's multiplexed connection
    /// was woken (socket readiness or a submitter's wake byte).
    pub reactor_wakeups: AtomicU64,
    /// High-water mark of requests in flight on one multiplexed
    /// connection; stays zero against strict-FIFO (threads front end)
    /// shards.
    pub inflight_per_conn: AtomicU64,
    /// Labels defined into symbol dictionaries on this pool's
    /// connections (both directions).
    pub dict_defines: AtomicU64,
    /// Label occurrences resolved through those dictionaries instead of
    /// re-sending string bytes (both directions).
    pub dict_hits: AtomicU64,
}

impl PoolCounters {
    /// Raises `inflight_per_conn` to `depth` if it is the new high water.
    pub fn note_inflight(&self, depth: u64) {
        self.inflight_per_conn.fetch_max(depth, Ordering::Relaxed);
    }

    /// Folds drained symbol-dictionary counters in (see
    /// [`ConnCodec::take_counts`]).
    pub fn note_dict(&self, defines: u64, hits: u64) {
        if defines != 0 {
            self.dict_defines.fetch_add(defines, Ordering::Relaxed);
        }
        if hits != 0 {
            self.dict_hits.fetch_add(hits, Ordering::Relaxed);
        }
    }
}

/// A bounded pool of framed connections to one shard server address.
///
/// Shared (via `Arc`) by every [`RemoteBackend`](crate::remote::RemoteBackend)
/// pointing at the same shard, so concurrent evaluations across backends
/// reuse one warm connection set instead of keeping one per backend.
#[derive(Debug)]
pub struct ConnectionPool {
    addr: String,
    config: RemoteConfig,
    idle: Mutex<Vec<PooledConn>>,
    counters: Arc<PoolCounters>,
    /// The shard's protocol version once a `hello` has succeeded (always
    /// [`PROTOCOL_VERSION`]); 0 before.
    protocol: AtomicU64,
    /// Credit window the shard advertised in `hello`; 0 until negotiated,
    /// and stays 0 against strict-FIFO shards.
    window: AtomicU64,
    /// Whether this shard offers ring segments (one of the `RING_*`
    /// states), learned on the first ring-eligible dial.
    ring_state: AtomicU64,
    /// The multiplexed connection, once one has been established (windowed
    /// shard, binary encoding, no ring).  Poisoned (`None`) again on transport
    /// failure so the next exchange re-dials.
    mux: Mutex<Option<Arc<Multiplexer>>>,
    /// Monotonic exchange ids (diagnostic only — exchanges on one
    /// connection are strictly sequential).
    next_id: AtomicU64,
}

impl ConnectionPool {
    /// A pool for `addr` with the given transport tuning.
    pub fn new(addr: &str, config: RemoteConfig) -> Self {
        Self {
            addr: addr.to_string(),
            config,
            idle: Mutex::new(Vec::new()),
            counters: Arc::new(PoolCounters::default()),
            protocol: AtomicU64::new(0),
            window: AtomicU64::new(0),
            ring_state: AtomicU64::new(RING_UNKNOWN),
            mux: Mutex::new(None),
            next_id: AtomicU64::new(1),
        }
    }

    /// The shard server address this pool dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The pool's transport tuning.
    pub fn config(&self) -> &RemoteConfig {
        &self.config
    }

    /// The shard's protocol version (`None` before a `hello` has
    /// succeeded; afterwards always [`PROTOCOL_VERSION`]).
    pub fn protocol(&self) -> Option<u64> {
        match self.protocol.load(Ordering::Acquire) {
            0 => None,
            version => Some(version),
        }
    }

    /// The per-connection credit window the shard advertised (`None` until
    /// a `hello` has answered, or when the shard never offered one —
    /// advertising a window is the shard's "multiplexing is on" signal).
    pub fn window(&self) -> Option<u64> {
        match self.window.load(Ordering::Acquire) {
            0 => None,
            credits => Some(credits),
        }
    }

    /// Whether exchanges on this pool may ride one multiplexed
    /// connection: the shard advertised a window, the frames are binary
    /// (response ids route replies without a JSON parse per peek), and no
    /// shared-memory ring won the transport negotiation (rings already
    /// beat sockets; multiplexing them is future work).
    fn mux_eligible(&self) -> bool {
        self.window().is_some()
            && matches!(
                self.frame_encoding(),
                WireEncoding::Binary | WireEncoding::BinaryDict
            )
            && self.ring_state.load(Ordering::Acquire) != RING_AVAILABLE
            && self.config.pool_size > 0
    }

    /// The encoding the next frame to this shard should use.  After a
    /// successful `hello` it follows the configured [`EncodingPolicy`]
    /// alone; before one, `Auto` sends JSON and `Binary` plain binary (a
    /// dictionary frame needs a handshake first).
    pub fn frame_encoding(&self) -> WireEncoding {
        let handshook = self.protocol().is_some();
        match self.config.encoding {
            EncodingPolicy::Json => WireEncoding::Json,
            // The debugging escape hatch: plain binary, so dictionary
            // suspicion can be ruled out per pool.
            EncodingPolicy::BinaryNodict => WireEncoding::Binary,
            EncodingPolicy::Auto | EncodingPolicy::Binary if handshook => WireEncoding::BinaryDict,
            EncodingPolicy::Binary => WireEncoding::Binary,
            EncodingPolicy::Auto => WireEncoding::Json,
        }
    }

    /// Idle connections currently parked in the pool.
    pub fn idle_connections(&self) -> usize {
        self.idle.lock().expect("pool idle lock").len()
    }

    /// A point-in-time snapshot of the pool's transport counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            addr: self.addr.clone(),
            checkouts: self.counters.checkouts.load(Ordering::Relaxed),
            reused: self.counters.reused.load(Ordering::Relaxed),
            dials: self.counters.dials.load(Ordering::Relaxed),
            redials: self.counters.redials.load(Ordering::Relaxed),
            discarded: self.counters.discarded.load(Ordering::Relaxed),
            pipelined_batches: self.counters.pipelined_batches.load(Ordering::Relaxed),
            pipelined_specs: self.counters.pipelined_specs.load(Ordering::Relaxed),
            bytes_sent: self.counters.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.counters.bytes_received.load(Ordering::Relaxed),
            frames_coalesced: self.counters.frames_coalesced.load(Ordering::Relaxed),
            ring_exchanges: self.counters.ring_exchanges.load(Ordering::Relaxed),
            reactor_wakeups: self.counters.reactor_wakeups.load(Ordering::Relaxed),
            inflight_per_conn: self.counters.inflight_per_conn.load(Ordering::Relaxed),
            dict_defines: self.counters.dict_defines.load(Ordering::Relaxed),
            dict_hits: self.counters.dict_hits.load(Ordering::Relaxed),
        }
    }

    /// Performs the `hello` handshake and returns the hosted backend names
    /// in registration order.  A shard of another protocol version fails
    /// it with a mismatch error naming both versions.  Any ring offer in
    /// the answer belongs to the connection that carried the exchange;
    /// rings are negotiated per connection at dial time, so it is ignored
    /// here.
    pub fn hello(&self) -> Result<Vec<String>, WireError> {
        let response = self.exchange(&ShardRequest::Hello {
            protocol: PROTOCOL_VERSION,
        })?;
        self.accept_hello(response).map(|(names, _ring)| names)
    }

    /// Performs the `hello` handshake unless one has already succeeded —
    /// how clients built without a construction-time handshake negotiate
    /// on first use.
    pub(crate) fn ensure_hello(&self) -> Result<(), WireError> {
        if self.protocol().is_none() {
            self.hello()?;
        }
        Ok(())
    }

    /// Checks a `hello` answer and records the handshake: the shard's
    /// version must equal ours.  Returns the hosted names and the ring
    /// offer.
    fn accept_hello(
        &self,
        response: ShardResponse,
    ) -> Result<(Vec<String>, Option<String>), WireError> {
        match response {
            ShardResponse::Backends {
                names,
                protocol,
                ring,
                window,
            } => {
                if protocol != PROTOCOL_VERSION {
                    return Err(WireError::ProtocolMismatch(protocol));
                }
                self.protocol.store(protocol, Ordering::Release);
                self.window.store(window.unwrap_or(0), Ordering::Release);
                Ok((names, ring))
            }
            ShardResponse::Rejected(message) => Err(WireError::Rejected(message)),
            _ => Err(WireError::Rejected(
                "shard answered hello with an unexpected payload".to_string(),
            )),
        }
    }

    /// Records one pipelined micro-batch exchange of `specs` specs in the
    /// pool counters.
    pub(crate) fn count_pipelined(&self, specs: usize) {
        self.counters
            .pipelined_batches
            .fetch_add(1, Ordering::Relaxed);
        self.counters
            .pipelined_specs
            .fetch_add(specs as u64, Ordering::Relaxed);
    }

    /// One request/response exchange over a pooled connection.
    ///
    /// Checkout (reuse or dial), write the frame, read and decode the
    /// response, check the connection back in on clean success.  An
    /// exchange that fails on a *reused* connection is retried once over a
    /// fresh dial (see module docs for why that is safe); every other
    /// failure surfaces immediately.
    pub fn exchange(&self, request: &ShardRequest) -> Result<ShardResponse, WireError> {
        self.counters.checkouts.fetch_add(1, Ordering::Relaxed);
        if let Some(mux) = self.mux_handle() {
            match mux.exchange(request, self.read_budget_for(request)) {
                Ok(response) => {
                    self.counters.reused.fetch_add(1, Ordering::Relaxed);
                    return Ok(response);
                }
                // A dead multiplexed connection degrades to the plain
                // pooled path below (which dials fresh) — same story as a
                // reaped idle connection.
                Err(_) => {
                    self.poison_mux(&mux);
                    self.counters.redials.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if let Some(conn) = self.checkout_idle() {
            match self.exchange_on(conn, request) {
                Ok(response) => {
                    // Counted only on success: a checkout whose reused
                    // connection turned out stale pays a redial below and
                    // must not also inflate the reuse ratio.
                    self.counters.reused.fetch_add(1, Ordering::Relaxed);
                    return Ok(response);
                }
                Err(_) => {
                    // The shard may have reaped this idle connection;
                    // retry exactly once on a fresh dial.
                    self.counters.redials.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let conn = self.dial()?;
        self.exchange_on(conn, request)
    }

    /// Sends several requests as **one** coalesced burst over one pooled
    /// connection — all frames laid out contiguously and written together,
    /// then every response read back in request order — so a multi-chunk
    /// hand-off from a serving worker pays one transport round trip instead
    /// of one per chunk.  Retry semantics match [`exchange`](Self::exchange):
    /// a burst that fails on a reused connection is retried once over a
    /// fresh dial (evaluations are idempotent).
    pub fn exchange_burst(
        &self,
        requests: &[ShardRequest],
    ) -> Result<Vec<ShardResponse>, WireError> {
        match requests.len() {
            0 => return Ok(Vec::new()),
            // A burst of one is a plain exchange (and is not counted as
            // coalesced — nothing shared a write).
            1 => return self.exchange(&requests[0]).map(|response| vec![response]),
            _ => {}
        }
        self.counters.checkouts.fetch_add(1, Ordering::Relaxed);
        if let Some(mux) = self.mux_handle() {
            let budget = requests
                .iter()
                .map(|request| self.read_budget_for(request))
                .fold(Duration::ZERO, Duration::saturating_add);
            match mux.exchange_burst(requests, budget) {
                Ok(responses) => {
                    self.counters.reused.fetch_add(1, Ordering::Relaxed);
                    self.counters
                        .frames_coalesced
                        .fetch_add(requests.len() as u64, Ordering::Relaxed);
                    return Ok(responses);
                }
                Err(_) => {
                    self.poison_mux(&mux);
                    self.counters.redials.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if let Some(conn) = self.checkout_idle() {
            match self.burst_on(conn, requests) {
                Ok(responses) => {
                    self.counters.reused.fetch_add(1, Ordering::Relaxed);
                    return Ok(responses);
                }
                Err(_) => {
                    self.counters.redials.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let conn = self.dial()?;
        self.burst_on(conn, requests)
    }

    /// The pool's live multiplexed connection, dialling one on first use.
    /// `None` when multiplexing is not negotiated (no window, JSON
    /// encoding, a ring in play) or the dial fails — callers then take the
    /// plain pooled path, so a mux setback never fails an exchange.
    fn mux_handle(&self) -> Option<Arc<Multiplexer>> {
        if !self.mux_eligible() {
            return None;
        }
        let mut slot = self.mux.lock().expect("pool mux lock");
        if let Some(mux) = slot.as_ref() {
            if mux.is_healthy() {
                return Some(Arc::clone(mux));
            }
            *slot = None;
        }
        let stream = self.dial_tcp().ok()?;
        self.counters.dials.fetch_add(1, Ordering::Relaxed);
        let mux = Arc::new(
            Multiplexer::start(
                stream,
                self.window()?,
                self.frame_encoding(),
                Arc::clone(&self.counters),
                self.config.io_timeout,
            )
            .ok()?,
        );
        *slot = Some(Arc::clone(&mux));
        Some(mux)
    }

    /// Drops the pool's multiplexed connection if `dead` is still the one
    /// installed (a racing thread may already have replaced it).
    fn poison_mux(&self, dead: &Arc<Multiplexer>) {
        let mut slot = self.mux.lock().expect("pool mux lock");
        if slot.as_ref().is_some_and(|m| Arc::ptr_eq(m, dead)) {
            *slot = None;
        }
    }

    /// Pops the first *healthy* idle connection, discarding dead ones.
    fn checkout_idle(&self) -> Option<PooledConn> {
        loop {
            let candidate = self.idle.lock().expect("pool idle lock").pop()?;
            if candidate.transport.is_idle_and_live() {
                return Some(candidate);
            }
            self.counters.discarded.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Dials a fresh connection with the configured timeouts, negotiating
    /// a shared-memory ring for it when the transport policy allows and
    /// the shard offers one.
    fn dial(&self) -> Result<PooledConn, WireError> {
        self.counters.dials.fetch_add(1, Ordering::Relaxed);
        let stream = self.dial_tcp()?;
        // Ring upgrade is only worth a probing hello on connections that
        // will live in the pool; the unpooled configuration keeps its
        // dial-per-exchange meaning (and the benchmark its baseline).
        if self.config.transport == TransportPolicy::Socket
            || self.config.pool_size == 0
            || self.ring_state.load(Ordering::Acquire) == RING_REFUSED
        {
            return Ok(PooledConn::tcp(stream));
        }
        self.negotiate_ring(stream)
    }

    /// One configured TCP connect: resolve, dial with the connect timeout,
    /// arm the I/O timeouts, disable Nagle.
    ///
    /// Frames are small and every exchange is write→read: without
    /// TCP_NODELAY, Nagle holds the second and later exchanges of a
    /// *reused* connection hostage to the peer's delayed ACK (~40 ms a
    /// round trip) — the one pathology connect-per-call never saw, because
    /// a fresh socket has no unacknowledged data.
    fn dial_tcp(&self) -> Result<TcpStream, WireError> {
        let resolved = self.addr.to_socket_addrs()?.next().ok_or_else(|| {
            WireError::Io(std::io::Error::new(
                std::io::ErrorKind::AddrNotAvailable,
                format!("`{}` resolves to no address", self.addr),
            ))
        })?;
        let stream = TcpStream::connect_timeout(&resolved, self.config.connect_timeout)?;
        stream.set_read_timeout(Some(self.config.io_timeout))?;
        stream.set_write_timeout(Some(self.config.io_timeout))?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// One hello on the fresh connection: checks the shard's protocol and,
    /// when a ring segment is offered, maps it and upgrades the connection.
    /// No offer, or a segment that will not map, keeps the plain socket;
    /// transport failures and a failed handshake propagate.
    fn negotiate_ring(&self, mut stream: TcpStream) -> Result<PooledConn, WireError> {
        let hello = ShardRequest::Hello {
            protocol: PROTOCOL_VERSION,
        };
        let offer = self.round_trip(&mut stream, &mut ConnCodec::new(), &hello)?;
        let (_names, ring) = self.accept_hello(offer)?;
        let Some(path) = ring else {
            self.ring_state.store(RING_REFUSED, Ordering::Release);
            return Ok(PooledConn::tcp(stream));
        };
        match Segment::open(Path::new(&path)) {
            Ok(segment) => match RingConn::new(stream, &segment, self.config.io_timeout) {
                Ok(conn) => {
                    self.ring_state.store(RING_AVAILABLE, Ordering::Release);
                    Ok(PooledConn::ring(Box::new(conn)))
                }
                Err(e) => Err(WireError::Io(e)),
            },
            // Different filesystem namespace, permissions, or a corrupt
            // segment: fall back to the socket (and stop probing).
            Err(_) => {
                self.ring_state.store(RING_REFUSED, Ordering::Release);
                Ok(PooledConn::tcp(stream))
            }
        }
    }

    /// The response-read budget of one request: `io_timeout`, scaled by
    /// the spec count for `evaluate_batch` exchanges, since the shard
    /// evaluates the whole batch before its single answer frame.
    fn read_budget_for(&self, request: &ShardRequest) -> Duration {
        match request {
            ShardRequest::EvaluateBatch { specs, .. } => self
                .config
                .io_timeout
                .saturating_mul(specs.len().max(1).min(u32::MAX as usize) as u32),
            _ => self.config.io_timeout,
        }
    }

    /// Runs one framed exchange on `conn`; on clean success the connection
    /// goes back to the pool, on any failure (or protocol rejection) it is
    /// dropped.
    fn exchange_on(
        &self,
        mut conn: PooledConn,
        request: &ShardRequest,
    ) -> Result<ShardResponse, WireError> {
        conn.transport
            .set_read_budget(self.read_budget_for(request))?;
        let response = self.round_trip(&mut conn.transport, &mut conn.codec, request)?;
        if conn.transport.is_ring() {
            self.counters.ring_exchanges.fetch_add(1, Ordering::Relaxed);
        }
        // A protocol-level rejection may leave the server about to close
        // the connection (framing failures do); never pool it.
        if !matches!(response, ShardResponse::Rejected(_)) {
            self.checkin(conn);
        }
        Ok(response)
    }

    /// Writes one request frame and reads its response over `transport`,
    /// counting the bytes and the dictionary activity of `codec` in the
    /// pool counters.
    fn round_trip(
        &self,
        transport: &mut (impl Read + Write),
        codec: &mut ConnCodec,
        request: &ShardRequest,
    ) -> Result<ShardResponse, WireError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let encoding = self.frame_encoding();
        let result = FRAME_SCRATCH.with(|cell| {
            let scratch = &mut cell.borrow_mut();
            let sent =
                write_request_frame_dict(transport, id, request, encoding, scratch, &mut codec.tx)?;
            self.counters.bytes_sent.fetch_add(sent, Ordering::Relaxed);
            let (_, response, received) =
                read_response_frame_dict(transport, scratch, &mut codec.rx)?.ok_or_else(|| {
                    WireError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "shard closed the connection before answering",
                    ))
                })?;
            self.counters
                .bytes_received
                .fetch_add(received, Ordering::Relaxed);
            Ok(response)
        });
        // Drain on every outcome — a failed exchange's defines are still
        // real table entries the peer may reference.
        let (defines, hits) = codec.take_counts();
        self.counters.note_dict(defines, hits);
        result
    }

    /// Runs a coalesced burst on `conn`: every request frame in one
    /// contiguous write, every response read back in request order (ids
    /// are verified — an out-of-order shard is a desynchronised one).
    fn burst_on(
        &self,
        mut conn: PooledConn,
        requests: &[ShardRequest],
    ) -> Result<Vec<ShardResponse>, WireError> {
        let budget = requests
            .iter()
            .map(|request| self.read_budget_for(request))
            .fold(Duration::ZERO, Duration::saturating_add);
        conn.transport.set_read_budget(budget)?;
        let first_id = self
            .next_id
            .fetch_add(requests.len() as u64, Ordering::Relaxed);
        let encoding = self.frame_encoding();
        let result = FRAME_SCRATCH.with(|cell| {
            let scratch = &mut cell.borrow_mut();
            BURST_SCRATCH.with(|burst_cell| {
                let burst = &mut burst_cell.borrow_mut();
                burst.clear();
                for (offset, request) in requests.iter().enumerate() {
                    write_request_frame_dict(
                        &mut **burst,
                        first_id + offset as u64,
                        request,
                        encoding,
                        scratch,
                        &mut conn.codec.tx,
                    )?;
                }
                conn.transport.write_all(burst)?;
                conn.transport.flush()?;
                self.counters
                    .bytes_sent
                    .fetch_add(burst.len() as u64, Ordering::Relaxed);
                Ok::<(), WireError>(())
            })?;
            let mut responses = Vec::with_capacity(requests.len());
            for offset in 0..requests.len() as u64 {
                let (id, response, received) =
                    read_response_frame_dict(&mut conn.transport, scratch, &mut conn.codec.rx)?
                        .ok_or_else(|| {
                            WireError::Io(std::io::Error::new(
                                std::io::ErrorKind::UnexpectedEof,
                                "shard closed the connection mid-burst",
                            ))
                        })?;
                self.counters
                    .bytes_received
                    .fetch_add(received, Ordering::Relaxed);
                if id != first_id + offset {
                    return Err(WireError::Rejected(format!(
                        "shard answered burst frame {} with id {id}",
                        first_id + offset
                    )));
                }
                responses.push(response);
            }
            Ok::<Vec<ShardResponse>, WireError>(responses)
        });
        let (defines, hits) = conn.codec.take_counts();
        self.counters.note_dict(defines, hits);
        let responses = result?;
        self.counters
            .frames_coalesced
            .fetch_add(requests.len() as u64, Ordering::Relaxed);
        if conn.transport.is_ring() {
            self.counters
                .ring_exchanges
                .fetch_add(requests.len() as u64, Ordering::Relaxed);
        }
        if responses
            .iter()
            .all(|response| !matches!(response, ShardResponse::Rejected(_)))
        {
            self.checkin(conn);
        }
        Ok(responses)
    }

    /// Returns a connection to the pool, bounded by the configured size.
    fn checkin(&self, conn: PooledConn) {
        let mut idle = self.idle.lock().expect("pool idle lock");
        if idle.len() < self.config.pool_size {
            idle.push(conn);
        }
        // Over the bound (or pool_size 0): drop, closing the transport.
    }
}

/// Probes an idle pooled connection: healthy means "no pending bytes, no
/// error" — a non-blocking 1-byte peek must say `WouldBlock`.  `Ok(0)` is
/// the peer's FIN (a reaped or restarted shard), `Ok(_)` is a protocol
/// desynchronisation (the peer sent bytes we never asked for); both make
/// the connection unusable.
fn connection_is_idle_and_live(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let mut probe = [0u8; 1];
    let mut live = false;
    // Retry a signal-interrupted peek exactly once: `EINTR` says nothing
    // about the socket's health, only that a signal landed mid-syscall.
    for attempt in 0..2 {
        live = match stream.peek(&mut probe) {
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => true,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted && attempt == 0 => continue,
            _ => false,
        };
        break;
    }
    // Restore blocking mode on *every* verdict — a connection handed out
    // still in nonblocking mode would turn its next exchange's reads into
    // spurious `WouldBlock` transport errors.  A healthy probe whose mode
    // restore fails is unusable too.
    let restored = stream.set_nonblocking(false).is_ok();
    live && restored
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// A raw canned-answer peer: accepts connections, answers a `hello`
    /// as a current-version shard without a ring offer and every other frame with
    /// `supported: true`, counting connections accepted.
    fn rejecting_peer() -> (String, std::sync::Arc<AtomicU64>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind peer");
        let addr = listener.local_addr().expect("peer addr").to_string();
        let accepted = std::sync::Arc::new(AtomicU64::new(0));
        let count = std::sync::Arc::clone(&accepted);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { break };
                count.fetch_add(1, Ordering::SeqCst);
                std::thread::spawn(move || {
                    let mut prefix = [0u8; 4];
                    while stream.read_exact(&mut prefix).is_ok() {
                        let len = u32::from_be_bytes(prefix) as usize;
                        let mut payload = vec![0u8; len];
                        if stream.read_exact(&mut payload).is_err() {
                            return;
                        }
                        let hello = payload.windows(7).any(|w| w == b"\"hello\"");
                        let body = if hello {
                            format!(
                                r#"{{"id": 0, "ok": true, "backends": [], "protocol": {PROTOCOL_VERSION}}}"#
                            )
                        } else {
                            r#"{"id": 0, "ok": true, "supported": true}"#.to_string()
                        };
                        let frame_len = (body.len() as u32).to_be_bytes();
                        if stream.write_all(&frame_len).is_err()
                            || stream.write_all(body.as_bytes()).is_err()
                        {
                            return;
                        }
                    }
                });
            }
        });
        (addr, accepted)
    }

    fn probe_request() -> ShardRequest {
        ShardRequest::Supports {
            backend: "any".to_string(),
            spec: rsn_eval::WorkloadSpec::PowerBreakdown,
        }
    }

    #[test]
    fn pooled_exchanges_reuse_one_connection() {
        let (addr, accepted) = rejecting_peer();
        let pool = ConnectionPool::new(&addr, RemoteConfig::default());
        for _ in 0..5 {
            let response = pool.exchange(&probe_request()).expect("exchange");
            assert_eq!(response, ShardResponse::Supported(true));
        }
        let stats = pool.stats();
        assert_eq!(accepted.load(Ordering::SeqCst), 1, "one dial serves all");
        assert_eq!(stats.checkouts, 5);
        assert_eq!(stats.dials, 1);
        assert_eq!(stats.reused, 4);
        assert_eq!(stats.redials, 0);
        assert_eq!(pool.idle_connections(), 1);
    }

    #[test]
    fn pool_size_zero_dials_every_exchange() {
        let (addr, accepted) = rejecting_peer();
        let pool = ConnectionPool::new(
            &addr,
            RemoteConfig {
                pool_size: 0,
                ..RemoteConfig::default()
            },
        );
        for _ in 0..3 {
            pool.exchange(&probe_request()).expect("exchange");
        }
        // Give the peer threads a beat to register the accepts.
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(accepted.load(Ordering::SeqCst), 3);
        let stats = pool.stats();
        assert_eq!(stats.dials, 3);
        assert_eq!(stats.reused, 0);
        assert_eq!(pool.idle_connections(), 0);
    }

    #[test]
    fn dead_idle_connections_are_discarded_then_redialled() {
        let (addr, _accepted) = rejecting_peer();
        let pool = ConnectionPool::new(&addr, RemoteConfig::default());
        pool.exchange(&probe_request()).expect("warm the pool");
        assert_eq!(pool.idle_connections(), 1);
        // Sabotage the idle connection from our side: close it so the
        // health probe sees a dead socket at the next checkout.
        {
            let idle = pool.idle.lock().expect("idle lock");
            match &idle[0].transport {
                Transport::Tcp(stream) => stream
                    .shutdown(std::net::Shutdown::Both)
                    .expect("shutdown idle conn"),
                Transport::Ring(_) => unreachable!("the test peer never offers a ring"),
            }
        }
        let response = pool.exchange(&probe_request()).expect("exchange survives");
        assert_eq!(response, ShardResponse::Supported(true));
        let stats = pool.stats();
        assert_eq!(stats.discarded + stats.redials, 1, "dead conn was noticed");
        assert_eq!(stats.dials, 2, "a fresh dial replaced it");
        assert_eq!(pool.idle_connections(), 1, "the pool refilled");
    }

    #[test]
    fn unreachable_address_fails_with_io_error_not_a_hang() {
        // A bound-then-dropped listener: nobody is listening there now.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr").to_string()
        };
        let pool = ConnectionPool::new(
            &addr,
            RemoteConfig {
                connect_timeout: std::time::Duration::from_millis(500),
                ..RemoteConfig::default()
            },
        );
        let started = std::time::Instant::now();
        match pool.exchange(&probe_request()) {
            Err(WireError::Io(_)) => {}
            other => panic!("expected an I/O error, got {other:?}"),
        }
        assert!(started.elapsed() < std::time::Duration::from_secs(5));
        assert_eq!(pool.stats().dials, 1);
    }
}
