//! Nonblocking event-loop front ends for the shard wire: a hand-rolled
//! `epoll` reactor (with a portable `poll` fallback) serving every shard
//! connection from one thread, and the client-side `Multiplexer` that
//! keeps many requests in flight on one connection.
//!
//! # Why a reactor
//!
//! The thread-per-connection front end in [`crate::remote`] is simple and
//! strictly FIFO: each connection's serving thread blocks in `read`, so a
//! slow evaluation at the head of a connection stalls everything queued
//! behind it, and a thousand idle pooled connections pin a thousand
//! threads.  The reactor inverts that: every connection is a small state
//! machine stepped by readiness events, evaluations run through the
//! service's worker pools via completion callbacks, and responses leave in
//! *completion* order — clients match them back up by request id.
//!
//! ```text
//!             ┌───────────── reactor thread ──────────────┐
//!   accept ──►│ tokens: listener │ wake pipe │ conns…     │
//!             └────┬──────────────────────────────┬───────┘
//!    epoll/poll    │ socket readable              │ completion queue
//!                  ▼                              ▼
//!             ┌─ per-connection state machine ────────────┐
//!             │ READ   FrameBuffer::fill → take_frame     │
//!             │        hello/supports/stats/cancel inline │
//!             │        evaluate → submit_batch_callback   │
//!             │ DONE   encode → out buffer (held for      │
//!             │        FIFO order without a hello)        │
//!             │ WRITE  drain out; partial ⇒ want-write    │
//!             └───────────────────────────────────────────┘
//! ```
//!
//! # Multiplexing
//!
//! A client whose `hello` carries this build's [`PROTOCOL_VERSION`] is
//! answered with a credit `window`: the shard will accept up to that many
//! request frames in flight on the connection, answers them in completion
//! order, and honours `cancel` frames (the slot frees, the eventual stale
//! response is suppressed).  A `hello` of any other version is rejected with a
//! protocol-mismatch error.  A connection that never sent a matching
//! `hello` — a blocking pool connection with `pool_size = 0`, or a JSON
//! burst — keeps the strict FIFO contract: the reactor holds out-of-order
//! completions and releases them in request order, byte-identically to
//! the blocking front end.
//!
//! The reactor never offers shared-memory rings (a ring's busy-poll
//! consumer has no place on an event loop); same-host deployments that
//! want rings should stay on `--frontend threads`.
//!
//! # Backpressure
//!
//! Credits are enforced on the server by *not reading*: once a multiplexed
//! connection has `window` evaluations in flight, its frames stay in the
//! kernel socket buffer (read interest is dropped) until a completion
//! frees a slot — TCP flow control pushes back to the client, whose own
//! `Multiplexer` blocks submitters on the same window.

use crate::binary::{ConnCodec, RxSymbols, TxSymbols};
use crate::config::EncodingPolicy;
use crate::pool::PoolCounters;
use crate::request::{BackendSelector, EvalResponse, Priority};
use crate::service::EvalService;
use crate::wire::{
    decode_request_payload_dict, decode_response_payload_dict, protocol_mismatch,
    write_request_frame_dict, write_response_frame, write_response_frame_dict, FrameBuffer,
    ShardRequest, ShardResponse, SharedResult, WireEncoding, WireError, PROTOCOL_VERSION,
};
use rsn_eval::EvalError;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Request frames a multiplexed connection may have in flight before the
/// reactor stops reading it (and the client [`Multiplexer`] blocks
/// submitters).  Large enough to keep a shard's worker pools saturated
/// from one connection, small enough that one greedy connection cannot
/// monopolise the completion queue.
pub(crate) const CREDIT_WINDOW: u64 = 32;

// ---------------------------------------------------------------------------
// Raw readiness syscalls.  The std net surface has no readiness API, and
// this crate adds no dependencies, so the handful of calls the event loop
// needs are declared directly (std already links libc on every supported
// target) — the same approach `crate::shm` takes for `mmap`.
// ---------------------------------------------------------------------------

mod sys {
    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: usize, timeout: i32) -> i32;
        pub fn pipe(fds: *mut i32) -> i32;
        pub fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
        pub fn close(fd: i32) -> i32;
        pub fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const F_GETFL: i32 = 3;
    pub const F_SETFL: i32 = 4;
    pub const O_NONBLOCK: i32 = 0o4000;
}

#[cfg(target_os = "linux")]
mod sys_epoll {
    /// The kernel ABI packs this struct on x86-64 (and only there).
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    }

    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLLOUT: u32 = 0x4;
    pub const EPOLLERR: u32 = 0x8;
    pub const EPOLLHUP: u32 = 0x10;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
}

/// Puts a raw descriptor into nonblocking mode.
fn set_nonblocking_fd(fd: i32) -> std::io::Result<()> {
    unsafe {
        let flags = sys::fcntl(fd, sys::F_GETFL, 0);
        if flags < 0 {
            return Err(std::io::Error::last_os_error());
        }
        if sys::fcntl(fd, sys::F_SETFL, flags | sys::O_NONBLOCK) < 0 {
            return Err(std::io::Error::last_os_error());
        }
    }
    Ok(())
}

/// A self-pipe for waking a blocked readiness wait from another thread:
/// completion callbacks (and multiplexer submitters) write one byte, the
/// event loop sees the read end become readable and drains it.  Both ends
/// are nonblocking, so a wake against an already-pending pipe is a no-op
/// (`EAGAIN`), never a stall.
#[derive(Debug)]
pub(crate) struct WakePipe {
    read_fd: i32,
    write_fd: i32,
}

impl WakePipe {
    fn new() -> std::io::Result<WakePipe> {
        let mut fds = [0i32; 2];
        if unsafe { sys::pipe(fds.as_mut_ptr()) } != 0 {
            return Err(std::io::Error::last_os_error());
        }
        let pipe = WakePipe {
            read_fd: fds[0],
            write_fd: fds[1],
        };
        set_nonblocking_fd(pipe.read_fd)?;
        set_nonblocking_fd(pipe.write_fd)?;
        Ok(pipe)
    }

    /// The readable end, for registration with a [`Poller`].
    fn read_fd(&self) -> i32 {
        self.read_fd
    }

    /// Makes the read end readable.  Failure (a full pipe) is fine: a full
    /// pipe is by definition already waking its reader.
    fn wake(&self) {
        let byte = [1u8];
        unsafe {
            let _ = sys::write(self.write_fd, byte.as_ptr(), 1);
        }
    }

    /// Consumes every pending wake byte.
    fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            let n = unsafe { sys::read(self.read_fd, buf.as_mut_ptr(), buf.len()) };
            if n <= 0 {
                break;
            }
        }
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        unsafe {
            sys::close(self.read_fd);
            sys::close(self.write_fd);
        }
    }
}

const INTEREST_READ: u8 = 0b01;
const INTEREST_WRITE: u8 = 0b10;

/// One readiness event: the registered token plus what the descriptor is
/// ready for.  Errors and hangups surface as readable *and* writable —
/// the next `read`/`write` reports the concrete failure.
#[derive(Debug, Clone, Copy)]
struct Event {
    token: u64,
    readable: bool,
    writable: bool,
}

/// A minimal readiness selector: `epoll` on Linux (scales past the
/// `poll` array rebuild for many-connection shards), a portable `poll`
/// registration list everywhere else — and on Linux too, should
/// `epoll_create1` fail at runtime.
#[derive(Debug)]
enum Poller {
    #[cfg(target_os = "linux")]
    Epoll {
        epfd: i32,
    },
    Poll {
        entries: Vec<(i32, u64, u8)>,
    },
}

impl Poller {
    fn new() -> std::io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            let epfd = unsafe { sys_epoll::epoll_create1(0) };
            if epfd >= 0 {
                return Ok(Poller::Epoll { epfd });
            }
        }
        Ok(Poller::Poll {
            entries: Vec::new(),
        })
    }

    #[cfg(target_os = "linux")]
    fn epoll_bits(interest: u8) -> u32 {
        let mut bits = 0;
        if interest & INTEREST_READ != 0 {
            bits |= sys_epoll::EPOLLIN;
        }
        if interest & INTEREST_WRITE != 0 {
            bits |= sys_epoll::EPOLLOUT;
        }
        bits
    }

    #[cfg(target_os = "linux")]
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, token: u64, interest: u8) -> std::io::Result<()> {
        let mut event = sys_epoll::EpollEvent {
            events: Self::epoll_bits(interest),
            data: token,
        };
        if unsafe { sys_epoll::epoll_ctl(epfd, op, fd, &mut event) } != 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }

    fn register(&mut self, fd: i32, token: u64, interest: u8) -> std::io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll { epfd } => {
                Self::epoll_ctl(*epfd, sys_epoll::EPOLL_CTL_ADD, fd, token, interest)
            }
            Poller::Poll { entries } => {
                entries.push((fd, token, interest));
                Ok(())
            }
        }
    }

    fn modify(&mut self, fd: i32, token: u64, interest: u8) -> std::io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll { epfd } => {
                Self::epoll_ctl(*epfd, sys_epoll::EPOLL_CTL_MOD, fd, token, interest)
            }
            Poller::Poll { entries } => {
                for entry in entries.iter_mut() {
                    if entry.0 == fd {
                        entry.2 = interest;
                    }
                }
                Ok(())
            }
        }
    }

    fn deregister(&mut self, fd: i32) {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll { epfd } => {
                let _ = Self::epoll_ctl(*epfd, sys_epoll::EPOLL_CTL_DEL, fd, 0, 0);
            }
            Poller::Poll { entries } => entries.retain(|entry| entry.0 != fd),
        }
    }

    /// Blocks up to `timeout_ms` for readiness, appending events to
    /// `events` (cleared first).  A signal interruption reports no events
    /// rather than an error.
    fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> std::io::Result<()> {
        events.clear();
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll { epfd } => {
                let mut buf = [sys_epoll::EpollEvent { events: 0, data: 0 }; 64];
                let n = unsafe {
                    sys_epoll::epoll_wait(*epfd, buf.as_mut_ptr(), buf.len() as i32, timeout_ms)
                };
                if n < 0 {
                    let error = std::io::Error::last_os_error();
                    if error.kind() == std::io::ErrorKind::Interrupted {
                        return Ok(());
                    }
                    return Err(error);
                }
                for slot in buf.iter().take(n as usize) {
                    // Copy out of the (packed) ABI struct before use.
                    let entry = *slot;
                    let bits = entry.events;
                    let failed = bits & (sys_epoll::EPOLLERR | sys_epoll::EPOLLHUP) != 0;
                    events.push(Event {
                        token: entry.data,
                        readable: failed || bits & sys_epoll::EPOLLIN != 0,
                        writable: failed || bits & sys_epoll::EPOLLOUT != 0,
                    });
                }
                Ok(())
            }
            Poller::Poll { entries } => {
                let mut fds: Vec<sys::PollFd> = entries
                    .iter()
                    .map(|&(fd, _, interest)| {
                        let mut bits = 0i16;
                        if interest & INTEREST_READ != 0 {
                            bits |= sys::POLLIN;
                        }
                        if interest & INTEREST_WRITE != 0 {
                            bits |= sys::POLLOUT;
                        }
                        sys::PollFd {
                            fd,
                            events: bits,
                            revents: 0,
                        }
                    })
                    .collect();
                let n = unsafe { sys::poll(fds.as_mut_ptr(), fds.len(), timeout_ms) };
                if n < 0 {
                    let error = std::io::Error::last_os_error();
                    if error.kind() == std::io::ErrorKind::Interrupted {
                        return Ok(());
                    }
                    return Err(error);
                }
                for (slot, &(_, token, _)) in fds.iter().zip(entries.iter()) {
                    let bits = slot.revents;
                    if bits == 0 {
                        continue;
                    }
                    let failed = bits & (sys::POLLERR | sys::POLLHUP) != 0;
                    events.push(Event {
                        token,
                        readable: failed || bits & sys::POLLIN != 0,
                        writable: failed || bits & sys::POLLOUT != 0,
                    });
                }
                Ok(())
            }
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Poller::Epoll { epfd } = self {
            unsafe {
                sys::close(*epfd);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Server side: the reactor front end.
// ---------------------------------------------------------------------------

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// A finished evaluation on its way back to the reactor thread: pushed by
/// a worker-pool completion callback, drained after the wake byte lands.
struct DoneEntry {
    token: u64,
    id: u64,
    single: bool,
    expected: usize,
    encoding: WireEncoding,
    response: EvalResponse,
}

/// The channel between worker-pool callbacks and the reactor thread.
struct CompletionQueue {
    done: Mutex<Vec<DoneEntry>>,
    wake: WakePipe,
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    fd: i32,
    frames: FrameBuffer,
    /// Encoded response bytes not yet written; `out_pos` marks the prefix
    /// the socket has accepted.
    out: Vec<u8>,
    out_pos: usize,
    /// Set by a matching hello: responses leave in completion order and
    /// credits apply.  Until then the connection is strict FIFO.
    multiplexed: bool,
    /// Ids owed a response, in request order — only maintained on FIFO
    /// connections, whose blocking clients read responses sequentially.
    order: VecDeque<u64>,
    /// Completed responses held until their id reaches the front of
    /// `order` (FIFO connections only).
    fifo_done: HashMap<u64, Vec<u8>>,
    /// Evaluations submitted to the worker pools, not yet completed.
    inflight: u64,
    /// Ids whose `cancel` arrived before their completion: the response
    /// is suppressed when it surfaces.
    cancelled: HashSet<u64>,
    /// Flush `out`, then close (set after a framing error: the stream
    /// position can no longer be trusted).
    closing: bool,
    /// Read interest dropped: the credit window is exhausted, frames stay
    /// in the kernel buffer until a completion frees a slot.
    read_paused: bool,
    /// Interest bits currently registered with the poller.
    interest: u8,
    dead: bool,
    last_activity: Instant,
    /// Symbol dictionaries: `rx` interns the labels this peer defines in
    /// its request frames, `tx` tracks what this side has defined in its
    /// responses.  Reset with the connection, never shared.
    codec: ConnCodec,
}

impl Conn {
    fn new(stream: TcpStream, fd: i32) -> Conn {
        Conn {
            stream,
            fd,
            frames: FrameBuffer::new(),
            out: Vec::new(),
            out_pos: 0,
            multiplexed: false,
            order: VecDeque::new(),
            fifo_done: HashMap::new(),
            inflight: 0,
            cancelled: HashSet::new(),
            closing: false,
            read_paused: false,
            interest: INTEREST_READ,
            dead: false,
            last_activity: Instant::now(),
            codec: ConnCodec::new(),
        }
    }

    /// Whether responses must leave in request order (no matching hello).
    fn fifo(&self) -> bool {
        !self.multiplexed
    }

    fn wants_write(&self) -> bool {
        self.out_pos < self.out.len()
    }
}

/// Encodes one response frame into a fresh buffer; a response too large
/// for the frame bound degrades to a protocol-level rejection so the
/// connection (and, for FIFO peers, the response order) survives.  A
/// *dictionary* frame that hits the bound also winds the connection down:
/// the symbol table may have advanced past the discarded frame, so later
/// references would desynchronise the peer.
fn encode_response(
    conn: &mut Conn,
    id: u64,
    response: &ShardResponse,
    encoding: WireEncoding,
    scratch: &mut Vec<u8>,
) -> Vec<u8> {
    let mut bytes = Vec::new();
    if write_response_frame_dict(
        &mut bytes,
        id,
        response,
        encoding,
        scratch,
        &mut conn.codec.tx,
    )
    .is_ok()
    {
        return bytes;
    }
    bytes.clear();
    let fallback = ShardResponse::Rejected("response exceeded the frame bound".to_string());
    let _ = write_response_frame(&mut bytes, id, &fallback, WireEncoding::Json, scratch);
    if encoding == WireEncoding::BinaryDict {
        conn.closing = true;
    }
    bytes
}

/// Queues one encoded response on a connection: straight to the out
/// buffer when multiplexed (completion order *is* the wire order), held
/// for request order otherwise.
fn queue_response(conn: &mut Conn, id: u64, bytes: Vec<u8>) {
    if conn.fifo() {
        conn.fifo_done.insert(id, bytes);
        flush_fifo(conn);
    } else {
        conn.out.extend_from_slice(&bytes);
    }
}

/// Releases every held response whose id has reached the front of the
/// request order.
fn flush_fifo(conn: &mut Conn) {
    while let Some(&front) = conn.order.front() {
        match conn.fifo_done.remove(&front) {
            Some(bytes) => {
                conn.out.extend_from_slice(&bytes);
                conn.order.pop_front();
            }
            None => break,
        }
    }
}

/// Shapes a completed [`EvalResponse`] into the response the request's
/// form owes (one result for `evaluate`, one per spec for
/// `evaluate_batch`), padding defensively so a shape mismatch surfaces as
/// a domain error, never a desync.  Shared by both front ends.
pub(crate) fn completed_response(
    response: EvalResponse,
    expected: usize,
    single: bool,
) -> ShardResponse {
    let mut results: Vec<SharedResult> = response
        .results
        .into_iter()
        .map(|(_, result)| result)
        .collect();
    while results.len() < expected {
        results.push(Arc::new(Err(EvalError::Remote {
            message: "shard produced no result slot".to_string(),
        })));
    }
    results.truncate(expected.max(1));
    if single {
        ShardResponse::Evaluated(results.remove(0))
    } else {
        ShardResponse::EvaluatedBatch(results)
    }
}

/// Handles one decoded request frame on `conn`.
#[allow(clippy::too_many_arguments)]
fn handle_frame(
    conn: &mut Conn,
    token: u64,
    payload: &[u8],
    service: &EvalService,
    completions: &Arc<CompletionQueue>,
    policy: EncodingPolicy,
    scratch: &mut Vec<u8>,
) {
    let Ok((id, request, request_encoding)) =
        decode_request_payload_dict(payload, &mut conn.codec.rx)
    else {
        // The encoding never decoded, so answer in JSON (readable by every
        // client) and wind the connection down: after a framing error the
        // stream position cannot be trusted.
        let rejection = ShardResponse::Rejected("malformed frame".to_string());
        let bytes = encode_response(conn, 0, &rejection, WireEncoding::Json, scratch);
        conn.out.extend_from_slice(&bytes);
        conn.closing = true;
        return;
    };
    let mut encoding = match policy {
        EncodingPolicy::Auto => request_encoding,
        EncodingPolicy::Json => WireEncoding::Json,
        // Forced binary still mirrors the *dictness* of each request: a
        // dictionary frame gets a dictionary answer, a plain one stays
        // plain, so a stateless client never sees a stateful frame.
        EncodingPolicy::Binary => {
            if request_encoding == WireEncoding::BinaryDict {
                WireEncoding::BinaryDict
            } else {
                WireEncoding::Binary
            }
        }
        EncodingPolicy::BinaryNodict => WireEncoding::Binary,
    };
    // Dictionary responses require encode order == wire order, and the
    // FIFO hold below releases out-of-order completions in *request*
    // order.  A peer that sends dictionary frames before its hello (no
    // conforming client does) therefore gets plain binary, which every
    // dict-capable client decodes statelessly.
    if encoding == WireEncoding::BinaryDict && conn.fifo() {
        encoding = WireEncoding::Binary;
    }
    // FIFO bookkeeping uses the mode in force when the frame arrived; a
    // matching hello upgrades the *following* frames.
    if conn.fifo() && !matches!(request, ShardRequest::Cancel { .. }) {
        conn.order.push_back(id);
    }
    match request {
        ShardRequest::Hello { protocol } => {
            // The reactor never offers rings; it advertises a credit
            // window instead.
            let response = if protocol == PROTOCOL_VERSION {
                conn.multiplexed = true;
                ShardResponse::Backends {
                    names: service.backend_names().to_vec(),
                    protocol: PROTOCOL_VERSION,
                    ring: None,
                    window: Some(CREDIT_WINDOW),
                }
            } else {
                ShardResponse::Rejected(protocol_mismatch("shard", "peer", protocol))
            };
            let bytes = encode_response(conn, id, &response, encoding, scratch);
            // The hello itself may have been enqueued as a FIFO frame, so
            // release it through the same path.
            if conn.order.back() == Some(&id) {
                conn.fifo_done.insert(id, bytes);
                flush_fifo(conn);
            } else {
                queue_response(conn, id, bytes);
            }
        }
        ShardRequest::Supports { backend, spec } => {
            let response = match service.backend_supports(&backend, &spec) {
                Some(supported) => ShardResponse::Supported(supported),
                None => ShardResponse::Rejected(format!("unknown backend `{backend}`")),
            };
            let bytes = encode_response(conn, id, &response, encoding, scratch);
            queue_response(conn, id, bytes);
        }
        ShardRequest::Stats => {
            let response = ShardResponse::Stats(service.stats());
            let bytes = encode_response(conn, id, &response, encoding, scratch);
            queue_response(conn, id, bytes);
        }
        ShardRequest::Cancel { target } => {
            // Fire-and-forget: free nothing here (the evaluation runs to
            // completion and feeds the cache), just suppress the response.
            conn.cancelled.insert(target);
        }
        ShardRequest::Evaluate { backend, spec } => {
            submit_eval(
                conn,
                token,
                id,
                backend,
                vec![spec],
                true,
                encoding,
                service,
                completions,
                scratch,
            );
        }
        ShardRequest::EvaluateBatch { backend, specs } => {
            submit_eval(
                conn,
                token,
                id,
                backend,
                specs,
                false,
                encoding,
                service,
                completions,
                scratch,
            );
        }
    }
}

/// Submits an evaluation to the worker pools; the completion callback
/// hands the result back to the reactor thread through the queue + wake
/// pipe (it runs on whichever worker finishes last).
#[allow(clippy::too_many_arguments)]
fn submit_eval(
    conn: &mut Conn,
    token: u64,
    id: u64,
    backend: String,
    specs: Vec<rsn_eval::WorkloadSpec>,
    single: bool,
    encoding: WireEncoding,
    service: &EvalService,
    completions: &Arc<CompletionQueue>,
    scratch: &mut Vec<u8>,
) {
    if !service.backend_names().contains(&backend) {
        let rejection = ShardResponse::Rejected(format!("unknown backend `{backend}`"));
        let bytes = encode_response(conn, id, &rejection, encoding, scratch);
        queue_response(conn, id, bytes);
        return;
    }
    let expected = specs.len();
    conn.inflight += 1;
    let queue = Arc::clone(completions);
    service.submit_batch_callback(
        specs,
        BackendSelector::Named(vec![backend]),
        Priority::Normal,
        move |response| {
            queue
                .done
                .lock()
                .expect("completion queue lock")
                .push(DoneEntry {
                    token,
                    id,
                    single,
                    expected,
                    encoding,
                    response,
                });
            queue.wake.wake();
        },
    );
}

/// Extracts and handles every complete frame buffered on `conn`,
/// stopping at the credit window.
fn drain_frames(
    conn: &mut Conn,
    token: u64,
    service: &EvalService,
    completions: &Arc<CompletionQueue>,
    policy: EncodingPolicy,
    payload: &mut Vec<u8>,
    scratch: &mut Vec<u8>,
) {
    while !conn.closing && !conn.dead {
        if !conn.fifo() && conn.inflight >= CREDIT_WINDOW {
            conn.read_paused = true;
            break;
        }
        match conn.frames.take_frame(payload) {
            Ok(true) => {
                handle_frame(conn, token, payload, service, completions, policy, scratch);
            }
            Ok(false) => break,
            Err(error) => {
                let rejection = ShardResponse::Rejected(error.to_string());
                let bytes = encode_response(conn, 0, &rejection, WireEncoding::Json, scratch);
                conn.out.extend_from_slice(&bytes);
                conn.closing = true;
            }
        }
    }
}

/// Writes as much pending output as the socket accepts.
fn try_write(conn: &mut Conn) {
    while conn.wants_write() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => conn.out_pos += n,
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    conn.out.clear();
    conn.out_pos = 0;
    if conn.closing {
        conn.dead = true;
    }
}

/// The reactor front end: serves every shard connection from this one
/// thread until `shutdown` is raised (the owner wakes the listener with a
/// throwaway connection, exactly as the threads front end's drop does).
///
/// Accepted connections are registered in `registry` (keyed by token) so
/// [`crate::remote::ShardServer`]'s drop can sever them.
pub(crate) fn serve_reactor(
    listener: TcpListener,
    service: Arc<EvalService>,
    shutdown: Arc<AtomicBool>,
    registry: Arc<Mutex<HashMap<u64, TcpStream>>>,
) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    let Ok(mut poller) = Poller::new() else {
        return;
    };
    let Ok(wake) = WakePipe::new() else {
        return;
    };
    let completions = Arc::new(CompletionQueue {
        done: Mutex::new(Vec::new()),
        wake,
    });
    if poller
        .register(listener.as_raw_fd(), TOKEN_LISTENER, INTEREST_READ)
        .is_err()
        || poller
            .register(completions.wake.read_fd(), TOKEN_WAKE, INTEREST_READ)
            .is_err()
    {
        return;
    }
    let remote = service.config().remote.clone();
    let policy = remote.encoding;
    let idle_timeout = remote.server_idle_timeout;
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut payload = Vec::new();
    let mut scratch = Vec::new();
    let mut events = Vec::new();

    loop {
        if shutdown.load(Ordering::Acquire) {
            break;
        }
        if poller.wait(&mut events, 500).is_err() {
            break;
        }
        if shutdown.load(Ordering::Acquire) {
            break;
        }

        for event in &events {
            match event.token {
                TOKEN_LISTENER => loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            let _ = stream.set_nodelay(true);
                            let token = next_token;
                            next_token += 1;
                            let fd = stream.as_raw_fd();
                            if poller.register(fd, token, INTEREST_READ).is_err() {
                                continue;
                            }
                            if let Ok(clone) = stream.try_clone() {
                                registry
                                    .lock()
                                    .expect("connection registry lock")
                                    .insert(token, clone);
                            }
                            conns.insert(token, Conn::new(stream, fd));
                        }
                        Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(_) => break,
                    }
                },
                TOKEN_WAKE => completions.wake.drain(),
                token => {
                    if let Some(conn) = conns.get_mut(&token) {
                        if event.readable && !conn.dead {
                            match conn.frames.fill(&mut conn.stream) {
                                Ok(0) => conn.dead = true,
                                Ok(_) => conn.last_activity = Instant::now(),
                                Err(ref e)
                                    if e.kind() == std::io::ErrorKind::WouldBlock
                                        || e.kind() == std::io::ErrorKind::Interrupted => {}
                                Err(_) => conn.dead = true,
                            }
                        }
                        let _ = event.writable; // handled in the per-conn pass
                    }
                }
            }
        }

        // Route finished evaluations back onto their connections.
        let done = std::mem::take(&mut *completions.done.lock().expect("completion queue lock"));
        for entry in done {
            let Some(conn) = conns.get_mut(&entry.token) else {
                continue; // the connection closed while evaluating
            };
            conn.inflight = conn.inflight.saturating_sub(1);
            conn.last_activity = Instant::now();
            if conn.cancelled.remove(&entry.id) {
                // The client gave up on this id; it already freed the
                // credit, so the response must never hit the wire.
                if conn.inflight == 0 {
                    conn.cancelled.clear();
                }
                continue;
            }
            let response = completed_response(entry.response, entry.expected, entry.single);
            let bytes = encode_response(conn, entry.id, &response, entry.encoding, &mut scratch);
            queue_response(conn, entry.id, bytes);
            if conn.inflight == 0 {
                conn.cancelled.clear();
            }
        }

        // Step every connection's state machine: drain buffered frames
        // (credit permitting), flush output, reap the idle and the dead.
        let now = Instant::now();
        let mut dead_tokens: Vec<u64> = Vec::new();
        for (&token, conn) in conns.iter_mut() {
            if !conn.dead {
                conn.read_paused = !conn.fifo() && conn.inflight >= CREDIT_WINDOW;
                if !conn.read_paused && !conn.closing {
                    drain_frames(
                        conn,
                        token,
                        &service,
                        &completions,
                        policy,
                        &mut payload,
                        &mut scratch,
                    );
                }
                try_write(conn);
            }
            if !conn.dead
                && conn.inflight == 0
                && !conn.wants_write()
                && now.duration_since(conn.last_activity) >= idle_timeout
            {
                // Idle reap: the peer went quiet; pooled clients re-dial.
                conn.dead = true;
            }
            if conn.dead {
                dead_tokens.push(token);
            } else {
                let mut want = 0u8;
                if !conn.closing && !conn.read_paused {
                    want |= INTEREST_READ;
                }
                if conn.wants_write() {
                    want |= INTEREST_WRITE;
                }
                if want != conn.interest {
                    if poller.modify(conn.fd, token, want).is_err() {
                        conn.dead = true;
                        dead_tokens.push(token);
                    } else {
                        conn.interest = want;
                    }
                }
            }
        }
        for token in dead_tokens {
            if let Some(conn) = conns.remove(&token) {
                poller.deregister(conn.fd);
            }
            registry
                .lock()
                .expect("connection registry lock")
                .remove(&token);
        }
    }
}

// ---------------------------------------------------------------------------
// Client side: the multiplexer.
// ---------------------------------------------------------------------------

/// Requests in flight on one multiplexed connection, keyed by wire id.
type PendingMap = HashMap<u64, mpsc::Sender<ShardResponse>>;

/// State shared between submitters and the multiplexer's reactor thread.
#[derive(Debug)]
struct MuxState {
    next_id: u64,
    /// Credits consumed: requests submitted and not yet answered (or
    /// cancelled).  Bounded by the negotiated window.
    in_use: u64,
    /// Encoded request frames waiting for the reactor thread to write.
    outbound: Vec<u8>,
    pending: PendingMap,
    /// Request-direction symbol table.  Lives under the state lock so
    /// encode order always equals wire order: frames append to `outbound`
    /// in the same critical section that advances the table.
    tx: TxSymbols,
}

#[derive(Debug)]
struct MuxShared {
    state: Mutex<MuxState>,
    /// Signalled whenever a credit frees (a response routed, a cancel, or
    /// the connection dying).
    credits: Condvar,
    wake: WakePipe,
    dead: AtomicBool,
    window: u64,
    /// Frame encoding of this connection (`BinaryDict`, or plain `Binary`
    /// under the `binary_nodict` policy).
    encoding: WireEncoding,
    counters: Arc<PoolCounters>,
}

/// A multiplexed client connection to a reactor-fronted shard: many requests
/// in flight at once, responses matched back by id, a credit window
/// blocking submitters when the shard is saturated.
///
/// One reactor thread owns the socket.  Submitting threads acquire a
/// credit, append their encoded frame to the outbound buffer, and poke
/// the wake pipe; the reactor writes when the socket accepts bytes,
/// reads whatever frames arrive (in *any* order), and routes each to its
/// waiting submitter.  A submitter that times out sends `cancel` for its
/// id and resolves locally — the slot frees immediately, and the shard
/// suppresses the stale response.
///
/// Any transport failure marks the whole connection dead: every pending
/// exchange fails fast, and the owning [`ConnectionPool`]
/// (see [`crate::pool`]) discards the multiplexer and falls back to its
/// plain pooled path, so a mux setback never fails an exchange that a
/// re-dial could have served.
#[derive(Debug)]
pub(crate) struct Multiplexer {
    inner: Arc<MuxShared>,
    thread: Option<JoinHandle<()>>,
}

fn dead_mux_error() -> WireError {
    WireError::Io(std::io::Error::new(
        std::io::ErrorKind::ConnectionAborted,
        "multiplexed connection is dead",
    ))
}

fn timeout_error(what: &str) -> WireError {
    WireError::Io(std::io::Error::new(std::io::ErrorKind::TimedOut, what))
}

impl Multiplexer {
    /// Takes ownership of a freshly dialled stream and starts the reactor
    /// thread.  `window` is the shard's advertised credit window,
    /// `encoding` the frame encoding negotiated for the connection, and
    /// `io_timeout` bounds how long the reactor lets pending output stall
    /// against a full socket before declaring the connection dead.
    pub fn start(
        stream: TcpStream,
        window: u64,
        encoding: WireEncoding,
        counters: Arc<PoolCounters>,
        io_timeout: Duration,
    ) -> Result<Multiplexer, WireError> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        let wake = WakePipe::new()?;
        // The connection's own `hello` goes out as its very first frame.
        // The pool negotiated protocol and window on a *different*
        // connection, and the shard tracks versions per connection: without
        // this, a reactor-fronted shard would treat the mux connection as a
        // FIFO connection — holding completions in request order and
        // downgrading dictionary responses to plain binary.  Id
        // 0 is below `next_id`'s floor, so the `backends` answer falls into
        // the unknown-id drop path like any cancelled response.
        let mut outbound = Vec::new();
        let mut tx = TxSymbols::new();
        let mut scratch = Vec::new();
        write_request_frame_dict(
            &mut outbound,
            0,
            &ShardRequest::Hello {
                protocol: PROTOCOL_VERSION,
            },
            encoding,
            &mut scratch,
            &mut tx,
        )?;
        let shared = Arc::new(MuxShared {
            state: Mutex::new(MuxState {
                next_id: 1,
                in_use: 0,
                outbound,
                pending: HashMap::new(),
                tx,
            }),
            credits: Condvar::new(),
            wake,
            dead: AtomicBool::new(false),
            window: window.max(1),
            encoding,
            counters,
        });
        let thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("shard-mux".to_string())
                .spawn(move || mux_loop(stream, &shared, io_timeout))
                .map_err(WireError::Io)?
        };
        Ok(Multiplexer {
            inner: shared,
            thread: Some(thread),
        })
    }

    /// Whether the connection is still usable (no transport failure yet).
    pub fn is_healthy(&self) -> bool {
        !self.inner.dead.load(Ordering::Acquire)
    }

    /// One request/response exchange, sharing the connection with every
    /// concurrent caller.  `budget` bounds the whole exchange (credit
    /// wait plus response wait); on timeout the request is cancelled.
    pub fn exchange(
        &self,
        request: &ShardRequest,
        budget: Duration,
    ) -> Result<ShardResponse, WireError> {
        // One deadline bounds both halves: whatever the credit wait spent
        // is no longer available to the response wait, so a slow shard can
        // never stretch a "bounded" exchange to 2× its budget.
        let deadline = Instant::now() + budget;
        let (id, rx) = self.submit(request, deadline)?;
        match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(response) => Ok(response),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                self.cancel_local(id);
                Err(timeout_error("multiplexed exchange timed out"))
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(dead_mux_error()),
        }
    }

    /// Submits several requests back-to-back (their frames coalesce in
    /// the outbound buffer) and collects the responses in request order.
    /// Any failure cancels whatever is still outstanding and fails the
    /// burst — the pool retries on a fresh connection.
    pub fn exchange_burst(
        &self,
        requests: &[ShardRequest],
        budget: Duration,
    ) -> Result<Vec<ShardResponse>, WireError> {
        // The clock starts before the first submit: every credit wait and
        // every response wait draws down the same deadline, so an n-request
        // burst against a credit-starved shard costs at most one budget,
        // not (n+1) of them.
        let deadline = Instant::now() + budget;
        let mut submitted = Vec::with_capacity(requests.len());
        let mut failure: Option<WireError> = None;
        for request in requests {
            match self.submit(request, deadline) {
                Ok(pair) => submitted.push(pair),
                Err(error) => {
                    failure = Some(error);
                    break;
                }
            }
        }
        let mut responses = Vec::with_capacity(submitted.len());
        for (id, rx) in submitted {
            if failure.is_some() {
                self.cancel_local(id);
                continue;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok(response) => responses.push(response),
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    self.cancel_local(id);
                    failure = Some(timeout_error("multiplexed burst timed out"));
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => failure = Some(dead_mux_error()),
            }
        }
        match failure {
            None => Ok(responses),
            Some(error) => Err(error),
        }
    }

    /// Acquires a credit, registers the pending slot, encodes the frame
    /// into the outbound buffer, and wakes the reactor thread.  `deadline`
    /// is the *exchange's* deadline, shared with the caller's response
    /// wait — the credit wait must not get a fresh allowance of its own.
    fn submit(
        &self,
        request: &ShardRequest,
        deadline: Instant,
    ) -> Result<(u64, mpsc::Receiver<ShardResponse>), WireError> {
        let shared = &self.inner;
        let mut state = shared.state.lock().expect("mux state lock");
        while state.in_use >= shared.window {
            if shared.dead.load(Ordering::Acquire) {
                return Err(dead_mux_error());
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(timeout_error("no credit freed within the exchange budget"));
            }
            let (next, _) = shared
                .credits
                .wait_timeout(state, left)
                .expect("mux state lock");
            state = next;
        }
        if shared.dead.load(Ordering::Acquire) {
            return Err(dead_mux_error());
        }
        let id = state.next_id;
        state.next_id += 1;
        state.in_use += 1;
        shared.counters.note_inflight(state.in_use);
        let (tx, rx) = mpsc::channel();
        state.pending.insert(id, tx);
        let mut scratch = Vec::new();
        // Split the guard so the outbound buffer and the symbol table can
        // be borrowed together; encoding under the lock keeps table order
        // equal to wire order across concurrent submitters.
        let inner = &mut *state;
        match write_request_frame_dict(
            &mut inner.outbound,
            id,
            request,
            shared.encoding,
            &mut scratch,
            &mut inner.tx,
        ) {
            Ok(bytes) => {
                let (defines, hits) = inner.tx.take_counts();
                shared.counters.note_dict(defines, hits);
                shared
                    .counters
                    .bytes_sent
                    .fetch_add(bytes, Ordering::Relaxed);
            }
            Err(error) => {
                state.pending.remove(&id);
                state.in_use -= 1;
                shared.credits.notify_all();
                if shared.encoding == WireEncoding::BinaryDict {
                    // The failed encode may have advanced the symbol table
                    // past a frame the shard will never see; the stream is
                    // unrecoverable, so fail the connection (the pool
                    // falls back to a fresh one).
                    shared.dead.store(true, Ordering::Release);
                    shared.wake.wake();
                }
                return Err(error);
            }
        }
        drop(state);
        shared.wake.wake();
        Ok((id, rx))
    }

    /// Abandons a pending exchange: frees the credit now and tells the
    /// shard to suppress the stale response.
    fn cancel_local(&self, id: u64) {
        let shared = &self.inner;
        let mut state = shared.state.lock().expect("mux state lock");
        if state.pending.remove(&id).is_none() {
            return; // the response raced in; nothing to free
        }
        state.in_use -= 1;
        let cancel_id = state.next_id;
        state.next_id += 1;
        let mut scratch = Vec::new();
        // Cancel frames carry no labels (the dict encoder emits them as
        // plain frames), but routing them through the same writer keeps
        // one code path per connection.
        let inner = &mut *state;
        if let Ok(bytes) = write_request_frame_dict(
            &mut inner.outbound,
            cancel_id,
            &ShardRequest::Cancel { target: id },
            shared.encoding,
            &mut scratch,
            &mut inner.tx,
        ) {
            shared
                .counters
                .bytes_sent
                .fetch_add(bytes, Ordering::Relaxed);
        }
        shared.credits.notify_all();
        drop(state);
        shared.wake.wake();
    }
}

impl Drop for Multiplexer {
    fn drop(&mut self) {
        self.inner.dead.store(true, Ordering::Release);
        self.inner.wake.wake();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Marks the connection dead and fails every waiter: pending senders drop
/// (their receivers disconnect) and credit waiters observe the flag.
fn fail_mux(shared: &MuxShared) {
    shared.dead.store(true, Ordering::Release);
    let mut state = shared.state.lock().expect("mux state lock");
    state.pending.clear();
    state.outbound.clear();
    shared.credits.notify_all();
}

/// The multiplexer's reactor thread: writes queued frames when the socket
/// accepts them, reads response frames in whatever order the shard
/// completes them, routes each to its submitter, and frees its credit.
fn mux_loop(mut stream: TcpStream, shared: &Arc<MuxShared>, io_timeout: Duration) {
    let mut run = || -> Result<(), ()> {
        let mut poller = Poller::new().map_err(|_| ())?;
        const TOKEN_SOCKET: u64 = 0;
        poller
            .register(stream.as_raw_fd(), TOKEN_SOCKET, INTEREST_READ)
            .map_err(|_| ())?;
        poller
            .register(shared.wake.read_fd(), TOKEN_WAKE, INTEREST_READ)
            .map_err(|_| ())?;
        let mut interest = INTEREST_READ;
        let mut frames = FrameBuffer::new();
        let mut wbuf: Vec<u8> = Vec::new();
        let mut wpos = 0usize;
        let mut payload = Vec::new();
        let mut events = Vec::new();
        let mut stalled_since: Option<Instant> = None;
        // Response-direction symbol table: only this thread decodes, so it
        // never needs the state lock.
        let mut rx_symbols = RxSymbols::new();
        loop {
            if shared.dead.load(Ordering::Acquire) {
                return Err(());
            }
            poller.wait(&mut events, 200).map_err(|_| ())?;
            if !events.is_empty() {
                shared
                    .counters
                    .reactor_wakeups
                    .fetch_add(1, Ordering::Relaxed);
            }
            let mut readable = false;
            for event in &events {
                if event.token == TOKEN_WAKE {
                    shared.wake.drain();
                } else if event.readable {
                    readable = true;
                }
            }
            // Pull frames submitters queued since the last pass.
            {
                let mut state = shared.state.lock().expect("mux state lock");
                if !state.outbound.is_empty() {
                    if wpos == wbuf.len() {
                        wbuf.clear();
                        wpos = 0;
                    }
                    wbuf.extend_from_slice(&state.outbound);
                    state.outbound.clear();
                }
            }
            // Write until the socket stops accepting bytes.
            if wpos < wbuf.len() {
                let mut progressed = false;
                loop {
                    match stream.write(&wbuf[wpos..]) {
                        Ok(0) => return Err(()),
                        Ok(n) => {
                            wpos += n;
                            progressed = true;
                            if wpos == wbuf.len() {
                                wbuf.clear();
                                wpos = 0;
                                break;
                            }
                        }
                        Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(_) => return Err(()),
                    }
                }
                if progressed {
                    stalled_since = None;
                }
            }
            if wpos < wbuf.len() {
                // A shard that accepts no bytes for a whole io_timeout is
                // hung; fail fast rather than wedging every submitter.
                let since = *stalled_since.get_or_insert_with(Instant::now);
                if since.elapsed() >= io_timeout {
                    return Err(());
                }
            } else {
                stalled_since = None;
            }
            let want = if wpos < wbuf.len() {
                INTEREST_READ | INTEREST_WRITE
            } else {
                INTEREST_READ
            };
            if want != interest {
                poller
                    .modify(stream.as_raw_fd(), TOKEN_SOCKET, want)
                    .map_err(|_| ())?;
                interest = want;
            }
            // Read and route whatever responses arrived.
            if readable {
                match frames.fill(&mut stream) {
                    Ok(0) => return Err(()),
                    Ok(_) => {}
                    Err(ref e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => return Err(()),
                }
                loop {
                    match frames.take_frame(&mut payload) {
                        Ok(true) => {
                            shared
                                .counters
                                .bytes_received
                                .fetch_add(payload.len() as u64 + 4, Ordering::Relaxed);
                            let Ok((id, response)) =
                                decode_response_payload_dict(&payload, &mut rx_symbols)
                            else {
                                return Err(()); // desync: abandon the connection
                            };
                            let (defines, hits) = rx_symbols.take_counts();
                            shared.counters.note_dict(defines, hits);
                            let mut state = shared.state.lock().expect("mux state lock");
                            if let Some(tx) = state.pending.remove(&id) {
                                state.in_use -= 1;
                                shared.credits.notify_all();
                                drop(state);
                                let _ = tx.send(response);
                            }
                            // An unknown id is the stale answer to a
                            // cancelled request — dropped by design.
                        }
                        Ok(false) => break,
                        Err(_) => return Err(()),
                    }
                }
            }
        }
    };
    let _ = run();
    fail_mux(shared);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_pipe_wakes_and_drains() {
        let pipe = WakePipe::new().expect("pipe");
        // Draining an idle pipe must not block (both ends nonblocking).
        pipe.drain();
        pipe.wake();
        pipe.wake();
        let mut poller = Poller::new().expect("poller");
        poller
            .register(pipe.read_fd(), 7, INTEREST_READ)
            .expect("register");
        let mut events = Vec::new();
        poller.wait(&mut events, 1000).expect("wait");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        pipe.drain();
        // Drained: an immediate poll reports nothing.
        poller.wait(&mut events, 0).expect("wait");
        assert!(events.is_empty());
    }

    #[test]
    fn poller_tracks_interest_changes() {
        let pipe = WakePipe::new().expect("pipe");
        let mut poller = Poller::new().expect("poller");
        poller
            .register(pipe.read_fd(), 3, INTEREST_READ)
            .expect("register");
        pipe.wake();
        let mut events = Vec::new();
        poller.wait(&mut events, 1000).expect("wait");
        assert_eq!(events.len(), 1);
        // Dropping read interest silences the pending byte.
        poller.modify(pipe.read_fd(), 3, 0).expect("modify");
        poller.wait(&mut events, 0).expect("wait");
        assert!(events.is_empty());
        poller.deregister(pipe.read_fd());
    }

    #[test]
    fn fifo_hold_releases_in_request_order() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let stream = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let fd = stream.as_raw_fd();
        let mut conn = Conn::new(stream, fd);
        assert!(conn.fifo());
        conn.order.push_back(10);
        conn.order.push_back(11);
        // Completion order 11 then 10: 11 must be held until 10 lands.
        queue_response(&mut conn, 11, vec![0xBB]);
        assert!(conn.out.is_empty());
        queue_response(&mut conn, 10, vec![0xAA]);
        assert_eq!(conn.out, vec![0xAA, 0xBB]);
        assert!(conn.order.is_empty() && conn.fifo_done.is_empty());
        // A multiplexed connection skips the hold entirely.
        conn.multiplexed = true;
        queue_response(&mut conn, 12, vec![0xCC]);
        assert_eq!(conn.out, vec![0xAA, 0xBB, 0xCC]);
    }

    #[test]
    fn completed_response_pads_and_truncates() {
        let empty = EvalResponse {
            results: Vec::new(),
        };
        match completed_response(empty, 2, false) {
            ShardResponse::EvaluatedBatch(results) => {
                assert_eq!(results.len(), 2);
                assert!(results.iter().all(|r| r.is_err()));
            }
            other => panic!("unexpected response: {other:?}"),
        }
        let empty = EvalResponse {
            results: Vec::new(),
        };
        match completed_response(empty, 1, true) {
            ShardResponse::Evaluated(result) => assert!(result.is_err()),
            other => panic!("unexpected response: {other:?}"),
        }
    }

    // -----------------------------------------------------------------
    // Multiplexer budget regression tests.
    //
    // Both pin the contract that `budget` bounds a *whole* exchange.
    // Before the shared-deadline fix, `submit`'s credit wait and the
    // response wait each got a full budget (2× worst case for
    // `exchange`, (n+1)× for an n-request `exchange_burst`), so these
    // tests fail against the pre-fix code and pass after.
    // -----------------------------------------------------------------

    use crate::wire::{read_request_frame, write_response_frame};
    use rsn_eval::WorkloadSpec;

    /// A hand-built shard for the budget tests: answers each non-cancel
    /// request after the scripted delay, in arrival order; `None`
    /// withholds that response forever (the credit never frees on the
    /// server side of the story).  Exits on EOF when the client hangs up.
    fn scripted_shard(delays: Vec<Option<Duration>>) -> (std::net::SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind scripted shard");
        let addr = listener.local_addr().expect("shard addr");
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = match listener.accept() {
                Ok(pair) => pair,
                Err(_) => return,
            };
            let mut scratch = Vec::new();
            let mut served = 0usize;
            loop {
                let (id, request, encoding, _) = match read_request_frame(&mut stream, &mut scratch)
                {
                    Ok(Some(frame)) => frame,
                    Ok(None) | Err(_) => return,
                };
                if matches!(request, ShardRequest::Cancel { .. }) {
                    continue; // cancels get no reply and consume no script slot
                }
                if matches!(request, ShardRequest::Hello { .. }) {
                    // The mux opens every connection with a hello; answer it
                    // out-of-script (the client drops the reply by id anyway).
                    let mut out = Vec::new();
                    let backends = ShardResponse::Backends {
                        names: Vec::new(),
                        protocol: PROTOCOL_VERSION,
                        ring: None,
                        window: Some(1),
                    };
                    if write_response_frame(&mut stream, id, &backends, encoding, &mut out).is_err()
                    {
                        return;
                    }
                    continue;
                }
                let delay = delays.get(served).copied().unwrap_or(Some(Duration::ZERO));
                served += 1;
                match delay {
                    None => continue, // withhold this response forever
                    Some(delay) => {
                        std::thread::sleep(delay);
                        let mut out = Vec::new();
                        if write_response_frame(
                            &mut stream,
                            id,
                            &ShardResponse::Supported(true),
                            encoding,
                            &mut out,
                        )
                        .is_err()
                        {
                            return;
                        }
                    }
                }
            }
        });
        (addr, handle)
    }

    fn probe_request(n: usize) -> ShardRequest {
        ShardRequest::Supports {
            backend: "shard".to_string(),
            spec: WorkloadSpec::SquareGemm { n },
        }
    }

    fn budget_mux(addr: std::net::SocketAddr, window: u64) -> Multiplexer {
        let stream = TcpStream::connect(addr).expect("connect scripted shard");
        // Plain binary keeps the scripted shard's stateless frame reader
        // valid; dictionary frames are exercised by the wire and loopback
        // suites.
        Multiplexer::start(
            stream,
            window,
            WireEncoding::Binary,
            Arc::new(PoolCounters::default()),
            Duration::from_secs(5),
        )
        .expect("mux starts")
    }

    #[test]
    fn exchange_budget_is_not_rearmed_by_a_late_credit() {
        let budget = Duration::from_millis(600);
        // First request answered at 0.75× budget (holding the only credit
        // until then); second request withheld forever.
        let (addr, shard) = scripted_shard(vec![Some(budget.mul_f64(0.75)), None]);
        let mux = Arc::new(budget_mux(addr, 1));
        let first = {
            let mux = Arc::clone(&mux);
            std::thread::spawn(move || mux.exchange(&probe_request(1), budget))
        };
        // Let the first exchange take the credit before contending for it.
        std::thread::sleep(Duration::from_millis(50));
        let start = Instant::now();
        let second = mux.exchange(&probe_request(2), budget);
        let elapsed = start.elapsed();
        assert!(second.is_err(), "withheld response must time out");
        assert!(
            elapsed <= budget.mul_f64(1.5),
            "exchange overran its budget: {elapsed:?} vs {budget:?} \
             (credit wait re-armed the response clock?)"
        );
        assert!(first.join().expect("first exchange thread").is_ok());
        drop(mux); // hang up so the shard thread sees EOF
        let _ = shard.join();
    }

    #[test]
    fn burst_budget_is_shared_across_submits() {
        let budget = Duration::from_millis(500);
        // Window 1, each response at 0.7× budget: the third submit cannot
        // get a credit before the shared deadline, so the burst must fail
        // at ~1× budget instead of grinding through at ~2×+.
        let delay = budget.mul_f64(0.7);
        let (addr, shard) = scripted_shard(vec![Some(delay); 3]);
        let mux = budget_mux(addr, 1);
        let requests: Vec<ShardRequest> = (0..3).map(probe_request).collect();
        let start = Instant::now();
        let result = mux.exchange_burst(&requests, budget);
        let elapsed = start.elapsed();
        assert!(result.is_err(), "credit-starved burst must time out");
        assert!(
            elapsed <= budget.mul_f64(1.5),
            "burst overran its budget: {elapsed:?} vs {budget:?} \
             (per-submit budgets or a post-submit response clock?)"
        );
        drop(mux);
        let _ = shard.join();
    }
}
