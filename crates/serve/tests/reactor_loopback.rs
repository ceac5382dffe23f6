//! Loopback integration tests of the epoll reactor front end and the
//! multiplexed client.
//!
//! The tests pin the contract the reactor exists for:
//!
//! * grids served by the reactor are **byte-identical** to the in-process
//!   path (and to the threads front end);
//! * one multiplexed connection completes requests **out of order** —
//!   a fast request overtakes a slow one submitted before it;
//! * a `cancel` frame suppresses the target's response and frees its
//!   credit slot without wedging the connection;
//! * one reactor thread serves **≥256 concurrent connections**;
//! * killing a reactor shard mid-stream yields prompt
//!   [`EvalError::Transport`] errors, never hangs.

use rsn_eval::{Backend, CharmBackend, EvalError, Evaluator, WorkloadSpec, XnnAnalyticBackend};
use rsn_serve::json::grid_json;
use rsn_serve::remote::ShardServer;
use rsn_serve::wire::{
    decode_response_payload, write_request_frame, FrameBuffer, ShardRequest, ShardResponse,
    WireEncoding, PROTOCOL_VERSION,
};
use rsn_serve::{
    BackendSelector, EvalService, FrontendPolicy, Priority, RemoteConfig, ServiceConfig,
    ShardRouter,
};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn reactor_config(workers: usize) -> ServiceConfig {
    ServiceConfig {
        workers_per_backend: workers,
        remote: RemoteConfig {
            frontend: FrontendPolicy::Reactor,
            ..RemoteConfig::default()
        },
        ..ServiceConfig::default()
    }
}

fn reactor_server(evaluator: Evaluator, workers: usize) -> ShardServer {
    ShardServer::bind(
        "127.0.0.1:0",
        EvalService::with_config(evaluator, reactor_config(workers)),
    )
    .expect("bind reactor shard")
}

fn paper_backends() -> Evaluator {
    Evaluator::empty()
        .with_backend(Box::new(XnnAnalyticBackend::new()))
        .with_backend(Box::new(CharmBackend::new()))
}

/// A backend whose evaluation sleeps `n` milliseconds for
/// `SquareGemm { n }`: request latency is controlled by the spec, so the
/// tests can stage a slow request being overtaken by a fast one.
struct StaggeredSquare;

impl Backend for StaggeredSquare {
    fn name(&self) -> &str {
        "stagger"
    }
    fn supports(&self, w: &WorkloadSpec) -> bool {
        matches!(w, WorkloadSpec::SquareGemm { .. })
    }
    fn evaluate(&self, w: &WorkloadSpec) -> Result<rsn_eval::EvalReport, EvalError> {
        if let WorkloadSpec::SquareGemm { n } = w {
            std::thread::sleep(Duration::from_millis((*n).min(2000) as u64));
        }
        Ok(rsn_eval::EvalReport::new(self.name(), w.name()))
    }
}

/// A raw multiplexing wire client: hand-written frames over one socket, so
/// the tests control request ids and observe completion order directly.
struct RawClient {
    stream: TcpStream,
    frames: FrameBuffer,
    payload: Vec<u8>,
    scratch: Vec<u8>,
}

impl RawClient {
    fn connect(addr: &str) -> RawClient {
        let stream = TcpStream::connect(addr).expect("connect to reactor shard");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        RawClient {
            stream,
            frames: FrameBuffer::new(),
            payload: Vec::new(),
            scratch: Vec::new(),
        }
    }

    fn send(&mut self, id: u64, request: &ShardRequest) {
        write_request_frame(
            &mut self.stream,
            id,
            request,
            WireEncoding::Binary,
            &mut self.scratch,
        )
        .expect("send request frame");
    }

    fn recv(&mut self) -> (u64, ShardResponse) {
        loop {
            if self
                .frames
                .take_frame(&mut self.payload)
                .expect("well-formed frame")
            {
                return decode_response_payload(&self.payload).expect("response decodes");
            }
            let n = self.frames.fill(&mut self.stream).expect("socket read");
            assert!(n > 0, "shard closed the connection mid-stream");
        }
    }

    /// Hello handshake; returns the advertised credit window.
    fn hello(&mut self, id: u64) -> u64 {
        self.send(
            id,
            &ShardRequest::Hello {
                protocol: PROTOCOL_VERSION,
            },
        );
        let (got, response) = self.recv();
        assert_eq!(got, id);
        match response {
            ShardResponse::Backends {
                protocol,
                ring,
                window,
                ..
            } => {
                assert_eq!(protocol, PROTOCOL_VERSION);
                assert_eq!(ring, None, "the reactor never offers shm rings");
                window.expect("v5 peers are offered a credit window")
            }
            other => panic!("expected a Backends hello answer, got {other:?}"),
        }
    }
}

#[test]
fn reactor_grid_is_byte_identical_to_in_process() {
    let server = reactor_server(paper_backends(), 2);
    let service = ShardRouter::new()
        .remote(&server.local_addr().to_string())
        .expect("loopback shard reachable")
        .build()
        .expect("unique shard names");
    assert_eq!(service.backend_names(), ["rsn-xnn", "charm"]);

    let workloads = vec![
        WorkloadSpec::SquareGemm { n: 1024 },
        WorkloadSpec::SquareGemm { n: 2048 },
        // Unsupported by both backends: error entries must cross the
        // multiplexed wire and re-emit identically too.
        WorkloadSpec::DatapathProperties,
    ];
    let names: Vec<String> = service.backend_names().to_vec();
    assert_eq!(
        grid_json(&names, &workloads, &service.evaluate_grid(&workloads)).to_pretty(),
        grid_json(
            &names,
            &workloads,
            &paper_backends().evaluate_grid(&workloads)
        )
        .to_pretty(),
        "reactor-served grid must be byte-identical to in-process"
    );

    // The client really took the multiplexed path: its mux reactor thread
    // woke up, and no ring was ever negotiated.
    let pool = service
        .stats()
        .pool(&server.local_addr().to_string())
        .expect("pool registered")
        .clone();
    assert!(
        pool.reactor_wakeups > 0,
        "the v5 client must multiplex against a reactor shard: {pool:?}"
    );
    assert_eq!(pool.ring_exchanges, 0, "reactor shards offer no ring");
    assert!(server.ring_segments().is_empty());
    // Both v7 peers, both directions: the request direction interns only
    // the two backend labels, so any define beyond those proves the shard
    // answered with dictionary frames too (report labels interned), which
    // requires the mux connection's own hello to have upgraded it past the
    // strict-FIFO default.
    assert!(
        pool.dict_defines > 2 && pool.dict_hits > 0,
        "protocol-7 mux must carry symbol dictionaries in both directions: {pool:?}"
    );
}

#[test]
fn one_multiplexed_connection_completes_out_of_order() {
    let server = reactor_server(
        Evaluator::empty().with_backend(Box::new(StaggeredSquare)),
        2,
    );
    let mut client = RawClient::connect(&server.local_addr().to_string());
    let window = client.hello(1);
    assert!(window >= 2, "window must admit concurrent requests");

    // Slow request first, fast request second, both in flight on the one
    // connection: the fast answer must come back first.
    client.send(
        2,
        &ShardRequest::Evaluate {
            backend: "stagger".to_string(),
            spec: WorkloadSpec::SquareGemm { n: 700 },
        },
    );
    client.send(
        3,
        &ShardRequest::Evaluate {
            backend: "stagger".to_string(),
            spec: WorkloadSpec::SquareGemm { n: 1 },
        },
    );
    let started = Instant::now();
    let (first_id, first) = client.recv();
    assert_eq!(
        first_id, 3,
        "the fast request must overtake the slow one on a v5 connection"
    );
    assert!(matches!(first, ShardResponse::Evaluated(ref r) if r.is_ok()));
    assert!(
        started.elapsed() < Duration::from_millis(600),
        "the fast answer must not be held behind the slow evaluation"
    );
    let (second_id, second) = client.recv();
    assert_eq!(second_id, 2);
    assert!(matches!(second, ShardResponse::Evaluated(ref r) if r.is_ok()));
}

#[test]
fn cancel_suppresses_the_response_and_frees_the_slot() {
    let server = reactor_server(
        Evaluator::empty().with_backend(Box::new(StaggeredSquare)),
        2,
    );
    let mut client = RawClient::connect(&server.local_addr().to_string());
    client.hello(1);

    // A slow evaluation, immediately cancelled, then a fast one: only the
    // fast response may arrive (cancel frames get no answer either).
    client.send(
        10,
        &ShardRequest::Evaluate {
            backend: "stagger".to_string(),
            spec: WorkloadSpec::SquareGemm { n: 600 },
        },
    );
    client.send(11, &ShardRequest::Cancel { target: 10 });
    client.send(
        12,
        &ShardRequest::Evaluate {
            backend: "stagger".to_string(),
            spec: WorkloadSpec::SquareGemm { n: 2 },
        },
    );
    let (id, response) = client.recv();
    assert_eq!(id, 12, "the cancelled response must never hit the wire");
    assert!(matches!(response, ShardResponse::Evaluated(ref r) if r.is_ok()));

    // After the cancelled evaluation finishes server-side its slot is
    // free and the suppressed answer stays suppressed: the next exchange
    // answers the new id, not the dead one.
    std::thread::sleep(Duration::from_millis(800));
    client.send(
        13,
        &ShardRequest::Evaluate {
            backend: "stagger".to_string(),
            spec: WorkloadSpec::SquareGemm { n: 3 },
        },
    );
    let (id, response) = client.recv();
    assert_eq!(id, 13);
    assert!(matches!(response, ShardResponse::Evaluated(ref r) if r.is_ok()));
}

#[test]
fn one_reactor_thread_serves_hundreds_of_concurrent_connections() {
    let server = reactor_server(
        Evaluator::empty().with_backend(Box::new(XnnAnalyticBackend::new())),
        2,
    );
    let addr = server.local_addr().to_string();

    // 256 connections, all open at once, all multiplex-capable.
    const CONNS: usize = 256;
    let mut clients: Vec<RawClient> = (0..CONNS).map(|_| RawClient::connect(&addr)).collect();
    for client in clients.iter_mut() {
        client.send(
            1,
            &ShardRequest::Hello {
                protocol: PROTOCOL_VERSION,
            },
        );
    }
    for (i, client) in clients.iter_mut().enumerate() {
        let (id, response) = client.recv();
        assert_eq!(id, 1, "conn {i}");
        assert!(
            matches!(
                response,
                ShardResponse::Backends {
                    window: Some(_),
                    ..
                }
            ),
            "conn {i}: hello must negotiate a window"
        );
    }
    // Every connection evaluates (cache hits across connections are fine —
    // the point is that every socket gets its own correct answer).
    for (i, client) in clients.iter_mut().enumerate() {
        client.send(
            2,
            &ShardRequest::Evaluate {
                backend: "rsn-xnn".to_string(),
                spec: WorkloadSpec::SquareGemm {
                    n: 256 + (i % 16) * 64,
                },
            },
        );
    }
    for (i, client) in clients.iter_mut().enumerate() {
        let (id, response) = client.recv();
        assert_eq!(id, 2, "conn {i}");
        assert!(
            matches!(response, ShardResponse::Evaluated(ref r) if r.is_ok()),
            "conn {i}: evaluation must succeed"
        );
    }
}

#[test]
fn killed_reactor_shard_yields_transport_errors_not_hangs() {
    let server = reactor_server(
        Evaluator::empty().with_backend(Box::new(XnnAnalyticBackend::new())),
        2,
    );
    let addr = server.local_addr().to_string();
    let service = ShardRouter::new()
        .remote(&addr)
        .expect("loopback shard reachable")
        .build()
        .expect("unique names");

    // Warm multiplexed traffic.
    let warm: Vec<WorkloadSpec> = (1..=8usize)
        .map(|n| WorkloadSpec::SquareGemm { n: n * 32 })
        .collect();
    assert!(service
        .evaluate_grid(&warm)
        .iter()
        .flatten()
        .all(Result::is_ok));
    assert!(
        service.stats().pool(&addr).expect("pool").reactor_wakeups > 0,
        "warm traffic must have gone through the multiplexer"
    );

    // Kill the reactor mid-stream: queued fresh specs must all resolve to
    // clean transport errors, promptly.
    drop(server);
    let fresh: Vec<WorkloadSpec> = (1..=8usize)
        .map(|n| WorkloadSpec::SquareGemm { n: n * 32 + 7 })
        .collect();
    let started = Instant::now();
    let response = service
        .submit_batch(fresh.clone(), BackendSelector::All, Priority::Normal)
        .wait_timeout(Duration::from_secs(30))
        .expect("queued requests must resolve, not hang");
    assert!(started.elapsed() < Duration::from_secs(30));
    assert_eq!(response.results.len(), fresh.len());
    for (slot, (backend, result)) in response.results.iter().enumerate() {
        assert_eq!(backend.as_ref(), "rsn-xnn");
        assert!(
            matches!(**result, Err(EvalError::Transport { .. })),
            "slot {slot} of the dead-reactor burst resolved to {result:?}"
        );
    }
}
