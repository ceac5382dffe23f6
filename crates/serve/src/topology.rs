//! Deployment topology files: declarative shard wiring instead of
//! hand-wired code.
//!
//! A topology file is a hand-rolled-JSON document (parsed with
//! [`crate::json`], like everything else on the wire) declaring what a
//! process should assemble:
//!
//! ```json
//! {
//!   "listen": "127.0.0.1:7070",
//!   "service": {
//!     "max_batch": 16,
//!     "batch_deadline_us": 1000,
//!     "workers_per_backend": 2,
//!     "cache_capacity": 4096,
//!     "remote": {
//!       "connect_timeout_ms": 10000,
//!       "io_timeout_ms": 30000,
//!       "pool_size": 4,
//!       "server_idle_timeout_ms": 60000,
//!       "encoding": "auto",
//!       "frontend": "threads"
//!     }
//!   },
//!   "local": ["rsn-xnn", "roofline-bound"],
//!   "remotes": [
//!     {"addr": "10.0.0.7:7070", "weight": 2, "pool_size": 8},
//!     {"addr": "10.0.0.8:7070", "encoding": "json"}
//!   ]
//! }
//! ```
//!
//! * `listen` — bind address for `shardd` (optional; clients ignore it);
//! * `service` — every [`ServiceConfig`] knob, durations as integral
//!   microseconds/milliseconds (optional; missing fields default);
//! * `local` — in-process backend pools by evaluation-layer name
//!   ([`rsn_eval::default_backends`] order);
//! * `remotes` — shard servers to autodiscover backends from via the
//!   `hello` handshake, with an optional per-shard worker `weight`
//!   (heavier shards get proportionally more client-side worker threads),
//!   `pool_size` (connection-pool bound override), `encoding`
//!   (`auto`/`json`/`binary`/`binary_nodict` wire-encoding override — force `json` on one
//!   shard to debug its traffic while the rest stay binary) and
//!   `transport` (`auto`/`socket`/`shm` — whether the client accepts a
//!   shard's shared-memory ring offer; see [`crate::shm`]).  Each backend
//!   name is served by exactly one shard.
//!
//! [`ShardRouter::from_topology`](crate::ShardRouter::from_topology) turns
//! a parsed topology into a running mixed local/remote service;
//! `shardd --topology` and the table binaries' `--topology` flag load one
//! from disk.  Emission ([`topology_json`]) is deterministic and
//! round-trips byte-identically through parse → decode → re-emit, pinned
//! by `tests/json_roundtrip.rs`.

use crate::config::{EncodingPolicy, FrontendPolicy, RemoteConfig, ServiceConfig, TransportPolicy};
use crate::json::{self, DecodeError, JsonParseError, JsonValue};
use std::time::Duration;

/// One remote shard server a topology wires in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteShardDecl {
    /// Shard server address (`host:port`).
    pub addr: String,
    /// Client-side worker weight: the shard's backends get
    /// `workers_per_backend × weight` worker threads each, so heavier
    /// shards absorb proportionally more concurrent requests.
    pub weight: usize,
    /// Connection-pool bound override for this shard; `None` uses
    /// [`RemoteConfig::pool_size`].
    pub pool_size: Option<usize>,
    /// Wire-encoding override for this shard; `None` uses
    /// [`RemoteConfig::encoding`].  Force `json` on one shard to read its
    /// traffic in a packet capture while the other shards stay binary.
    pub encoding: Option<EncodingPolicy>,
    /// Transport override for this shard; `None` uses
    /// [`RemoteConfig::transport`].  Force `socket` on one shard to keep
    /// it off shared memory (say, while bisecting a perf regression), or
    /// `shm` to accept ring offers from a non-loopback address that is
    /// known to be this host.
    pub transport: Option<TransportPolicy>,
}

impl RemoteShardDecl {
    /// A weight-1 declaration with the default pool bound and encoding.
    pub fn new(addr: &str) -> Self {
        Self {
            addr: addr.to_string(),
            weight: 1,
            pool_size: None,
            encoding: None,
            transport: None,
        }
    }
}

/// A parsed deployment topology: which pools a process assembles, local
/// and remote, and how the service around them is tuned.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Topology {
    /// Bind address for a shard server process (`shardd --topology`);
    /// ignored by client-side loaders.
    pub listen: Option<String>,
    /// Service tuning for the assembled [`EvalService`](crate::EvalService).
    pub service: ServiceConfig,
    /// In-process backend pools, by evaluation-layer backend name.
    pub local: Vec<String>,
    /// Remote shard servers, autodiscovered via `hello` at assembly time.
    pub remotes: Vec<RemoteShardDecl>,
}

impl Topology {
    /// Loads and decodes a topology file.
    pub fn from_file(path: &std::path::Path) -> Result<Topology, TopologyError> {
        let text = std::fs::read_to_string(path).map_err(|source| TopologyError::Io {
            path: path.display().to_string(),
            source,
        })?;
        let doc = json::parse(&text)?;
        Ok(topology_from_json(&doc)?)
    }
}

/// The per-shard [`RemoteConfig`] a topology implies for `addr`: the
/// topology's base remote tuning with the matching `remotes[]`
/// declaration's overrides applied.  An unknown address gets the base
/// tuning.
pub(crate) fn remote_config_for(topology: &Topology, addr: &str) -> RemoteConfig {
    let base = &topology.service.remote;
    match topology.remotes.iter().find(|decl| decl.addr == addr) {
        Some(decl) => RemoteConfig {
            pool_size: decl.pool_size.unwrap_or(base.pool_size),
            encoding: decl.encoding.unwrap_or(base.encoding),
            transport: decl.transport.unwrap_or(base.transport),
            ..base.clone()
        },
        None => base.clone(),
    }
}

/// Why a topology file could not be loaded.
#[derive(Debug)]
pub enum TopologyError {
    /// Reading the file failed.
    Io {
        /// The path that failed.
        path: String,
        /// The filesystem error.
        source: std::io::Error,
    },
    /// The file is not valid JSON.
    Parse(JsonParseError),
    /// The JSON does not decode into a topology.
    Decode(DecodeError),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::Io { path, source } => {
                write!(f, "reading topology `{path}` failed: {source}")
            }
            TopologyError::Parse(e) => write!(f, "topology is not valid JSON: {e}"),
            TopologyError::Decode(e) => write!(f, "topology does not decode: {e}"),
        }
    }
}

impl std::error::Error for TopologyError {}

impl From<JsonParseError> for TopologyError {
    fn from(e: JsonParseError) -> Self {
        TopologyError::Parse(e)
    }
}

impl From<DecodeError> for TopologyError {
    fn from(e: DecodeError) -> Self {
        TopologyError::Decode(e)
    }
}

/// Converts a topology into its JSON document (deterministic emission;
/// every field explicit, so emitted topologies are self-documenting).
pub fn topology_json(topology: &Topology) -> JsonValue {
    JsonValue::obj([
        (
            "listen",
            topology
                .listen
                .as_ref()
                .map_or(JsonValue::Null, |addr| JsonValue::Str(addr.clone())),
        ),
        ("service", service_config_json(&topology.service)),
        (
            "local",
            JsonValue::Arr(
                topology
                    .local
                    .iter()
                    .map(|name| JsonValue::Str(name.clone()))
                    .collect(),
            ),
        ),
        (
            "remotes",
            JsonValue::Arr(
                topology
                    .remotes
                    .iter()
                    .map(|decl| {
                        JsonValue::obj([
                            ("addr", JsonValue::Str(decl.addr.clone())),
                            ("weight", JsonValue::Int(decl.weight as u64)),
                            (
                                "pool_size",
                                decl.pool_size
                                    .map_or(JsonValue::Null, |n| JsonValue::Int(n as u64)),
                            ),
                            (
                                "encoding",
                                decl.encoding.map_or(JsonValue::Null, |e| {
                                    JsonValue::Str(e.as_str().to_string())
                                }),
                            ),
                            (
                                "transport",
                                decl.transport.map_or(JsonValue::Null, |t| {
                                    JsonValue::Str(t.as_str().to_string())
                                }),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// A duration as whole milliseconds, rounded *up* — the topology's ms
/// fields must never emit a non-zero duration as `0` (the OS rejects
/// zero socket timeouts, so a truncated 500 µs connect timeout would make
/// every dial fail after a load).
fn millis_ceil(d: Duration) -> u64 {
    d.as_micros().div_ceil(1000) as u64
}

/// A duration as whole microseconds, rounded up (see [`millis_ceil`]).
fn micros_ceil(d: Duration) -> u64 {
    d.as_nanos().div_ceil(1000) as u64
}

/// Converts a service configuration into its topology JSON section.
pub fn service_config_json(config: &ServiceConfig) -> JsonValue {
    JsonValue::obj([
        ("max_batch", JsonValue::Int(config.max_batch as u64)),
        (
            "batch_deadline_us",
            JsonValue::Int(micros_ceil(config.batch_deadline)),
        ),
        (
            "workers_per_backend",
            JsonValue::Int(config.workers_per_backend as u64),
        ),
        (
            "cache_capacity",
            config
                .cache_capacity
                .map_or(JsonValue::Null, |n| JsonValue::Int(n as u64)),
        ),
        (
            "class_budgets_us",
            JsonValue::obj(crate::request::Priority::ALL.map(|priority| {
                (
                    priority.as_str(),
                    config.class_budgets[priority.index()]
                        .map_or(JsonValue::Null, |b| JsonValue::Int(micros_ceil(b))),
                )
            })),
        ),
        (
            "queue_capacity",
            config
                .queue_capacity
                .map_or(JsonValue::Null, |n| JsonValue::Int(n as u64)),
        ),
        (
            "remote",
            JsonValue::obj([
                (
                    "connect_timeout_ms",
                    JsonValue::Int(millis_ceil(config.remote.connect_timeout)),
                ),
                (
                    "io_timeout_ms",
                    JsonValue::Int(millis_ceil(config.remote.io_timeout)),
                ),
                ("pool_size", JsonValue::Int(config.remote.pool_size as u64)),
                (
                    "server_idle_timeout_ms",
                    JsonValue::Int(millis_ceil(config.remote.server_idle_timeout)),
                ),
                (
                    "encoding",
                    JsonValue::Str(config.remote.encoding.as_str().to_string()),
                ),
                (
                    "transport",
                    JsonValue::Str(config.remote.transport.as_str().to_string()),
                ),
                (
                    "frontend",
                    JsonValue::Str(config.remote.frontend.as_str().to_string()),
                ),
            ]),
        ),
    ])
}

/// Decodes the `service` topology section; every missing field keeps its
/// [`ServiceConfig::default`] value, so hand-written files stay terse.
pub fn service_config_from_json(value: &JsonValue) -> Result<ServiceConfig, DecodeError> {
    const CTX: &str = "ServiceConfig";
    let mut config = ServiceConfig::default();
    if let Some(v) = value.get("max_batch") {
        config.max_batch = decode_usize(v, CTX, "max_batch")?;
    }
    if let Some(v) = value.get("batch_deadline_us") {
        config.batch_deadline = Duration::from_micros(decode_u64(v, CTX, "batch_deadline_us")?);
    }
    if let Some(v) = value.get("workers_per_backend") {
        config.workers_per_backend = decode_usize(v, CTX, "workers_per_backend")?;
    }
    match value.get("cache_capacity") {
        None | Some(JsonValue::Null) => {}
        Some(v) => config.cache_capacity = Some(decode_usize(v, CTX, "cache_capacity")?),
    }
    match value.get("class_budgets_us") {
        None | Some(JsonValue::Null) => {}
        Some(budgets @ JsonValue::Obj(_)) => {
            for priority in crate::request::Priority::ALL {
                match budgets.get(priority.as_str()) {
                    None | Some(JsonValue::Null) => {}
                    Some(v) => {
                        config.class_budgets[priority.index()] = Some(Duration::from_micros(
                            decode_u64(v, CTX, "class_budgets_us")?,
                        ))
                    }
                }
            }
        }
        Some(_) => {
            return Err(DecodeError {
                context: CTX.to_string(),
                message: "`class_budgets_us` must be an object keyed by class".to_string(),
            })
        }
    }
    match value.get("queue_capacity") {
        None | Some(JsonValue::Null) => {}
        Some(v) => config.queue_capacity = Some(decode_usize(v, CTX, "queue_capacity")?),
    }
    if let Some(remote) = value.get("remote") {
        config.remote = remote_config_from_json(remote)?;
    }
    Ok(config)
}

fn remote_config_from_json(value: &JsonValue) -> Result<RemoteConfig, DecodeError> {
    const CTX: &str = "RemoteConfig";
    let mut remote = RemoteConfig::default();
    if let Some(v) = value.get("connect_timeout_ms") {
        remote.connect_timeout = Duration::from_millis(decode_u64(v, CTX, "connect_timeout_ms")?);
    }
    if let Some(v) = value.get("io_timeout_ms") {
        remote.io_timeout = Duration::from_millis(decode_u64(v, CTX, "io_timeout_ms")?);
    }
    if let Some(v) = value.get("pool_size") {
        remote.pool_size = decode_usize(v, CTX, "pool_size")?;
    }
    if let Some(v) = value.get("server_idle_timeout_ms") {
        remote.server_idle_timeout =
            Duration::from_millis(decode_u64(v, CTX, "server_idle_timeout_ms")?);
    }
    if let Some(v) = value.get("encoding") {
        remote.encoding = decode_encoding(v, CTX)?;
    }
    if let Some(v) = value.get("transport") {
        remote.transport = decode_transport(v, CTX)?;
    }
    if let Some(v) = value.get("frontend") {
        remote.frontend = decode_frontend(v, CTX)?;
    }
    Ok(remote)
}

/// Decodes a `"threads"`/`"reactor"` front-end spelling.
fn decode_frontend(value: &JsonValue, ctx: &str) -> Result<FrontendPolicy, DecodeError> {
    match value {
        JsonValue::Str(text) => FrontendPolicy::parse(text).ok_or_else(|| DecodeError {
            context: ctx.to_string(),
            message: format!("`frontend`: unknown policy `{text}` (threads or reactor)"),
        }),
        _ => Err(DecodeError {
            context: ctx.to_string(),
            message: "`frontend` must be a string".to_string(),
        }),
    }
}

/// Decodes an `"auto"`/`"socket"`/`"shm"` transport spelling.
fn decode_transport(value: &JsonValue, ctx: &str) -> Result<TransportPolicy, DecodeError> {
    match value {
        JsonValue::Str(text) => TransportPolicy::parse(text).ok_or_else(|| DecodeError {
            context: ctx.to_string(),
            message: format!("`transport`: unknown policy `{text}` (auto, socket or shm)"),
        }),
        _ => Err(DecodeError {
            context: ctx.to_string(),
            message: "`transport` must be a string".to_string(),
        }),
    }
}

/// Decodes an `"auto"`/`"json"`/`"binary"`/`"binary_nodict"` encoding spelling.
fn decode_encoding(value: &JsonValue, ctx: &str) -> Result<EncodingPolicy, DecodeError> {
    match value {
        JsonValue::Str(text) => EncodingPolicy::parse(text).ok_or_else(|| DecodeError {
            context: ctx.to_string(),
            message: format!(
                "`encoding`: unknown policy `{text}` (auto, json, binary or binary_nodict)"
            ),
        }),
        _ => Err(DecodeError {
            context: ctx.to_string(),
            message: "`encoding` must be a string".to_string(),
        }),
    }
}

/// Decodes a [`topology_json`] document (or a sparser hand-written file —
/// only unknown shapes are errors, missing fields default).
pub fn topology_from_json(value: &JsonValue) -> Result<Topology, DecodeError> {
    const CTX: &str = "Topology";
    // A `replicas` key groups several shards under one backend name.
    // Skipping it like other unknown keys would leave those shards
    // colliding as duplicate backends, so name it instead.
    if value.get("replicas").is_some() {
        return Err(DecodeError {
            context: CTX.to_string(),
            message: "`replicas` is not supported: list one shard per backend in `remotes`"
                .to_string(),
        });
    }
    let listen = match value.get("listen") {
        None | Some(JsonValue::Null) => None,
        Some(JsonValue::Str(addr)) => Some(addr.clone()),
        Some(_) => {
            return Err(DecodeError {
                context: CTX.to_string(),
                message: "`listen` must be a string or null".to_string(),
            })
        }
    };
    let service = match value.get("service") {
        Some(section) => service_config_from_json(section)?,
        None => ServiceConfig::default(),
    };
    let local = match value.get("local") {
        None => Vec::new(),
        Some(JsonValue::Arr(items)) => items
            .iter()
            .map(|item| match item {
                JsonValue::Str(name) => Ok(name.clone()),
                _ => Err(DecodeError {
                    context: CTX.to_string(),
                    message: "`local` entries must be backend-name strings".to_string(),
                }),
            })
            .collect::<Result<Vec<_>, _>>()?,
        Some(_) => {
            return Err(DecodeError {
                context: CTX.to_string(),
                message: "`local` must be an array".to_string(),
            })
        }
    };
    let remotes = match value.get("remotes") {
        None => Vec::new(),
        Some(JsonValue::Arr(items)) => items
            .iter()
            .map(remote_decl_from_json)
            .collect::<Result<Vec<_>, _>>()?,
        Some(_) => {
            return Err(DecodeError {
                context: CTX.to_string(),
                message: "`remotes` must be an array".to_string(),
            })
        }
    };
    Ok(Topology {
        listen,
        service,
        local,
        remotes,
    })
}

fn remote_decl_from_json(value: &JsonValue) -> Result<RemoteShardDecl, DecodeError> {
    const CTX: &str = "RemoteShardDecl";
    let addr = match value.get("addr") {
        Some(JsonValue::Str(addr)) => addr.clone(),
        _ => {
            return Err(DecodeError {
                context: CTX.to_string(),
                message: "missing string `addr`".to_string(),
            })
        }
    };
    let weight = match value.get("weight") {
        None | Some(JsonValue::Null) => 1,
        Some(v) => decode_usize(v, CTX, "weight")?.max(1),
    };
    let pool_size = match value.get("pool_size") {
        None | Some(JsonValue::Null) => None,
        Some(v) => Some(decode_usize(v, CTX, "pool_size")?),
    };
    let encoding = match value.get("encoding") {
        None | Some(JsonValue::Null) => None,
        Some(v) => Some(decode_encoding(v, CTX)?),
    };
    let transport = match value.get("transport") {
        None | Some(JsonValue::Null) => None,
        Some(v) => Some(decode_transport(v, CTX)?),
    };
    Ok(RemoteShardDecl {
        addr,
        weight,
        pool_size,
        encoding,
        transport,
    })
}

/// [`json::expect_u64`] with the field name prefixed into the message.
fn decode_u64(value: &JsonValue, ctx: &str, key: &str) -> Result<u64, DecodeError> {
    json::expect_u64(value, ctx).map_err(|mut e| {
        e.message = format!("`{key}`: {}", e.message);
        e
    })
}

/// [`json::expect_usize`] with the field name prefixed into the message.
fn decode_usize(value: &JsonValue, ctx: &str, key: &str) -> Result<usize, DecodeError> {
    json::expect_usize(value, ctx).map_err(|mut e| {
        e.message = format!("`{key}`: {}", e.message);
        e
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rich_topology() -> Topology {
        Topology {
            listen: Some("127.0.0.1:7070".to_string()),
            service: ServiceConfig {
                max_batch: 32,
                batch_deadline: Duration::from_micros(750),
                workers_per_backend: 3,
                cache_capacity: Some(4096),
                class_budgets: [
                    Some(Duration::from_micros(2_000)),
                    Some(Duration::from_micros(20_000)),
                    None,
                ],
                queue_capacity: Some(1024),
                remote: RemoteConfig {
                    connect_timeout: Duration::from_millis(2500),
                    io_timeout: Duration::from_millis(12000),
                    pool_size: 6,
                    server_idle_timeout: Duration::from_millis(45000),
                    encoding: EncodingPolicy::Binary,
                    transport: TransportPolicy::Socket,
                    frontend: FrontendPolicy::Reactor,
                },
            },
            local: vec!["rsn-xnn".to_string(), "roofline-bound".to_string()],
            remotes: vec![
                RemoteShardDecl {
                    addr: "10.0.0.7:7070".to_string(),
                    weight: 2,
                    pool_size: Some(8),
                    encoding: Some(EncodingPolicy::Json),
                    transport: Some(TransportPolicy::Shm),
                },
                RemoteShardDecl::new("10.0.0.8:7070"),
            ],
        }
    }

    #[test]
    fn topology_round_trips_typed() {
        let topology = rich_topology();
        let doc = topology_json(&topology);
        let decoded = topology_from_json(&doc).expect("topology decodes");
        assert_eq!(decoded, topology);
    }

    #[test]
    fn sparse_hand_written_topology_defaults() {
        let doc = json::parse(r#"{"remotes": [{"addr": "host:1"}]}"#).expect("parse");
        let topology = topology_from_json(&doc).expect("decode");
        assert_eq!(topology.listen, None);
        assert_eq!(topology.service, ServiceConfig::default());
        assert!(topology.local.is_empty());
        assert_eq!(
            topology.remotes,
            vec![RemoteShardDecl::new("host:1")],
            "weight defaults to 1, pool_size to the service default"
        );
    }

    #[test]
    fn malformed_topology_is_a_decode_error_not_a_panic() {
        let bad = [
            r#"{"listen": 7}"#,
            r#"{"local": "rsn-xnn"}"#,
            r#"{"local": [3]}"#,
            r#"{"remotes": [{}]}"#,
            r#"{"remotes": [{"addr": "x", "weight": "heavy"}]}"#,
            r#"{"remotes": [{"addr": "x", "encoding": "yaml"}]}"#,
            r#"{"remotes": [{"addr": "x", "transport": "pipe"}]}"#,
            r#"{"service": {"remote": {"encoding": 3}}}"#,
            r#"{"service": {"remote": {"transport": 3}}}"#,
            r#"{"service": {"remote": {"frontend": 3}}}"#,
            r#"{"service": {"remote": {"frontend": "tokio"}}}"#,
            r#"{"service": {"max_batch": -1}}"#,
            r#"{"service": {"class_budgets_us": [2000]}}"#,
            r#"{"service": {"class_budgets_us": {"high": "fast"}}}"#,
            r#"{"service": {"queue_capacity": "lots"}}"#,
            r#"{"replicas": "all"}"#,
            r#"{"replicas": [{"shards": ["x:1"]}]}"#,
            r#"{"remotes": [{"addr": "x:1"}], "replicas": [{"backend": "b", "shards": []}]}"#,
            r#"{"remotes": [{"addr": "x:1"}], "replicas": [{"backend": "b", "shards": [7]}]}"#,
            r#"{"remotes": [{"addr": "x:1"}], "replicas": [{"backend": "b", "shards": ["x:1"], "hedge_budget_us": "soon"}]}"#,
            r#"{"remotes": [{"addr": "x:1"}], "replicas": [{"backend": "b", "shards": ["x:1"], "breaker": "open"}]}"#,
            r#"{"remotes": [{"addr": "x:1"}], "replicas": [{"backend": "b", "shards": ["x:1"], "breaker": {"window": 0}}]}"#,
            r#"{"remotes": [{"addr": "x:1"}], "replicas": [{"backend": "b", "shards": ["x:1"], "breaker": {"max_failures": 9}}]}"#,
            r#"{"replicas": []}"#,
        ];
        for text in bad {
            let doc = json::parse(text).expect("structurally valid JSON");
            let err = topology_from_json(&doc).expect_err(text);
            if text.contains("\"replicas\"") {
                assert!(err.message.contains("`replicas`"), "names the key: {err}");
            }
        }
    }

    #[test]
    fn remote_config_for_applies_per_shard_overrides() {
        let mut topology = Topology::default();
        topology.service.remote.pool_size = 4;
        topology.remotes.push(RemoteShardDecl {
            addr: "a:1".to_string(),
            weight: 1,
            pool_size: Some(9),
            encoding: None,
            transport: None,
        });
        assert_eq!(remote_config_for(&topology, "a:1").pool_size, 9);
        assert_eq!(remote_config_for(&topology, "b:1").pool_size, 4);
    }

    #[test]
    fn file_loading_reports_positioned_errors() {
        let dir = std::env::temp_dir().join("rsn-topology-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("broken.json");
        std::fs::write(&path, "{\"listen\": oops}").expect("write");
        match Topology::from_file(&path) {
            Err(TopologyError::Parse(e)) => assert_eq!((e.line, e.column), (1, 12)),
            other => panic!("expected a parse error, got {other:?}"),
        }
        match Topology::from_file(&dir.join("missing.json")) {
            Err(TopologyError::Io { .. }) => {}
            other => panic!("expected an io error, got {other:?}"),
        }
    }
}
