//! The length-framed request/response protocol, over [`cer_common::wire`].
//!
//! Every message travels in one frame:
//!
//! ```text
//! ┌─────────────┬───────────────────────────────┐
//! │ len: u32 LE │ payload: len bytes (Wire)     │
//! └─────────────┴───────────────────────────────┘
//! ```
//!
//! `len` counts payload bytes only (not itself), must be ≥ 1 (the
//! payload always starts with a message tag), and must not exceed the
//! receiver's frame cap ([`DEFAULT_MAX_FRAME`] unless configured
//! otherwise) — a cap violation is a protocol error *before* any
//! allocation, so a hostile length prefix cannot balloon memory. The
//! payload is a [`Request`] or [`Response`] encoded with the same
//! bounds-checked [`Wire`] codec the engine uses for snapshots: decoding
//! arbitrary bytes returns [`WireError`]s, never panics, and trailing
//! bytes after a complete message are rejected as corruption.
//!
//! Requests are answered in order with exactly one [`Response`] each —
//! except [`Request::Subscribe`], after which the server *also*
//! interleaves unsolicited [`Response::Event`] frames onto the
//! connection as matches complete (the client side of this protocol
//! buffers them aside; see `Client`). Every failure is reported as
//! [`Response::Error`] carrying a stable
//! [`ErrorCode`](cer_core::ErrorCode) discriminant plus a human-readable
//! message; the connection stays usable afterwards.

use cer_common::wire::{Wire, WireError, WireReader, WireWriter};
use cer_common::{RelationId, Tuple};
use cer_core::runtime::{MatchEvent, Partition, QueryId};
use cer_core::window::WindowPolicy;
use cer_core::BackpressurePolicy;
use std::io::{self, Read, Write};

/// Version tag exchanged in [`Request::Hello`]; bumped on incompatible
/// protocol changes.
pub const PROTOCOL_VERSION: u32 = 1;

/// Default cap on one frame's payload size (16 MiB). A `len` prefix
/// above the cap is rejected before any allocation.
pub const DEFAULT_MAX_FRAME: usize = 16 << 20;

// ---------------------------------------------------------------------
// Framing

/// Write one frame: `len` prefix plus `payload` in a single write, then
/// flush. One write means one syscall and, with `TCP_NODELAY`, one
/// segment for a small frame instead of a 4-byte prefix segment plus a
/// payload segment.
///
/// The caller is responsible for `payload.len() <= max_frame` on its
/// side; the function only refuses payloads whose length cannot be
/// represented at all.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame payload over 4 GiB"))?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Read one frame's payload from a stream.
///
/// * `Ok(Some(payload))` — a complete frame;
/// * `Ok(None)` — clean EOF *at a frame boundary* (the peer closed);
/// * `Err(_)` — an I/O error, EOF mid-frame (`UnexpectedEof`), a frame
///   over `max_frame` (`InvalidData`), or an empty frame
///   (`InvalidData`). Read timeouts surface as the platform's
///   `WouldBlock`/`TimedOut` error for the caller to treat as "no frame
///   yet".
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame length prefix",
                ))
            }
            Ok(n) => filled += n,
            // A timeout with part of the prefix already read must keep
            // the bytes: retry the read so a slow peer is not corrupted.
            Err(e) if filled > 0 && would_block(&e) => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    check_frame_len(len, max_frame)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e}")))?;
    let mut payload = vec![0u8; len];
    let mut at = 0;
    while at < len {
        match r.read(&mut payload[at..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame payload",
                ))
            }
            Ok(n) => at += n,
            Err(e) if would_block(&e) => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(Some(payload))
}

fn would_block(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

/// Validate a frame length prefix against the cap. Pure — shared by the
/// stream reader and [`parse_frame`], and the target of the fuzz tests.
pub fn check_frame_len(len: usize, max_frame: usize) -> Result<(), WireError> {
    if len == 0 {
        return Err(WireError::Corrupt("empty frame"));
    }
    if len > max_frame {
        return Err(WireError::Corrupt("frame over the receiver's cap"));
    }
    Ok(())
}

/// Parse one frame out of a byte buffer (the pure, non-blocking twin of
/// [`read_frame`], used by tests and poll-style callers): returns the
/// payload and the unconsumed rest, `None` when the buffer does not yet
/// hold a complete frame, or a [`WireError`] for a frame that can never
/// become valid (zero-length or over the cap).
#[allow(clippy::type_complexity)]
pub fn parse_frame(buf: &[u8], max_frame: usize) -> Result<Option<(&[u8], &[u8])>, WireError> {
    let Some(len_buf) = buf.get(..4) else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(len_buf.try_into().expect("4-byte slice")) as usize;
    check_frame_len(len, max_frame)?;
    match buf.get(4..4 + len) {
        Some(payload) => Ok(Some((payload, &buf[4 + len..]))),
        None => Ok(None),
    }
}

/// Encode a message into a frame payload.
pub fn encode_message<T: Wire>(msg: &T) -> Result<Vec<u8>, WireError> {
    let mut w = WireWriter::new();
    msg.encode(&mut w)?;
    Ok(w.into_bytes())
}

/// Decode a frame payload into a message, rejecting trailing bytes.
pub fn decode_message<T: Wire>(payload: &[u8]) -> Result<T, WireError> {
    let mut r = WireReader::new(payload);
    let msg = T::decode(&mut r)?;
    if !r.is_exhausted() {
        return Err(WireError::Corrupt("trailing bytes after message"));
    }
    Ok(msg)
}

// ---------------------------------------------------------------------
// Messages

/// Which query front-end parses a [`Request::SubmitQuery`]'s text.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Frontend {
    /// The HCQ front-end (`Q(x, y) <- T(x), S(x, y)` rule syntax,
    /// compiled via the paper's Theorem 4.1 construction).
    Hcq,
    /// The CER pattern language (`T(x) ; R(x, _)` operator syntax).
    Pattern,
}

/// A client→server message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Open the conversation; the server echoes its own version. Not
    /// mandatory, but lets clients fail fast on a version skew.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Declare (or look up) a relation in the server's schema.
    /// Idempotent: re-declaring with the same arity returns the
    /// existing id; a different arity is an error.
    DeclareRelation {
        /// Relation name, e.g. `"TEMP"`.
        name: String,
        /// Number of attributes.
        arity: usize,
    },
    /// Parse, compile and register a standing query.
    SubmitQuery {
        /// Name echoed in stats and errors.
        name: String,
        /// Which language `text` is written in.
        frontend: Frontend,
        /// The query text.
        text: String,
        /// Sliding-window policy.
        window: WindowPolicy,
        /// Shard placement; `None` uses the server runtime's
        /// [`default_partition`](cer_core::RuntimeConfig::default_partition).
        partition: Option<Partition>,
        /// GC cadence (0 = automatic).
        gc_every: u64,
    },
    /// Append a batch of tuples to the stream.
    IngestBatch {
        /// The tuples, in stream order.
        tuples: Vec<Tuple>,
    },
    /// Start pushing [`Response::Event`] frames for matching queries
    /// onto this connection. One subscription per connection; the
    /// backpressure policy is the subscription's own.
    Subscribe {
        /// `Some(id)` for one query's events, `None` for all.
        query: Option<QueryId>,
        /// Event channel capacity; 0 means the server default.
        capacity: usize,
        /// What happens when this subscriber lags.
        policy: BackpressurePolicy,
    },
    /// Stop the event stream started by `Subscribe`.
    Unsubscribe,
    /// Remove a standing query.
    Deregister {
        /// The query to remove.
        id: QueryId,
    },
    /// A compact numeric summary ([`StatsSummary`]).
    Stats,
    /// The full Prometheus text exposition of the runtime's metrics.
    MetricsText,
    /// An epoch-consistent snapshot of the runtime, as bytes
    /// (`Snapshot::to_bytes`).
    Snapshot,
    /// Fence the pipeline: returns once everything ingested before the
    /// call has been evaluated and delivered.
    Drain,
    /// Liveness probe.
    Ping,
    /// Gracefully shut the whole server down (every connection, then
    /// the runtime).
    Shutdown,
    /// Live-reshard the runtime to `shards` workers in place
    /// ([`Runtime::rescale`](cer_core::runtime::Runtime::rescale)): an
    /// epoch fence moves every query's state to a new worker set with
    /// no serialize round-trip. Ingest and subscriptions stay live.
    Rescale {
        /// The target worker count (1..=64).
        shards: usize,
    },
    /// Enable or disable the server's autoscale controller (a
    /// background thread polling load signals through
    /// [`Controller`](cer_core::Controller) hysteresis and rescaling
    /// when a streak confirms). Replies with
    /// [`Response::AutoscaleStatus`].
    SetAutoscale {
        /// `true` starts the control loop, `false` pauses it (the
        /// controller's streaks reset on re-enable).
        enabled: bool,
    },
    /// The controller's current status
    /// ([`Response::AutoscaleStatus`]).
    AutoscaleStatus,
    /// Cut an incremental checkpoint to the server's data directory
    /// ([`Runtime::checkpoint`](cer_core::runtime::Runtime::checkpoint));
    /// WAL segments below the cut are truncated. Fails with
    /// [`ErrorCode::NotDurable`](cer_core::ErrorCode) on a server
    /// started without `--data-dir`.
    Checkpoint,
    /// The server's durability status ([`Response::Durability`]):
    /// WAL health and size, last checkpoint, chain length.
    DurabilityStatus,
}

/// A server→client message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Reply to [`Request::Hello`].
    Hello {
        /// The server's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Reply to [`Request::DeclareRelation`].
    RelationDeclared {
        /// The relation's id, stable for the server's lifetime.
        id: RelationId,
    },
    /// Reply to [`Request::SubmitQuery`].
    QueryAccepted {
        /// The registered query's id.
        id: QueryId,
    },
    /// Reply to [`Request::IngestBatch`].
    Ingested {
        /// First stamped position of the batch.
        start: u64,
        /// One past the last stamped position.
        end: u64,
        /// Tuples shed under `DropNewest` ingest backpressure.
        dropped: u64,
    },
    /// Reply to [`Request::Subscribe`].
    Subscribed,
    /// Reply to [`Request::Unsubscribe`].
    Unsubscribed,
    /// Reply to [`Request::Deregister`].
    Deregistered,
    /// Reply to [`Request::Stats`].
    Stats(StatsSummary),
    /// Reply to [`Request::MetricsText`].
    MetricsText {
        /// The Prometheus text exposition.
        text: String,
    },
    /// Reply to [`Request::Snapshot`].
    Snapshot {
        /// `Snapshot::to_bytes` output.
        bytes: Vec<u8>,
    },
    /// Reply to [`Request::Drain`].
    Drained,
    /// Reply to [`Request::Ping`].
    Pong,
    /// Reply to [`Request::Shutdown`]; the server closes every
    /// connection shortly after sending it.
    ShuttingDown,
    /// Any request that failed. The connection stays usable.
    Error {
        /// [`cer_core::ErrorCode`] discriminant
        /// (`ErrorCode::from_u16` recovers the variant).
        code: u16,
        /// Human-readable context.
        message: String,
    },
    /// An unsolicited pushed match (after [`Request::Subscribe`]).
    Event(MatchEvent),
    /// Reply to [`Request::Rescale`].
    Rescaled {
        /// Worker count before the move.
        from: u64,
        /// Worker count after the move.
        to: u64,
        /// Fence-to-resume wall time, in nanoseconds.
        nanos: u64,
    },
    /// Reply to [`Request::SetAutoscale`] and
    /// [`Request::AutoscaleStatus`].
    AutoscaleStatus(AutoscaleSummary),
    /// Reply to [`Request::Checkpoint`].
    CheckpointDone {
        /// Epoch position the checkpoint cut at.
        position: u64,
        /// The checkpoint's epoch counter (dense, one per checkpoint).
        epoch: u64,
        /// Bytes written (before the manifest).
        bytes: u64,
        /// `true` for a full checkpoint, `false` for a delta.
        full: bool,
    },
    /// Reply to [`Request::DurabilityStatus`].
    Durability(DurabilitySummary),
}

/// The compact numeric reply to [`Request::DurabilityStatus`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DurabilitySummary {
    /// `false` when a WAL append failed and logging stopped (the server
    /// keeps serving from memory — alert on this).
    pub healthy: bool,
    /// WAL segment files on disk (sealed + active).
    pub wal_segments: u64,
    /// Bytes appended to the WAL since this process attached it.
    pub wal_bytes: u64,
    /// Records appended to the WAL since this process attached it.
    pub wal_records: u64,
    /// Epoch of the latest committed checkpoint (`None` before the
    /// first).
    pub last_checkpoint_epoch: Option<u64>,
    /// Stream position of the latest committed checkpoint.
    pub last_checkpoint_position: Option<u64>,
    /// Checkpoints a recovery would have to chain (1 after a full).
    pub chain_len: u64,
}

/// The compact numeric reply to [`Request::SetAutoscale`] and
/// [`Request::AutoscaleStatus`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AutoscaleSummary {
    /// Whether the control loop is running.
    pub enabled: bool,
    /// Current worker shard count.
    pub shards: u64,
    /// Rescales performed since the server started (controller-driven
    /// and explicit [`Request::Rescale`] alike).
    pub rescales: u64,
    /// Consecutive hot observations (scale-up streak).
    pub hot_streak: u64,
    /// Consecutive cold observations (scale-down streak).
    pub cold_streak: u64,
    /// Ticks of post-rescale cooldown remaining.
    pub cooldown: u64,
}

/// The compact numeric reply to [`Request::Stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSummary {
    /// Worker shard count.
    pub shards: u64,
    /// Currently registered (live) queries.
    pub queries: u64,
    /// The next global stream position.
    pub next_position: u64,
    /// Tuples shed by ingest backpressure since start.
    pub dropped: u64,
    /// Journal events overwritten before being drained.
    pub events_overwritten: u64,
}

// ---------------------------------------------------------------------
// Wire impls

fn put_policy(w: &mut WireWriter, p: BackpressurePolicy) {
    w.put_u8(match p {
        BackpressurePolicy::Block => 0,
        BackpressurePolicy::DropNewest => 1,
    });
}

fn get_flag(r: &mut WireReader<'_>, ctx: &'static str) -> Result<bool, WireError> {
    match r.get_u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(WireError::Corrupt(ctx)),
    }
}

fn get_policy(r: &mut WireReader<'_>) -> Result<BackpressurePolicy, WireError> {
    match r.get_u8()? {
        0 => Ok(BackpressurePolicy::Block),
        1 => Ok(BackpressurePolicy::DropNewest),
        _ => Err(WireError::Corrupt("unknown backpressure policy tag")),
    }
}

impl Wire for Frontend {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        w.put_u8(match self {
            Frontend::Hcq => 0,
            Frontend::Pattern => 1,
        });
        Ok(())
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(Frontend::Hcq),
            1 => Ok(Frontend::Pattern),
            _ => Err(WireError::Corrupt("unknown frontend tag")),
        }
    }
}

impl Wire for Request {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        match self {
            Request::Hello { version } => {
                w.put_u8(0);
                w.put_u32(*version);
            }
            Request::DeclareRelation { name, arity } => {
                w.put_u8(1);
                w.put_str(name);
                w.put_len(*arity);
            }
            Request::SubmitQuery {
                name,
                frontend,
                text,
                window,
                partition,
                gc_every,
            } => {
                w.put_u8(2);
                w.put_str(name);
                frontend.encode(w)?;
                w.put_str(text);
                window.encode(w)?;
                partition.encode(w)?;
                w.put_u64(*gc_every);
            }
            Request::IngestBatch { tuples } => {
                w.put_u8(3);
                tuples.encode(w)?;
            }
            Request::Subscribe {
                query,
                capacity,
                policy,
            } => {
                w.put_u8(4);
                query.map(|q| q.0).encode(w)?;
                w.put_len(*capacity);
                put_policy(w, *policy);
            }
            Request::Unsubscribe => w.put_u8(5),
            Request::Deregister { id } => {
                w.put_u8(6);
                w.put_u32(id.0);
            }
            Request::Stats => w.put_u8(7),
            Request::MetricsText => w.put_u8(8),
            Request::Snapshot => w.put_u8(9),
            Request::Drain => w.put_u8(10),
            Request::Ping => w.put_u8(11),
            Request::Shutdown => w.put_u8(12),
            Request::Rescale { shards } => {
                w.put_u8(13);
                w.put_len(*shards);
            }
            Request::SetAutoscale { enabled } => {
                w.put_u8(14);
                w.put_u8(u8::from(*enabled));
            }
            Request::AutoscaleStatus => w.put_u8(15),
            Request::Checkpoint => w.put_u8(16),
            Request::DurabilityStatus => w.put_u8(17),
        }
        Ok(())
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.get_u8()? {
            0 => Request::Hello {
                version: r.get_u32()?,
            },
            1 => Request::DeclareRelation {
                name: r.get_str()?,
                arity: r.get_len()?,
            },
            2 => Request::SubmitQuery {
                name: r.get_str()?,
                frontend: Frontend::decode(r)?,
                text: r.get_str()?,
                window: WindowPolicy::decode(r)?,
                partition: Option::<Partition>::decode(r)?,
                gc_every: r.get_u64()?,
            },
            3 => Request::IngestBatch {
                tuples: Vec::<Tuple>::decode(r)?,
            },
            4 => Request::Subscribe {
                query: Option::<u32>::decode(r)?.map(QueryId),
                capacity: r.get_len()?,
                policy: get_policy(r)?,
            },
            5 => Request::Unsubscribe,
            6 => Request::Deregister {
                id: QueryId(r.get_u32()?),
            },
            7 => Request::Stats,
            8 => Request::MetricsText,
            9 => Request::Snapshot,
            10 => Request::Drain,
            11 => Request::Ping,
            12 => Request::Shutdown,
            13 => Request::Rescale {
                shards: r.get_len()?,
            },
            14 => Request::SetAutoscale {
                enabled: match r.get_u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::Corrupt("autoscale flag out of range")),
                },
            },
            15 => Request::AutoscaleStatus,
            16 => Request::Checkpoint,
            17 => Request::DurabilityStatus,
            _ => return Err(WireError::Corrupt("unknown request tag")),
        })
    }
}

impl Wire for StatsSummary {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        w.put_u64(self.shards);
        w.put_u64(self.queries);
        w.put_u64(self.next_position);
        w.put_u64(self.dropped);
        w.put_u64(self.events_overwritten);
        Ok(())
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(StatsSummary {
            shards: r.get_u64()?,
            queries: r.get_u64()?,
            next_position: r.get_u64()?,
            dropped: r.get_u64()?,
            events_overwritten: r.get_u64()?,
        })
    }
}

impl Wire for Response {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        match self {
            Response::Hello { version } => {
                w.put_u8(0);
                w.put_u32(*version);
            }
            Response::RelationDeclared { id } => {
                w.put_u8(1);
                id.encode(w)?;
            }
            Response::QueryAccepted { id } => {
                w.put_u8(2);
                w.put_u32(id.0);
            }
            Response::Ingested {
                start,
                end,
                dropped,
            } => {
                w.put_u8(3);
                w.put_u64(*start);
                w.put_u64(*end);
                w.put_u64(*dropped);
            }
            Response::Subscribed => w.put_u8(4),
            Response::Unsubscribed => w.put_u8(5),
            Response::Deregistered => w.put_u8(6),
            Response::Stats(s) => {
                w.put_u8(7);
                s.encode(w)?;
            }
            Response::MetricsText { text } => {
                w.put_u8(8);
                w.put_str(text);
            }
            Response::Snapshot { bytes } => {
                w.put_u8(9);
                w.put_bytes(bytes);
            }
            Response::Drained => w.put_u8(10),
            Response::Pong => w.put_u8(11),
            Response::ShuttingDown => w.put_u8(12),
            Response::Error { code, message } => {
                w.put_u8(13);
                w.put_u32(u32::from(*code));
                w.put_str(message);
            }
            Response::Event(ev) => {
                w.put_u8(14);
                w.put_u64(ev.position);
                w.put_u32(ev.query.0);
                ev.valuation.encode(w)?;
            }
            Response::Rescaled { from, to, nanos } => {
                w.put_u8(15);
                w.put_u64(*from);
                w.put_u64(*to);
                w.put_u64(*nanos);
            }
            Response::AutoscaleStatus(s) => {
                w.put_u8(16);
                w.put_u8(u8::from(s.enabled));
                w.put_u64(s.shards);
                w.put_u64(s.rescales);
                w.put_u64(s.hot_streak);
                w.put_u64(s.cold_streak);
                w.put_u64(s.cooldown);
            }
            Response::CheckpointDone {
                position,
                epoch,
                bytes,
                full,
            } => {
                w.put_u8(17);
                w.put_u64(*position);
                w.put_u64(*epoch);
                w.put_u64(*bytes);
                w.put_u8(u8::from(*full));
            }
            Response::Durability(s) => {
                w.put_u8(18);
                w.put_u8(u8::from(s.healthy));
                w.put_u64(s.wal_segments);
                w.put_u64(s.wal_bytes);
                w.put_u64(s.wal_records);
                s.last_checkpoint_epoch.encode(w)?;
                s.last_checkpoint_position.encode(w)?;
                w.put_u64(s.chain_len);
            }
        }
        Ok(())
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.get_u8()? {
            0 => Response::Hello {
                version: r.get_u32()?,
            },
            1 => Response::RelationDeclared {
                id: RelationId::decode(r)?,
            },
            2 => Response::QueryAccepted {
                id: QueryId(r.get_u32()?),
            },
            3 => Response::Ingested {
                start: r.get_u64()?,
                end: r.get_u64()?,
                dropped: r.get_u64()?,
            },
            4 => Response::Subscribed,
            5 => Response::Unsubscribed,
            6 => Response::Deregistered,
            7 => Response::Stats(StatsSummary::decode(r)?),
            8 => Response::MetricsText { text: r.get_str()? },
            9 => Response::Snapshot {
                bytes: r.get_bytes()?.to_vec(),
            },
            10 => Response::Drained,
            11 => Response::Pong,
            12 => Response::ShuttingDown,
            13 => {
                let code32 = r.get_u32()?;
                let code = u16::try_from(code32)
                    .map_err(|_| WireError::Corrupt("error code out of u16 range"))?;
                Response::Error {
                    code,
                    message: r.get_str()?,
                }
            }
            14 => Response::Event(MatchEvent {
                position: r.get_u64()?,
                query: QueryId(r.get_u32()?),
                valuation: cer_automata::valuation::Valuation::decode(r)?,
            }),
            15 => Response::Rescaled {
                from: r.get_u64()?,
                to: r.get_u64()?,
                nanos: r.get_u64()?,
            },
            16 => Response::AutoscaleStatus(AutoscaleSummary {
                enabled: match r.get_u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::Corrupt("autoscale flag out of range")),
                },
                shards: r.get_u64()?,
                rescales: r.get_u64()?,
                hot_streak: r.get_u64()?,
                cold_streak: r.get_u64()?,
                cooldown: r.get_u64()?,
            }),
            17 => Response::CheckpointDone {
                position: r.get_u64()?,
                epoch: r.get_u64()?,
                bytes: r.get_u64()?,
                full: get_flag(r, "checkpoint full flag out of range")?,
            },
            18 => Response::Durability(DurabilitySummary {
                healthy: get_flag(r, "durability health flag out of range")?,
                wal_segments: r.get_u64()?,
                wal_bytes: r.get_u64()?,
                wal_records: r.get_u64()?,
                last_checkpoint_epoch: Option::<u64>::decode(r)?,
                last_checkpoint_position: Option::<u64>::decode(r)?,
                chain_len: r.get_u64()?,
            }),
            _ => return Err(WireError::Corrupt("unknown response tag")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cer_common::tuple::tup;

    #[test]
    fn frame_roundtrip_over_a_stream() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abc").unwrap();
        write_frame(&mut buf, b"d").unwrap();
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap().unwrap(),
            b"abc"
        );
        assert_eq!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap().unwrap(),
            b"d"
        );
        assert!(read_frame(&mut cursor, DEFAULT_MAX_FRAME)
            .unwrap()
            .is_none());
    }

    /// A writer that accepts everything and counts `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_one_write() {
        let mut w = CountingWriter::default();
        let payloads: [&[u8]; 3] = [b"abc", b"d", &[7u8; 5000]];
        for (i, p) in payloads.iter().enumerate() {
            write_frame(&mut w, p).unwrap();
            assert_eq!(w.writes, i + 1, "frame {i} took more than one write");
        }
        let mut cursor = io::Cursor::new(w.bytes);
        for p in payloads {
            assert_eq!(
                read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap().unwrap(),
                p
            );
        }
        assert!(read_frame(&mut cursor, DEFAULT_MAX_FRAME)
            .unwrap()
            .is_none());
    }

    #[test]
    fn oversized_and_empty_frames_are_rejected() {
        // Oversized: length prefix above the cap.
        let mut buf = 100u32.to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 100]);
        let err = read_frame(&mut io::Cursor::new(&buf), 10).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(matches!(parse_frame(&buf, 10), Err(WireError::Corrupt(_))));
        // Empty: zero-length payload.
        let buf = 0u32.to_le_bytes().to_vec();
        let err = read_frame(&mut io::Cursor::new(&buf), 10).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // EOF mid-frame.
        let mut buf = 8u32.to_le_bytes().to_vec();
        buf.extend_from_slice(&[1, 2, 3]);
        let err = read_frame(&mut io::Cursor::new(&buf), 10).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // parse_frame reports "incomplete", not an error, for the same.
        assert!(parse_frame(&buf, 10).unwrap().is_none());
    }

    #[test]
    fn request_roundtrip_all_ops() {
        let reqs = vec![
            Request::Hello {
                version: PROTOCOL_VERSION,
            },
            Request::DeclareRelation {
                name: "TEMP".into(),
                arity: 2,
            },
            Request::SubmitQuery {
                name: "q".into(),
                frontend: Frontend::Hcq,
                text: "Q(x) <- T(x)".into(),
                window: WindowPolicy::Count(8),
                partition: Some(Partition::ByKey { pos: 0 }),
                gc_every: 4,
            },
            Request::IngestBatch {
                tuples: vec![tup(RelationId(0), [1i64, 2])],
            },
            Request::Subscribe {
                query: Some(QueryId(3)),
                capacity: 128,
                policy: BackpressurePolicy::DropNewest,
            },
            Request::Unsubscribe,
            Request::Deregister { id: QueryId(1) },
            Request::Stats,
            Request::MetricsText,
            Request::Snapshot,
            Request::Drain,
            Request::Ping,
            Request::Shutdown,
            Request::Rescale { shards: 4 },
            Request::SetAutoscale { enabled: true },
            Request::AutoscaleStatus,
            Request::Checkpoint,
            Request::DurabilityStatus,
        ];
        for req in reqs {
            let bytes = encode_message(&req).unwrap();
            assert_eq!(decode_message::<Request>(&bytes).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn response_roundtrip_all_ops() {
        use cer_automata::valuation::Valuation;
        let resps = vec![
            Response::Hello {
                version: PROTOCOL_VERSION,
            },
            Response::RelationDeclared { id: RelationId(7) },
            Response::QueryAccepted { id: QueryId(2) },
            Response::Ingested {
                start: 10,
                end: 20,
                dropped: 1,
            },
            Response::Subscribed,
            Response::Unsubscribed,
            Response::Deregistered,
            Response::Stats(StatsSummary {
                shards: 4,
                queries: 2,
                next_position: 99,
                dropped: 0,
                events_overwritten: 3,
            }),
            Response::MetricsText {
                text: "# HELP x\n".into(),
            },
            Response::Snapshot {
                bytes: vec![1, 2, 3],
            },
            Response::Drained,
            Response::Pong,
            Response::ShuttingDown,
            Response::Error {
                code: 21,
                message: "no such query".into(),
            },
            Response::Event(MatchEvent {
                position: 5,
                query: QueryId(0),
                valuation: Valuation::empty(2),
            }),
            Response::Rescaled {
                from: 2,
                to: 4,
                nanos: 12_345,
            },
            Response::AutoscaleStatus(AutoscaleSummary {
                enabled: true,
                shards: 4,
                rescales: 2,
                hot_streak: 1,
                cold_streak: 0,
                cooldown: 3,
            }),
            Response::CheckpointDone {
                position: 1_000,
                epoch: 3,
                bytes: 4_096,
                full: false,
            },
            Response::Durability(DurabilitySummary {
                healthy: true,
                wal_segments: 2,
                wal_bytes: 1 << 20,
                wal_records: 512,
                last_checkpoint_epoch: Some(3),
                last_checkpoint_position: Some(1_000),
                chain_len: 2,
            }),
            Response::Durability(DurabilitySummary::default()),
        ];
        for resp in resps {
            let bytes = encode_message(&resp).unwrap();
            assert_eq!(
                decode_message::<Response>(&bytes).unwrap(),
                resp,
                "{resp:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_corruption() {
        let mut bytes = encode_message(&Request::Ping).unwrap();
        bytes.push(0);
        assert!(matches!(
            decode_message::<Request>(&bytes),
            Err(WireError::Corrupt(_))
        ));
    }
}
