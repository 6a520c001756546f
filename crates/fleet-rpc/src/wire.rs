//! The VQRP frame grammar: what travels inside the length-prefixed
//! frames of `vaqem_runtime::wire`.
//!
//! A connection opens with an 8-byte **preamble** in each direction —
//! the `VQRP` magic and a `u32` little-endian protocol version — so a
//! mismatched peer (or a stray HTTP client) is refused before any frame
//! is parsed. After the preamble, the stream is a sequence of frames:
//! a `u32` little-endian payload length, then a payload of one tag byte
//! followed by the tag's body, encoded with the same handwritten
//! [`Codec`] discipline the durable store uses. The session payloads
//! ([`SessionRequest`], [`SessionOutcome`], [`SessionError`]) are the
//! fleet daemon's own types, serialized verbatim — the remote API *is*
//! the in-process API.
//!
//! Client-to-server tags occupy `0x01..=0x06`, server-to-client tags
//! `0x81..=0x87`; a server receiving a reply tag (or vice versa) treats
//! it as a decode error and drops the connection. Unknown tags and torn
//! bodies decode to `None`, never panic — sockets deliver hostile bytes.
//!
//! The replication pair rides the same grammar: a follower daemon
//! connects as an ordinary client and sends [`Frame::JournalAck`] (its
//! durable [`ShipCursor`]); the leader answers with
//! [`Frame::JournalShip`], whose payload is the byte-exact journal
//! slice (or snapshot body) `DurableStore::ship_since` produced — the
//! disk, wire, and replication formats are one discipline. An ack at
//! the leader's own cursor is a long poll: the answer waits for the
//! journal to move, or comes empty after a heartbeat.

use vaqem_fleet_service::{RpcMetricsReport, SessionError, SessionOutcome, SessionRequest};
use vaqem_runtime::persist::Codec;
use vaqem_runtime::ShipCursor;

/// The connection magic: the first four bytes either side sends.
pub const MAGIC: [u8; 4] = *b"VQRP";

/// Protocol version carried in the preamble; bumped on any frame-format
/// change. Version 2 widened `MetricsReply` with the pump
/// self-observation counters (`pump_cpu_micros`, `pump_passes`,
/// `pump_wakeups`). Version 3 encodes an outcome's ZNE protocol with the
/// config store's codec, which adds an order byte after the exponential
/// extrapolation tag.
pub const VERSION: u32 = 3;

/// Bytes of the connection preamble (magic + version).
pub const PREAMBLE_LEN: usize = 8;

/// The 8-byte preamble each side sends on connect.
pub fn preamble() -> [u8; PREAMBLE_LEN] {
    let mut out = [0u8; PREAMBLE_LEN];
    out[..4].copy_from_slice(&MAGIC);
    out[4..].copy_from_slice(&VERSION.to_le_bytes());
    out
}

/// Validates a peer's preamble: magic first (a foreign protocol), then
/// version (a stale peer). Returns the peer's version on success.
pub fn check_preamble(bytes: &[u8; PREAMBLE_LEN]) -> Result<u32, PreambleError> {
    if bytes[..4] != MAGIC {
        return Err(PreambleError::BadMagic([
            bytes[0], bytes[1], bytes[2], bytes[3],
        ]));
    }
    let version = u32::from_le_bytes(bytes[4..].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(PreambleError::VersionMismatch {
            peer: version,
            ours: VERSION,
        });
    }
    Ok(version)
}

/// Why a connection preamble was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreambleError {
    /// The first four bytes were not `VQRP` — not our protocol at all.
    BadMagic([u8; 4]),
    /// Right magic, wrong protocol version.
    VersionMismatch {
        /// The version the peer announced.
        peer: u32,
        /// The version this build speaks.
        ours: u32,
    },
}

impl std::fmt::Display for PreambleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PreambleError::BadMagic(m) => write!(f, "bad magic {m:?} (expected VQRP)"),
            PreambleError::VersionMismatch { peer, ours } => {
                write!(
                    f,
                    "protocol version mismatch: peer speaks {peer}, we speak {ours}"
                )
            }
        }
    }
}

impl std::error::Error for PreambleError {}

/// One protocol message. See the module docs for the tag layout.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: bind this connection's client identity. Every
    /// later submission on the connection runs as this client —
    /// identity is connection-scoped, not frame-scoped.
    Open {
        /// The client label (fairness lane + quota account).
        client: String,
    },
    /// Client → server: submit a tuning session. The `client` field of
    /// the carried request is overridden by the connection's bound
    /// identity.
    Submit {
        /// Client-chosen correlation token, echoed with the result.
        token: u64,
        /// The session request, verbatim.
        request: SessionRequest,
    },
    /// Client → server: how is my connection doing?
    Poll,
    /// Client → server: send me a metrics snapshot.
    Metrics {
        /// Correlation token, echoed with the reply.
        token: u64,
    },
    /// Client → server: goodbye — the server acks and closes this
    /// connection once the ack has flushed.
    Shutdown,
    /// Follower → leader: "my store durably holds everything up to this
    /// cursor — ship me what's next." The first ack on a connection
    /// subscribes it as a replication follower; `ShipCursor::default()`
    /// (generation 0, offset 0) requests a snapshot bootstrap.
    JournalAck {
        /// The follower's durable replication cursor.
        cursor: ShipCursor,
    },
    /// Server → client: identity bound, echoing the accepted label.
    OpenAck {
        /// The bound client label.
        client: String,
    },
    /// Server → client: a submitted session completed.
    Outcome {
        /// The submission's token.
        token: u64,
        /// The session outcome, verbatim.
        outcome: SessionOutcome,
    },
    /// Server → client: a submission concluded with a typed error
    /// (quota rejection, overload, tuning failure, protocol violation).
    Error {
        /// The submission's token.
        token: u64,
        /// The error, verbatim — remote clients see the same typed
        /// rejections in-process callers do.
        error: SessionError,
    },
    /// Server → client: answer to [`Frame::Poll`].
    PollReply {
        /// Sessions submitted on this connection and not yet answered.
        in_flight: u64,
        /// Results (outcomes or errors) delivered on this connection.
        completed: u64,
    },
    /// Server → client: answer to [`Frame::Metrics`].
    MetricsReply {
        /// The request's token, echoed.
        token: u64,
        /// The RPC front-end counters, in typed binary form.
        rpc: RpcMetricsReport,
        /// The full `FleetMetricsReport` rendered as a JSON document
        /// (the same bytes `metrics_report().to_json().render()`
        /// produces in-process).
        report_json: String,
    },
    /// Server → client: goodbye acknowledged; the connection closes
    /// after this frame.
    ShutdownAck,
    /// Leader → follower: answer to [`Frame::JournalAck`] — one
    /// shipment of journal bytes (or a snapshot body), exactly the
    /// `ShipBatch` the leader's `DurableStore::ship_since` produced.
    JournalShip {
        /// Where the follower stands after durably applying `payload`.
        cursor: ShipCursor,
        /// `true`: `payload` is a full snapshot body; `false`: raw
        /// framed journal records.
        snapshot: bool,
        /// The bytes to apply — possibly empty (already caught up).
        payload: Vec<u8>,
    },
}

fn encode_rpc_metrics(m: &RpcMetricsReport, out: &mut Vec<u8>) {
    for v in [
        m.connections_accepted,
        m.connections_open,
        m.connections_closed,
        m.frames_in,
        m.frames_out,
        m.bytes_in,
        m.bytes_out,
        m.decode_errors,
        m.overload_rejections,
        m.overload_closes,
        m.peak_pending_out_bytes,
        m.pump_cpu_micros,
        m.pump_passes,
        m.pump_wakeups,
    ] {
        v.encode(out);
    }
}

fn decode_rpc_metrics(input: &mut &[u8]) -> Option<RpcMetricsReport> {
    Some(RpcMetricsReport {
        connections_accepted: u64::decode(input)?,
        connections_open: u64::decode(input)?,
        connections_closed: u64::decode(input)?,
        frames_in: u64::decode(input)?,
        frames_out: u64::decode(input)?,
        bytes_in: u64::decode(input)?,
        bytes_out: u64::decode(input)?,
        decode_errors: u64::decode(input)?,
        overload_rejections: u64::decode(input)?,
        overload_closes: u64::decode(input)?,
        peak_pending_out_bytes: u64::decode(input)?,
        pump_cpu_micros: u64::decode(input)?,
        pump_passes: u64::decode(input)?,
        pump_wakeups: u64::decode(input)?,
    })
}

impl Codec for Frame {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Open { client } => {
                0x01u8.encode(out);
                client.encode(out);
            }
            Frame::Submit { token, request } => {
                0x02u8.encode(out);
                token.encode(out);
                request.encode(out);
            }
            Frame::Poll => 0x03u8.encode(out),
            Frame::Metrics { token } => {
                0x04u8.encode(out);
                token.encode(out);
            }
            Frame::Shutdown => 0x05u8.encode(out),
            Frame::JournalAck { cursor } => {
                0x06u8.encode(out);
                cursor.generation.encode(out);
                cursor.offset.encode(out);
            }
            Frame::OpenAck { client } => {
                0x81u8.encode(out);
                client.encode(out);
            }
            Frame::Outcome { token, outcome } => {
                0x82u8.encode(out);
                token.encode(out);
                outcome.encode(out);
            }
            Frame::Error { token, error } => {
                0x83u8.encode(out);
                token.encode(out);
                error.encode(out);
            }
            Frame::PollReply {
                in_flight,
                completed,
            } => {
                0x84u8.encode(out);
                in_flight.encode(out);
                completed.encode(out);
            }
            Frame::MetricsReply {
                token,
                rpc,
                report_json,
            } => {
                0x85u8.encode(out);
                token.encode(out);
                encode_rpc_metrics(rpc, out);
                report_json.encode(out);
            }
            Frame::ShutdownAck => 0x86u8.encode(out),
            Frame::JournalShip {
                cursor,
                snapshot,
                payload,
            } => {
                0x87u8.encode(out);
                cursor.generation.encode(out);
                cursor.offset.encode(out);
                snapshot.encode(out);
                payload.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(match u8::decode(input)? {
            0x01 => Frame::Open {
                client: String::decode(input)?,
            },
            0x02 => Frame::Submit {
                token: u64::decode(input)?,
                request: SessionRequest::decode(input)?,
            },
            0x03 => Frame::Poll,
            0x04 => Frame::Metrics {
                token: u64::decode(input)?,
            },
            0x05 => Frame::Shutdown,
            0x06 => Frame::JournalAck {
                cursor: ShipCursor {
                    generation: u64::decode(input)?,
                    offset: u64::decode(input)?,
                },
            },
            0x81 => Frame::OpenAck {
                client: String::decode(input)?,
            },
            0x82 => Frame::Outcome {
                token: u64::decode(input)?,
                outcome: SessionOutcome::decode(input)?,
            },
            0x83 => Frame::Error {
                token: u64::decode(input)?,
                error: SessionError::decode(input)?,
            },
            0x84 => Frame::PollReply {
                in_flight: u64::decode(input)?,
                completed: u64::decode(input)?,
            },
            0x85 => Frame::MetricsReply {
                token: u64::decode(input)?,
                rpc: decode_rpc_metrics(input)?,
                report_json: String::decode(input)?,
            },
            0x86 => Frame::ShutdownAck,
            0x87 => Frame::JournalShip {
                cursor: ShipCursor {
                    generation: u64::decode(input)?,
                    offset: u64::decode(input)?,
                },
                snapshot: bool::decode(input)?,
                payload: Vec::<u8>::decode(input)?,
            },
            _ => return None,
        })
    }
}

impl Frame {
    /// Whether this frame is one a *client* sends (the server refuses
    /// reply tags on its inbound side, and vice versa).
    pub fn is_client_frame(&self) -> bool {
        matches!(
            self,
            Frame::Open { .. }
                | Frame::Submit { .. }
                | Frame::Poll
                | Frame::Metrics { .. }
                | Frame::Shutdown
                | Frame::JournalAck { .. }
        )
    }

    /// Encodes this frame as one wire frame: length prefix + payload.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        self.encode(&mut payload);
        vaqem_runtime::wire::frame(&payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preamble_round_trips_and_rejects() {
        assert_eq!(check_preamble(&preamble()), Ok(VERSION));
        let mut wrong = preamble();
        wrong[0] = b'H';
        assert!(matches!(
            check_preamble(&wrong),
            Err(PreambleError::BadMagic(_))
        ));
        let mut stale = preamble();
        stale[4] = 0xFF;
        assert!(matches!(
            check_preamble(&stale),
            Err(PreambleError::VersionMismatch { .. })
        ));
    }

    #[test]
    fn control_frames_roundtrip() {
        for f in [
            Frame::Open {
                client: "tenant-3".into(),
            },
            Frame::Poll,
            Frame::Metrics { token: 9 },
            Frame::Shutdown,
            Frame::OpenAck {
                client: "tenant-3".into(),
            },
            Frame::PollReply {
                in_flight: 4,
                completed: 17,
            },
            Frame::ShutdownAck,
            Frame::JournalAck {
                cursor: ShipCursor {
                    generation: 3,
                    offset: 712,
                },
            },
            Frame::JournalShip {
                cursor: ShipCursor {
                    generation: 3,
                    offset: 900,
                },
                snapshot: false,
                payload: vec![1, 2, 3, 4, 5],
            },
            Frame::JournalShip {
                cursor: ShipCursor {
                    generation: 4,
                    offset: 8,
                },
                snapshot: true,
                payload: Vec::new(),
            },
        ] {
            let mut bytes = Vec::new();
            f.encode(&mut bytes);
            let back = Frame::decode(&mut bytes.as_slice()).expect("decodes");
            assert_eq!(back, f);
        }
    }

    #[test]
    fn unknown_tags_are_refused() {
        assert_eq!(Frame::decode(&mut [0x42u8].as_slice()), None);
        assert_eq!(Frame::decode(&mut [0xFFu8, 1, 2].as_slice()), None);
        let mut empty: &[u8] = &[];
        assert_eq!(Frame::decode(&mut empty), None);
    }

    #[test]
    fn truncated_bodies_are_refused() {
        for f in [
            Frame::Metrics { token: 77 },
            Frame::JournalAck {
                cursor: ShipCursor {
                    generation: 2,
                    offset: 4096,
                },
            },
            Frame::JournalShip {
                cursor: ShipCursor {
                    generation: 2,
                    offset: 4200,
                },
                snapshot: false,
                payload: vec![7; 32],
            },
        ] {
            let mut bytes = Vec::new();
            f.encode(&mut bytes);
            for cut in 0..bytes.len() {
                assert_eq!(Frame::decode(&mut &bytes[..cut]), None, "cut at {cut}");
            }
        }
    }
}
