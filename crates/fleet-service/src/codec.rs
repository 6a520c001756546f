//! Byte codecs for the session types the RPC wire protocol carries.
//!
//! The `vaqem-fleet-rpc` front-end moves [`SessionRequest`]s in and
//! [`SessionOutcome`]s / [`SessionError`]s out **verbatim** — the remote
//! API is the in-process API, serialized. The encodings follow the same
//! handwritten little-endian [`Codec`] discipline the durable store uses
//! (`vaqem_runtime::persist`): fixed-width scalars, `u32`-counted
//! sequences, one tag byte per enum, and `decode` that returns `None`
//! on any truncation or unknown tag instead of panicking — hostile
//! bytes from a socket must never take the reactor down.
//!
//! The mitigation types inside an outcome ([`MitigationConfig`],
//! `DdSequence`, `ZneConfig`) are foreign to this crate *and* to the
//! runtime crate, so they are encoded through helper functions rather
//! than `Codec` impls (the orphan rule). The DD sequence and ZNE protocol
//! go through the core crate's store codec functions
//! ([`dd_sequence_tag`], [`encode_zne`] and their inverses), so the wire
//! and the journal write these types with the same bytes.

use vaqem::window_tuner::{dd_sequence_from_tag, dd_sequence_tag, decode_zne, encode_zne};
use vaqem_mitigation::combined::MitigationConfig;
use vaqem_runtime::persist::Codec;

use crate::daemon::{SessionError, SessionKind, SessionOutcome, SessionRequest};
use crate::quota::QuotaError;

impl Codec for SessionKind {
    fn encode(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            SessionKind::Dd => 0,
            SessionKind::Gs => 1,
            SessionKind::Combined => 2,
            SessionKind::Zne => 3,
            SessionKind::CombinedZne => 4,
        };
        tag.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(match u8::decode(input)? {
            0 => SessionKind::Dd,
            1 => SessionKind::Gs,
            2 => SessionKind::Combined,
            3 => SessionKind::Zne,
            4 => SessionKind::CombinedZne,
            _ => return None,
        })
    }
}

impl Codec for SessionRequest {
    fn encode(&self, out: &mut Vec<u8>) {
        self.client.encode(out);
        self.t_hours.encode(out);
        self.params.encode(out);
        self.device.encode(out);
        self.kind.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(SessionRequest {
            client: String::decode(input)?,
            t_hours: f64::decode(input)?,
            params: Vec::<f64>::decode(input)?,
            device: Option::<usize>::decode(input)?,
            kind: SessionKind::decode(input)?,
        })
    }
}

fn encode_mitigation(config: &MitigationConfig, out: &mut Vec<u8>) {
    config.gate_positions.encode(out);
    config.dd_repetitions.encode(out);
    config.dd_sequence.map(dd_sequence_tag).encode(out);
    match &config.zne {
        None => 0u8.encode(out),
        Some(zne) => {
            1u8.encode(out);
            encode_zne(zne, out);
        }
    }
}

fn decode_mitigation(input: &mut &[u8]) -> Option<MitigationConfig> {
    let gate_positions = Vec::<f64>::decode(input)?;
    let dd_repetitions = Vec::<usize>::decode(input)?;
    let dd_sequence = match Option::<u8>::decode(input)? {
        None => None,
        Some(tag) => Some(dd_sequence_from_tag(tag)?),
    };
    let zne = match u8::decode(input)? {
        0 => None,
        1 => Some(decode_zne(input)?),
        _ => return None,
    };
    Some(MitigationConfig {
        gate_positions,
        dd_repetitions,
        dd_sequence,
        zne,
    })
}

impl Codec for SessionOutcome {
    fn encode(&self, out: &mut Vec<u8>) {
        self.client.encode(out);
        self.device.encode(out);
        self.device_name.encode(out);
        self.epoch.encode(out);
        self.hits.encode(out);
        self.misses.encode(out);
        self.guard_rejected.encode(out);
        self.evaluations.encode(out);
        self.minutes.encode(out);
        self.invalidated.encode(out);
        self.sequence.encode(out);
        encode_mitigation(&self.config, out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(SessionOutcome {
            client: String::decode(input)?,
            device: usize::decode(input)?,
            device_name: String::decode(input)?,
            epoch: u64::decode(input)?,
            hits: usize::decode(input)?,
            misses: usize::decode(input)?,
            guard_rejected: bool::decode(input)?,
            evaluations: usize::decode(input)?,
            minutes: f64::decode(input)?,
            invalidated: usize::decode(input)?,
            sequence: u64::decode(input)?,
            config: decode_mitigation(input)?,
        })
    }
}

impl Codec for QuotaError {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            QuotaError::InFlightExceeded { client, limit } => {
                0u8.encode(out);
                client.encode(out);
                limit.encode(out);
            }
            QuotaError::BudgetExhausted {
                client,
                limit_min,
                used_min,
                requested_min,
                epoch,
            } => {
                1u8.encode(out);
                client.encode(out);
                limit_min.encode(out);
                used_min.encode(out);
                requested_min.encode(out);
                epoch.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(match u8::decode(input)? {
            0 => QuotaError::InFlightExceeded {
                client: String::decode(input)?,
                limit: usize::decode(input)?,
            },
            1 => QuotaError::BudgetExhausted {
                client: String::decode(input)?,
                limit_min: f64::decode(input)?,
                used_min: f64::decode(input)?,
                requested_min: f64::decode(input)?,
                epoch: u64::decode(input)?,
            },
            _ => return None,
        })
    }
}

impl Codec for SessionError {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            SessionError::Quota(e) => {
                0u8.encode(out);
                e.encode(out);
            }
            SessionError::Tuning(msg) => {
                1u8.encode(out);
                msg.encode(out);
            }
            SessionError::Overloaded {
                pending_out_bytes,
                limit,
            } => {
                2u8.encode(out);
                pending_out_bytes.encode(out);
                limit.encode(out);
            }
            SessionError::Protocol(msg) => {
                3u8.encode(out);
                msg.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(match u8::decode(input)? {
            0 => SessionError::Quota(QuotaError::decode(input)?),
            1 => SessionError::Tuning(String::decode(input)?),
            2 => SessionError::Overloaded {
                pending_out_bytes: usize::decode(input)?,
                limit: usize::decode(input)?,
            },
            3 => SessionError::Protocol(String::decode(input)?),
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaqem_mitigation::dd::DdSequence;
    use vaqem_mitigation::zne::{Extrapolation, ZneConfig};

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(value: &T) {
        let mut bytes = Vec::new();
        value.encode(&mut bytes);
        let mut input = bytes.as_slice();
        let back = T::decode(&mut input).expect("decodes");
        assert_eq!(&back, value);
        assert!(input.is_empty(), "decode consumed everything");
    }

    #[test]
    fn request_roundtrips() {
        roundtrip(&SessionRequest {
            client: "tenant-7".into(),
            t_hours: 13.25,
            params: vec![0.1, -0.9, 3.0],
            device: Some(2),
            kind: SessionKind::CombinedZne,
        });
        roundtrip(&SessionRequest {
            client: String::new(),
            t_hours: 0.0,
            params: Vec::new(),
            device: None,
            kind: SessionKind::Dd,
        });
    }

    #[test]
    fn errors_roundtrip() {
        roundtrip(&SessionError::Quota(QuotaError::InFlightExceeded {
            client: "g".into(),
            limit: 2,
        }));
        roundtrip(&SessionError::Quota(QuotaError::BudgetExhausted {
            client: "g".into(),
            limit_min: 10.0,
            used_min: 9.5,
            requested_min: 1.25,
            epoch: 3,
        }));
        roundtrip(&SessionError::Tuning("device on fire".into()));
        roundtrip(&SessionError::Overloaded {
            pending_out_bytes: 300_000,
            limit: 262_144,
        });
        roundtrip(&SessionError::Protocol("submit before open".into()));
    }

    #[test]
    fn outcome_with_full_mitigation_roundtrips() {
        for extrapolation in [
            Extrapolation::Richardson { order: 2 },
            Extrapolation::Exponential,
        ] {
            let zne = ZneConfig::new(vec![0, 1, 2], extrapolation);
            let outcome = SessionOutcome {
                client: "c0".into(),
                device: 1,
                device_name: "ibmq_test".into(),
                epoch: 4,
                hits: 10,
                misses: 3,
                guard_rejected: false,
                evaluations: 96,
                minutes: 12.75,
                invalidated: 1,
                sequence: 42,
                config: MitigationConfig {
                    gate_positions: vec![0.0, 0.5, 1.0],
                    dd_repetitions: vec![2, 0, 4],
                    dd_sequence: Some(DdSequence::Xy4),
                    zne: Some(zne.clone()),
                },
            };
            let mut bytes = Vec::new();
            outcome.encode(&mut bytes);
            // The ZNE protocol closes the outcome, in the store's bytes.
            let mut store_bytes = vec![1u8];
            encode_zne(&zne, &mut store_bytes);
            assert!(bytes.ends_with(&store_bytes), "{extrapolation:?}");
            let back = SessionOutcome::decode(&mut bytes.as_slice()).unwrap();
            assert_eq!(back.client, outcome.client);
            assert_eq!(back.sequence, outcome.sequence);
            assert_eq!(back.config, outcome.config);
            assert_eq!(back.minutes, outcome.minutes);
        }
    }

    #[test]
    fn unknown_tags_decode_to_none() {
        assert!(SessionKind::decode(&mut [9u8].as_slice()).is_none());
        assert!(SessionError::decode(&mut [9u8].as_slice()).is_none());
        assert!(QuotaError::decode(&mut [9u8].as_slice()).is_none());
    }
}
