//! The JSONL wire format of `corral-sim serve`: one event per input
//! line, one decision per output line.
//!
//! Events (field names follow the workload CSV header):
//!
//! ```json
//! {"type":"arrival","id":1,"name":"w1-003","arrival_s":12.5,
//!  "input_b":1e9,"shuffle_b":5e8,"output_b":1e8,"maps":40,"reduces":10,
//!  "map_bps":5e7,"reduce_bps":5e7}
//! {"type":"completion","id":1,"t_s":340.2}
//! {"type":"machine_failed","machine":42,"t_s":500.0}
//! {"type":"machine_repaired","machine":42,"t_s":800.0}
//! {"type":"rack_failed","rack":3,"t_s":950.0}
//! ```
//!
//! `name` defaults to `job<id>`, `plannable` to `true`. Decisions go
//! out with fixed key order and `{}`-formatted floats (shortest exact
//! roundtrip), so same-input runs are byte-identical:
//!
//! ```json
//! {"t_s":12.5,"decision":"admit","job":1,"racks":[0,1],"priority":0,
//!  "start_s":12.5,"finish_s":64.1}
//! ```
//!
//! Parsing never panics: any malformed line returns a structured
//! [`ServeError::Parse`], and [`lossy_job_id`] recovers a best-effort
//! job id from broken lines so the service can answer with a
//! `"cause":"malformed"` reject instead of dying.

use crate::error::ServeError;
use crate::event::{Decision, ServeEvent};
use corral_model::{
    Bandwidth, Bytes, JobId, JobSpec, MachineId, MapReduceProfile, RackId, SimTime,
};
use corral_trace::json::{self, Value};
use std::fmt::Write as _;

fn need_f64(v: &Value, key: &str) -> Result<f64, ServeError> {
    v.get(key)
        .and_then(|x| x.as_f64())
        .ok_or_else(|| ServeError::parse(format!("missing/non-numeric field {key:?}")))
}

fn need_u64(v: &Value, key: &str) -> Result<u64, ServeError> {
    v.get(key)
        .and_then(|x| x.as_u64())
        .ok_or_else(|| ServeError::parse(format!("missing/non-integer field {key:?}")))
}

fn need_u32(v: &Value, key: &str) -> Result<u32, ServeError> {
    let raw = need_u64(v, key)?;
    u32::try_from(raw).map_err(|_| ServeError::parse(format!("field {key:?} out of range: {raw}")))
}

/// Parses one JSONL input line into a [`ServeEvent`].
pub fn parse_event(line: &str) -> Result<ServeEvent, ServeError> {
    let v = json::parse(line).map_err(ServeError::parse)?;
    let kind = v
        .get("type")
        .and_then(|x| x.as_str())
        .ok_or_else(|| ServeError::parse("missing \"type\""))?;
    match kind {
        "arrival" => {
            let id = need_u32(&v, "id")?;
            let name = v
                .get("name")
                .and_then(|x| x.as_str())
                .map(|s| s.to_string())
                .unwrap_or_else(|| format!("job{id}"));
            let plannable = match v.get("plannable") {
                Some(Value::Bool(b)) => *b,
                None => true,
                Some(_) => return Err(ServeError::parse("\"plannable\" must be a bool")),
            };
            let spec = JobSpec {
                id: JobId(id),
                name,
                arrival: SimTime(need_f64(&v, "arrival_s")?),
                plannable,
                profile: corral_model::JobProfile::MapReduce(MapReduceProfile {
                    input: Bytes(need_f64(&v, "input_b")?),
                    shuffle: Bytes(need_f64(&v, "shuffle_b")?),
                    output: Bytes(need_f64(&v, "output_b")?),
                    maps: need_u64(&v, "maps")? as usize,
                    reduces: need_u64(&v, "reduces")? as usize,
                    map_rate: Bandwidth(need_f64(&v, "map_bps")?),
                    reduce_rate: Bandwidth(need_f64(&v, "reduce_bps")?),
                }),
            };
            spec.validate()
                .map_err(|e| ServeError::parse(format!("invalid arrival: {e}")))?;
            Ok(ServeEvent::Arrival(spec))
        }
        "completion" => Ok(ServeEvent::Completion {
            job: JobId(need_u32(&v, "id")?),
            at: SimTime(need_f64(&v, "t_s")?),
        }),
        "machine_failed" => Ok(ServeEvent::MachineFailed {
            machine: MachineId(need_u32(&v, "machine")?),
            at: SimTime(need_f64(&v, "t_s")?),
        }),
        "machine_repaired" => Ok(ServeEvent::MachineRepaired {
            machine: MachineId(need_u32(&v, "machine")?),
            at: SimTime(need_f64(&v, "t_s")?),
        }),
        "rack_failed" => Ok(ServeEvent::RackFailed {
            rack: RackId(need_u32(&v, "rack")?),
            at: SimTime(need_f64(&v, "t_s")?),
        }),
        other => Err(ServeError::parse(format!("unknown event type {other:?}"))),
    }
}

/// Best-effort job id recovery from a line [`parse_event`] rejected:
/// if the line is still JSON with a numeric `id` (or `job`) field, that
/// id lets the service emit a structured malformed-reject for it.
pub fn lossy_job_id(line: &str) -> Option<JobId> {
    let v = json::parse(line).ok()?;
    let raw = v
        .get("id")
        .or_else(|| v.get("job"))
        .and_then(|x| x.as_u64())?;
    u32::try_from(raw).ok().map(JobId)
}

/// Serializes an event to its JSONL line (inverse of [`parse_event`]
/// for MapReduce arrivals; DAG jobs and [`ServeEvent::Malformed`]
/// markers are not wire-representable).
pub fn format_event(ev: &ServeEvent) -> Result<String, ServeError> {
    match ev {
        ServeEvent::Arrival(s) => {
            let mr = match &s.profile {
                corral_model::JobProfile::MapReduce(mr) => mr,
                corral_model::JobProfile::Dag(_) => {
                    return Err(ServeError::parse(format!(
                        "job {} is a DAG: not wire-representable",
                        s.id
                    )))
                }
            };
            let mut o = String::from("{\"type\":\"arrival\"");
            let _ = write!(o, ",\"id\":{}", s.id.0);
            o.push_str(",\"name\":");
            json::push_str_escaped(&mut o, &s.name);
            let _ = write!(o, ",\"arrival_s\":{}", s.arrival.0);
            if !s.plannable {
                o.push_str(",\"plannable\":false");
            }
            let _ = write!(o, ",\"input_b\":{}", mr.input.0);
            let _ = write!(o, ",\"shuffle_b\":{}", mr.shuffle.0);
            let _ = write!(o, ",\"output_b\":{}", mr.output.0);
            let _ = write!(o, ",\"maps\":{}", mr.maps);
            let _ = write!(o, ",\"reduces\":{}", mr.reduces);
            let _ = write!(o, ",\"map_bps\":{}", mr.map_rate.0);
            let _ = write!(o, ",\"reduce_bps\":{}", mr.reduce_rate.0);
            o.push('}');
            Ok(o)
        }
        ServeEvent::Completion { job, at } => Ok(format!(
            "{{\"type\":\"completion\",\"id\":{},\"t_s\":{}}}",
            job.0, at.0
        )),
        ServeEvent::MachineFailed { machine, at } => Ok(format!(
            "{{\"type\":\"machine_failed\",\"machine\":{},\"t_s\":{}}}",
            machine.0, at.0
        )),
        ServeEvent::MachineRepaired { machine, at } => Ok(format!(
            "{{\"type\":\"machine_repaired\",\"machine\":{},\"t_s\":{}}}",
            machine.0, at.0
        )),
        ServeEvent::RackFailed { rack, at } => Ok(format!(
            "{{\"type\":\"rack_failed\",\"rack\":{},\"t_s\":{}}}",
            rack.0, at.0
        )),
        ServeEvent::Malformed { .. } => Err(ServeError::parse(
            "malformed-line markers are not wire-representable",
        )),
    }
}

fn racks_json(racks: &[RackId]) -> String {
    let mut o = String::from("[");
    for (i, r) in racks.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let _ = write!(o, "{}", r.0);
    }
    o.push(']');
    o
}

/// Serializes one timestamped decision to its JSONL line.
pub fn format_decision(t: SimTime, d: &Decision) -> String {
    let mut o = String::new();
    let _ = write!(o, "{{\"t_s\":{},\"decision\":\"{}\"", t.0, d.label());
    let _ = write!(o, ",\"job\":{}", d.job().0);
    match d {
        Decision::Admit {
            racks,
            priority,
            planned_start,
            planned_finish,
            ..
        }
        | Decision::Reanchor {
            racks,
            priority,
            planned_start,
            planned_finish,
            ..
        } => {
            let _ = write!(
                o,
                ",\"racks\":{},\"priority\":{},\"start_s\":{},\"finish_s\":{}",
                racks_json(racks),
                priority,
                planned_start.0,
                planned_finish.0
            );
        }
        Decision::Reject { cause, .. } => {
            let _ = write!(o, ",\"cause\":\"{}\"", cause.label());
        }
        Decision::Dispatch {
            racks, priority, ..
        } => {
            let _ = write!(
                o,
                ",\"racks\":{},\"priority\":{}",
                racks_json(racks),
                priority
            );
        }
        Decision::Complete { .. } => {}
    }
    o.push('}');
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::RejectCause;

    fn arrival() -> ServeEvent {
        ServeEvent::Arrival(JobSpec::map_reduce(
            JobId(3),
            "w1-003",
            MapReduceProfile {
                input: Bytes(1e9),
                shuffle: Bytes(5e8),
                output: Bytes(1.25e8),
                maps: 40,
                reduces: 10,
                map_rate: Bandwidth(5e7),
                reduce_rate: Bandwidth(5e7),
            },
        ))
    }

    #[test]
    fn events_roundtrip() {
        for ev in [
            arrival(),
            ServeEvent::Completion {
                job: JobId(3),
                at: SimTime(340.25),
            },
            ServeEvent::MachineFailed {
                machine: MachineId(42),
                at: SimTime(500.0),
            },
            ServeEvent::MachineRepaired {
                machine: MachineId(42),
                at: SimTime(800.5),
            },
            ServeEvent::RackFailed {
                rack: RackId(3),
                at: SimTime(950.0),
            },
        ] {
            let line = format_event(&ev).unwrap();
            assert_eq!(parse_event(&line).unwrap(), ev, "line: {line}");
        }
        assert!(format_event(&ServeEvent::Malformed { job: None }).is_err());
    }

    #[test]
    fn arrival_defaults_and_validation() {
        let ev = parse_event(
            r#"{"type":"arrival","id":7,"arrival_s":1.5,"input_b":1e9,"shuffle_b":1e8,
                "output_b":1e7,"maps":4,"reduces":2,"map_bps":5e7,"reduce_bps":5e7}"#,
        )
        .unwrap();
        match ev {
            ServeEvent::Arrival(s) => {
                assert_eq!(s.name, "job7");
                assert!(s.plannable);
            }
            _ => panic!("not an arrival"),
        }
        // Invalid specs are rejected at the wire.
        assert!(parse_event(
            r#"{"type":"arrival","id":7,"arrival_s":1.5,"input_b":1e9,"shuffle_b":1e8,
                "output_b":1e7,"maps":0,"reduces":2,"map_bps":5e7,"reduce_bps":5e7}"#,
        )
        .is_err());
        assert!(parse_event(r#"{"type":"mystery"}"#).is_err());
        assert!(parse_event(r#"{"id":1}"#).is_err());
        assert!(parse_event("not json").is_err());
        // Ids past u32 are structured errors, not silent truncation.
        assert!(parse_event(r#"{"type":"completion","id":4294967296,"t_s":1}"#).is_err());
        assert!(parse_event(r#"{"type":"machine_failed","machine":-1,"t_s":1}"#).is_err());
    }

    #[test]
    fn lossy_id_recovery() {
        // Parseable JSON, unparseable event: id is recoverable.
        assert_eq!(lossy_job_id(r#"{"type":"mystery","id":9}"#), Some(JobId(9)));
        assert_eq!(lossy_job_id(r#"{"job":4,"t_s":"oops"}"#), Some(JobId(4)));
        // No id, non-numeric id, or not JSON at all: nothing to say.
        assert_eq!(lossy_job_id(r#"{"type":"arrival"}"#), None);
        assert_eq!(lossy_job_id(r#"{"id":"seven"}"#), None);
        assert_eq!(lossy_job_id(r#"{"id":4294967296}"#), None);
        assert_eq!(lossy_job_id("not json"), None);
    }

    #[test]
    fn decision_lines_are_stable() {
        let d = Decision::Admit {
            job: JobId(1),
            racks: vec![RackId(0), RackId(2)],
            priority: 0,
            planned_start: SimTime(12.5),
            planned_finish: SimTime(64.0),
        };
        assert_eq!(
            format_decision(SimTime(12.5), &d),
            r#"{"t_s":12.5,"decision":"admit","job":1,"racks":[0,2],"priority":0,"start_s":12.5,"finish_s":64}"#
        );
        let r = Decision::Reject {
            job: JobId(2),
            cause: RejectCause::QueueFull,
        };
        assert_eq!(
            format_decision(SimTime(1.0), &r),
            r#"{"t_s":1,"decision":"reject","job":2,"cause":"queue_full"}"#
        );
        let m = Decision::Reject {
            job: JobId(5),
            cause: RejectCause::Malformed,
        };
        assert_eq!(
            format_decision(SimTime(2.0), &m),
            r#"{"t_s":2,"decision":"reject","job":5,"cause":"malformed"}"#
        );
        let re = Decision::Reanchor {
            job: JobId(7),
            racks: vec![RackId(1)],
            priority: 2,
            planned_start: SimTime(20.0),
            planned_finish: SimTime(95.5),
        };
        assert_eq!(
            format_decision(SimTime(18.0), &re),
            r#"{"t_s":18,"decision":"reanchor","job":7,"racks":[1],"priority":2,"start_s":20,"finish_s":95.5}"#
        );
        // Decision lines parse as JSON (and are thus machine-readable).
        for line in [
            format_decision(SimTime(12.5), &d),
            format_decision(SimTime(1.0), &r),
            format_decision(SimTime(2.0), &m),
            format_decision(SimTime(18.0), &re),
        ] {
            assert!(json::parse(&line).is_ok());
        }
    }
}
