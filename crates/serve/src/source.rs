//! Event-stream frontends: JSONL readers (strict and lossy) and the
//! batch-trace adapter.

use crate::error::ServeError;
use crate::event::ServeEvent;
use crate::wire;
use corral_model::JobSpec;
use std::io::BufRead;

/// Reads a JSONL event stream (see [`crate::wire`]) strictly: the first
/// malformed line aborts with an error carrying its 1-based line
/// number. Blank lines are skipped. Use [`read_events_lossy`] for a
/// frontend that degrades instead of aborting.
pub fn read_events(reader: impl BufRead) -> Result<Vec<ServeEvent>, ServeError> {
    let mut events = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| io_error(i, e))?;
        if line.trim().is_empty() {
            continue;
        }
        events.push(wire::parse_event(&line).map_err(|e| e.at_line(i as u64 + 1))?);
    }
    Ok(events)
}

/// Reads a JSONL event stream **lossily**: a malformed line becomes a
/// [`ServeEvent::Malformed`] (carrying the job id when one could be
/// recovered from the garbled line) instead of aborting, so one bad
/// producer cannot take the service down. Only I/O errors are fatal.
/// The returned stream is positionally aligned with the input — every
/// non-blank line yields exactly one event — which keeps snapshot
/// restore's skip-by-event-count correct across malformed input.
pub fn read_events_lossy(reader: impl BufRead) -> Result<Vec<ServeEvent>, ServeError> {
    let mut events = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| io_error(i, e))?;
        if line.trim().is_empty() {
            continue;
        }
        events.push(match wire::parse_event(&line) {
            Ok(ev) => ev,
            Err(_) => ServeEvent::Malformed {
                job: wire::lossy_job_id(&line),
            },
        });
    }
    Ok(events)
}

/// The I/O error of 0-based line `i`, with its 1-based line number.
fn io_error(i: usize, e: std::io::Error) -> ServeError {
    ServeError::Io(format!("line {}: {e}", i + 1))
}

/// Adapts a batch workload (e.g. a CSV trace) into an arrival stream,
/// sorted by `(arrival, id)`.
pub fn events_from_specs(specs: &[JobSpec]) -> Vec<ServeEvent> {
    let mut specs: Vec<JobSpec> = specs.to_vec();
    specs.sort_by(|a, b| a.arrival.total_cmp(b.arrival).then(a.id.cmp(&b.id)));
    specs.into_iter().map(ServeEvent::Arrival).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use corral_model::{Bandwidth, Bytes, JobId, MapReduceProfile, SimTime};

    fn spec(id: u32, arrival: f64) -> JobSpec {
        JobSpec::map_reduce(
            JobId(id),
            format!("j{id}"),
            MapReduceProfile {
                input: Bytes::gb(4.0),
                shuffle: Bytes::gb(2.0),
                output: Bytes::gb(0.4),
                maps: 12,
                reduces: 6,
                map_rate: Bandwidth::mbytes_per_sec(50.0),
                reduce_rate: Bandwidth::mbytes_per_sec(50.0),
            },
        )
        .arriving_at(SimTime(arrival))
    }

    #[test]
    fn read_errors_surface_as_io_with_their_line_number() {
        // Two blank lines, then a line that is not UTF-8.
        let text = b"\n\n\xff\xfe\n";
        for read in [read_events, read_events_lossy] {
            match read(&text[..]) {
                Err(ServeError::Io(msg)) => assert!(msg.starts_with("line 3: "), "{msg}"),
                other => panic!("expected an Io error, got {other:?}"),
            }
        }
    }

    #[test]
    fn jsonl_reader_skips_blanks_and_reports_line_numbers() {
        let text = format!(
            "{}\n\n{}\n",
            wire::format_event(&ServeEvent::Arrival(spec(1, 0.0))).unwrap(),
            wire::format_event(&ServeEvent::Completion {
                job: JobId(1),
                at: SimTime(9.0)
            })
            .unwrap(),
        );
        let events = read_events(text.as_bytes()).unwrap();
        assert_eq!(events.len(), 2);

        let err = read_events("{}\n".as_bytes()).unwrap_err().to_string();
        assert!(err.starts_with("line 1:"), "{err}");
    }

    #[test]
    fn lossy_reader_degrades_malformed_lines_in_place() {
        let good = wire::format_event(&ServeEvent::Arrival(spec(1, 0.0))).unwrap();
        let text = format!(
            "{good}\nnot json at all\n{{\"type\":\"mystery\",\"id\":7}}\n\n{good2}\n",
            good2 = wire::format_event(&ServeEvent::Completion {
                job: JobId(1),
                at: SimTime(9.0)
            })
            .unwrap(),
        );
        let events = read_events_lossy(text.as_bytes()).unwrap();
        // 4 non-blank lines → exactly 4 events, positions preserved.
        assert_eq!(events.len(), 4);
        assert!(matches!(events[0], ServeEvent::Arrival(_)));
        assert!(matches!(events[1], ServeEvent::Malformed { job: None }));
        assert!(matches!(
            events[2],
            ServeEvent::Malformed {
                job: Some(JobId(7))
            }
        ));
        assert!(matches!(events[3], ServeEvent::Completion { .. }));
    }

    #[test]
    fn specs_adapt_to_a_sorted_arrival_stream() {
        let events = events_from_specs(&[spec(2, 5.0), spec(3, 1.0), spec(1, 5.0)]);
        let order: Vec<u32> = events
            .iter()
            .map(|e| match e {
                ServeEvent::Arrival(s) => s.id.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, [3, 1, 2]);
    }
}
