//! The telemetry JSONL codec: `crisp-bench --telemetry` writes one
//! [`TelemetrySample`] object per line, and `crisp obs summarize` reads
//! the stream back, both through [`crate::json`].

use crate::json::{parse, Value};
use crisp_obs::{TelemetrySample, FIELD_NAMES, SAMPLE_FIELDS};

/// One telemetry sample as a JSONL line (no newline), tagged with the
/// cell id and sub-run label so merged streams stay attributable.
pub fn encode_sample(cell: &str, label: &str, s: &TelemetrySample) -> String {
    let mut pairs = vec![
        ("cell".to_string(), Value::Str(cell.to_string())),
        ("label".to_string(), Value::Str(label.to_string())),
    ];
    for (name, v) in FIELD_NAMES.iter().zip(s.values()) {
        pairs.push(((*name).to_string(), Value::Num(v as f64)));
    }
    Value::Obj(pairs).encode()
}

/// Parses a telemetry JSONL stream (one sample object per line, blank
/// lines skipped) back into samples. The reader is forward- and
/// backward-compatible by construction: unknown fields (including
/// strings and nested containers) are ignored, and [`FIELD_NAMES`]
/// fields absent from a line default to zero — so artifacts from both
/// older and newer schemas keep parsing as the sample schema grows.
///
/// # Errors
///
/// Returns a message naming the first malformed line (1-based).
pub fn parse_jsonl(input: &str) -> Result<Vec<TelemetrySample>, String> {
    let mut samples = Vec::new();
    for (i, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let obj = match parse(line) {
            Ok(v @ Value::Obj(_)) => v,
            Ok(_) => return Err(format!("line {}: not a JSON object", i + 1)),
            Err(e) => return Err(format!("line {}: {e}", i + 1)),
        };
        let mut values = [0u64; SAMPLE_FIELDS];
        for (v, name) in values.iter_mut().zip(FIELD_NAMES) {
            *v = obj
                .get(name)
                .and_then(Value::as_f64)
                .map_or(0, |x| x as u64);
        }
        samples.push(TelemetrySample::from_values(values));
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crisp_obs::{TelemetryInputs, TelemetryLog};

    #[test]
    fn samples_round_trip_past_the_string_tags() {
        let mut log = TelemetryLog::default();
        for i in 1..=2u64 {
            log.record(TelemetryInputs {
                cycle: i * 8192,
                retired: i * i * 4000,
                l1d_accesses: i * 900,
                l1d_misses: 80 + 10 * i,
                rob: 100 / i,
                ..TelemetryInputs::default()
            });
        }
        let text: String = log
            .samples()
            .iter()
            .map(|s| encode_sample("fig1/pointer_chase", "ooo", s))
            .collect::<Vec<_>>()
            .join("\n");
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed, log.samples());
    }

    #[test]
    fn malformed_lines_are_named() {
        assert!(parse_jsonl("not json").unwrap_err().contains("line 1"));
        let bad_num = "{\"cycle\": 1}\n\n{\"cycle\": xyz}";
        assert!(parse_jsonl(bad_num).unwrap_err().contains("line 3"));
        let torn = "{\"cycle\": 5, \"tags\": [1, 2";
        assert!(parse_jsonl(torn).unwrap_err().contains("line 1"));
        assert!(parse_jsonl("[1, 2]").unwrap_err().contains("line 1"));
    }

    #[test]
    fn parser_is_forward_compatible_with_schema_growth() {
        // A line from a hypothetical future schema: unknown scalar and
        // nested fields, a known field buried between them, and one
        // known field (`retired`) absent entirely.
        let future = "{\"schema\": 9, \"phases\": {\"fetch\": 10, \"tags\": \"[a]\"}, \
                      \"cycle\": 4096, \"hist\": [1, 2, 3], \"note\": \"ok\"}";
        let parsed = parse_jsonl(future).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].cycle, 4096);
        assert_eq!(parsed[0].retired, 0);
        // A line from an older schema missing newer fields still parses.
        let old = "{\"cycle\": 100, \"retired\": 42}";
        let parsed = parse_jsonl(old).unwrap();
        assert_eq!((parsed[0].cycle, parsed[0].retired), (100, 42));
    }
}
