//! Snapshot exporters: JSON and Prometheus text format.

use crate::json::escape as json_escape;
use crate::registry::Snapshot;
use std::fmt::Write;

/// Turn a dotted metric name into a Prometheus-safe one: `bs_` prefix,
/// every character outside `[a-zA-Z0-9_]` replaced by `_`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 3);
    out.push_str("bs_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

impl Snapshot {
    /// Serialize as a JSON document:
    ///
    /// ```json
    /// {
    ///   "counters":   { "netsim.contacts": 123 },
    ///   "gauges":     { "sensor.window_evicted": 0 },
    ///   "histograms": { "core.retrain": { "count": 2, "sum": 900,
    ///                     "max": 500, "p50": 447, "p90": 511, "p99": 511 } }
    /// }
    /// ```
    ///
    /// Histogram fields are in the recorded unit — nanoseconds for every
    /// span-fed histogram.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (k, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{}\": {}", json_escape(k), v);
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });
        out.push_str("  \"gauges\": {");
        first = true;
        for (k, v) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{}\": {}", json_escape(k), v);
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });
        out.push_str("  \"histograms\": {");
        first = true;
        for (k, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    \"{}\": {{ \"count\": {}, \"sum\": {}, \"max\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {} }}",
                json_escape(k),
                h.count,
                h.sum,
                h.max,
                h.p50,
                h.p90,
                h.p99
            );
        }
        out.push_str(if first { "}\n" } else { "\n  }\n" });
        out.push_str("}\n");
        out
    }

    /// Serialize in the Prometheus text exposition format. Histograms
    /// export as summaries (`quantile` labels plus `_sum`/`_count`).
    pub(crate) fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let n = prom_name(k);
            let _ = writeln!(out, "# TYPE {n} counter");
            let _ = writeln!(out, "{n} {v}");
        }
        for (k, v) in &self.gauges {
            let n = prom_name(k);
            let _ = writeln!(out, "# TYPE {n} gauge");
            let _ = writeln!(out, "{n} {v}");
        }
        for (k, h) in &self.histograms {
            let n = prom_name(k);
            let _ = writeln!(out, "# TYPE {n} summary");
            let _ = writeln!(out, "{n}{{quantile=\"0.5\"}} {}", h.p50);
            let _ = writeln!(out, "{n}{{quantile=\"0.9\"}} {}", h.p90);
            let _ = writeln!(out, "{n}{{quantile=\"0.99\"}} {}", h.p99);
            let _ = writeln!(out, "{n}_sum {}", h.sum);
            let _ = writeln!(out, "{n}_count {}", h.count);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HistogramSnapshot;

    fn sample() -> Snapshot {
        let mut s = Snapshot::default();
        s.counters.insert("netsim.contacts".into(), 42);
        s.counters.insert("sensor.stream.records".into(), 7);
        s.gauges.insert("sensor.window_evicted".into(), -1);
        s.histograms.insert(
            "core.retrain".into(),
            HistogramSnapshot { count: 2, sum: 900, max: 500, p50: 447, p90: 511, p99: 511 },
        );
        s
    }

    #[test]
    fn json_contains_every_metric_and_is_well_formed() {
        let j = sample().to_json();
        assert!(j.contains("\"netsim.contacts\": 42"));
        assert!(j.contains("\"sensor.stream.records\": 7"));
        assert!(j.contains("\"sensor.window_evicted\": -1"));
        assert!(j.contains("\"core.retrain\""));
        assert!(j.contains("\"p99\": 511"));
        // Structural sanity: balanced braces, quotes in pairs.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('"').count() % 2, 0);
        // No trailing commas before closing braces.
        assert!(!j.contains(",\n  }") || !j.contains(", }"));
        assert!(!j.contains(",}"));
    }

    #[test]
    fn empty_snapshot_is_valid_json() {
        let j = Snapshot::default().to_json();
        assert_eq!(j, "{\n  \"counters\": {},\n  \"gauges\": {},\n  \"histograms\": {}\n}\n");
    }

    #[test]
    fn json_escapes_awkward_names() {
        let mut s = Snapshot::default();
        s.counters.insert("weird\"name\\with\nstuff".into(), 1);
        let j = s.to_json();
        assert!(j.contains("weird\\\"name\\\\with\\nstuff"));
    }

    #[test]
    fn json_snapshot_parses_with_real_parser() {
        // Structural checks above are heuristic; this is the real test:
        // a snapshot full of hostile names must survive a JSON parser.
        let mut s = sample();
        s.counters.insert("quote\"back\\slash".into(), 1);
        s.counters.insert("newline\nand\ttab".into(), 2);
        s.counters.insert("ctrl\u{1}char".into(), 3);
        s.gauges.insert("gauge\"quoted\"".into(), -9);
        s.histograms.insert(
            "hist\\path".into(),
            HistogramSnapshot { count: 0, sum: 0, max: 0, p50: 0, p90: 0, p99: 0 },
        );
        let v = crate::json::parse(&s.to_json()).expect("snapshot_json must be valid JSON");
        let counters = v.get("counters").expect("counters object");
        assert_eq!(counters.get("quote\"back\\slash").and_then(|c| c.as_f64()), Some(1.0));
        assert_eq!(counters.get("newline\nand\ttab").and_then(|c| c.as_f64()), Some(2.0));
        assert_eq!(counters.get("ctrl\u{1}char").and_then(|c| c.as_f64()), Some(3.0));
        assert_eq!(
            v.get("gauges").and_then(|g| g.get("gauge\"quoted\"")).and_then(|g| g.as_f64()),
            Some(-9.0)
        );
        let h = v.get("histograms").and_then(|h| h.get("hist\\path")).expect("histogram");
        assert_eq!(h.get("count").and_then(|c| c.as_f64()), Some(0.0));
    }

    #[test]
    fn empty_json_snapshot_parses_too() {
        crate::json::parse(&Snapshot::default().to_json()).expect("empty snapshot is valid");
    }

    #[test]
    fn prometheus_names_are_sanitized() {
        assert_eq!(prom_name("core.retrain"), "bs_core_retrain");
        assert_eq!(prom_name("a.b-c/d e"), "bs_a_b_c_d_e");
        assert_eq!(prom_name("Já7"), "bs_J_7");
        assert_eq!(prom_name(""), "bs_");
    }

    #[test]
    fn prometheus_text_format_conformance() {
        let mut s = sample();
        s.counters.insert("weird name/with.bits".into(), 5);
        let p = s.to_prometheus();
        let mut typed: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
        for line in p.lines() {
            assert!(!line.is_empty(), "no blank lines in exposition output");
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                let name = parts.next().expect("TYPE line has a name");
                let kind = parts.next().expect("TYPE line has a kind");
                assert!(matches!(kind, "counter" | "gauge" | "summary"), "kind {kind}");
                assert!(typed.insert(name), "TYPE declared once per metric: {name}");
                continue;
            }
            // Sample line: `name value` or `name{quantile="q"} value`.
            let (name_part, value) = line.rsplit_once(' ').expect("sample line has a value");
            let base = name_part.split('{').next().unwrap();
            assert!(
                base.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "metric name {base:?} must be [a-zA-Z0-9_]"
            );
            assert!(value.parse::<f64>().is_ok(), "value {value:?} must be numeric");
            let owner = base
                .strip_suffix("_sum")
                .filter(|b| typed.contains(b))
                .or_else(|| base.strip_suffix("_count").filter(|b| typed.contains(b)))
                .unwrap_or(base);
            assert!(typed.contains(owner), "sample {base} precedes its TYPE line");
            if let Some(labels) = name_part.strip_prefix(base) {
                if !labels.is_empty() {
                    assert!(labels.starts_with("{quantile=\"") && labels.ends_with("\"}"));
                }
            }
        }
        // Summaries carry the full complement of lines.
        assert!(p.contains("bs_core_retrain_sum 900"));
        assert!(p.contains("bs_core_retrain_count 2"));
        assert!(p.contains("bs_core_retrain{quantile=\"0.5\"} 447"));
    }

    #[test]
    fn prometheus_format_lines() {
        let p = sample().to_prometheus();
        assert!(p.contains("# TYPE bs_netsim_contacts counter"));
        assert!(p.contains("bs_netsim_contacts 42"));
        assert!(p.contains("# TYPE bs_sensor_window_evicted gauge"));
        assert!(p.contains("bs_sensor_window_evicted -1"));
        assert!(p.contains("# TYPE bs_core_retrain summary"));
        assert!(p.contains("bs_core_retrain{quantile=\"0.5\"} 447"));
        assert!(p.contains("bs_core_retrain_sum 900"));
        assert!(p.contains("bs_core_retrain_count 2"));
    }

    #[test]
    fn global_snapshot_exports_via_free_functions() {
        let _g = crate::testutil::serial();
        crate::enable();
        crate::counter_add("export.test.counter", 5);
        crate::observe("export.test.hist", 100);
        let j = crate::snapshot_json();
        assert!(j.contains("\"export.test.counter\": 5"));
        let p = crate::snapshot_prometheus();
        assert!(p.contains("bs_export_test_counter 5"));
    }
}
