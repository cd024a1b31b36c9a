//! Metric names and units: the vocabulary every later performance or
//! simplicity claim in this repository is made in. `BENCHMARK.json`
//! lists the same names; a test holds the two equal.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("records_per_s", "1/s"),
    ("records_per_s_1t", "1/s"),
    ("peak_heap_mb", "MB"),
    ("verdict_accuracy", "ratio"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported with `--trace 1`. Layer names are the
/// repository's modules.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("dns.wire.frames", "count"),
    ("dns.wire.undecodable", "count"),
    ("dns.wire.decode_ns_per_frame", "ns"),
    ("netsim.capture.ns_per_record", "ns"),
    ("netsim.capture.mb_per_s", "MB/s"),
    ("netsim.capture.frames", "count"),
    ("netsim.capture.filtered", "count"),
    ("netsim.capture.undecodable", "count"),
    ("netsim.capture.records", "count"),
    ("netsim.capture.self_share", "ratio"),
    ("netsim.capture.allocs_per_record", "count"),
    ("netsim.world.resolve_ns_per_querier", "ns"),
    ("sensor.ingest.push_ns_per_record", "ns"),
    ("sensor.ingest.flush_ms_per_window", "ms"),
    ("sensor.ingest.records_in", "count"),
    ("sensor.ingest.stored_share", "ratio"),
    ("sensor.ingest.originators_per_window", "count"),
    ("sensor.ingest.evicted_per_window", "count"),
    ("sensor.ingest.allocs_per_record", "count"),
    ("sensor.stream.push_ns_per_record", "ns"),
    ("sensor.stream.flush_ms_per_window", "ms"),
    ("sensor.shard.push_ns_per_record", "ns"),
    ("sensor.shard.flush_ms_per_window", "ms"),
    ("sensor.shard.lanes", "count"),
    ("sensor.shard.speedup", "ratio"),
    ("sensor.qmeta.unique_queriers_per_window", "count"),
    ("sensor.qmeta.cache_hit_share", "ratio"),
    ("sensor.qmeta.useful_share", "ratio"),
    ("sensor.qmeta.cold_build_ms_per_window", "ms"),
    ("sensor.qmeta.ns_per_unique_querier", "ns"),
    ("sensor.extract.ms_per_window", "ms"),
    ("sensor.extract.ns_per_pair", "ns"),
    ("sensor.extract.pairs_per_window", "count"),
    ("sensor.extract.originators_out_per_window", "count"),
    ("sensor.static.ns_per_name", "ns"),
    ("classify.train.ms_per_window", "ms"),
    ("classify.train.samples", "count"),
    ("classify.predict.ms_per_window", "ms"),
    ("classify.predict.rows_per_window", "count"),
    ("classify.predict.us_per_row", "us"),
    ("ml.forest.trees", "count"),
    ("ml.forest.fit_us_per_tree", "us"),
    ("ml.forest.predict_us_per_row", "us"),
    ("core.stream.driver_ns_per_record", "ns"),
    ("par.threads", "count"),
    ("par.speedup", "ratio"),
    ("par.cpu_over_wall", "ratio"),
    ("chain.ns_per_record", "ns"),
    ("chain.share.netsim.capture", "ratio"),
    ("chain.share.sensor.ingest.push", "ratio"),
    ("chain.share.sensor.ingest.flush", "ratio"),
    ("chain.share.sensor.extract", "ratio"),
    ("chain.share.classify.train", "ratio"),
    ("chain.share.classify.predict", "ratio"),
    ("chain.share.release", "ratio"),
    ("chain.window_close_ms_p50", "ms"),
    ("chain.window_close_ms_p90", "ms"),
    ("alloc.bytes_per_record", "B"),
    ("alloc.count_per_record", "count"),
    ("trace.spans", "count"),
    ("trace.unattributed_pct", "%"),
    ("trace.overhead_pct", "%"),
];

pub type Values = BTreeMap<&'static str, f64>;

/// Print every metric of `catalog` by name with its unit, and return
/// the `"metrics"` JSON object. A missing or non-finite value is a bug
/// in the benchmark, not a measurement: it panics.
pub fn render(catalog: &[(&'static str, &'static str)], values: &Values) -> String {
    let mut json = String::from("{");
    for (i, (name, unit)) in catalog.iter().enumerate() {
        let v = *values.get(name).unwrap_or_else(|| panic!("metric {name} was not measured"));
        assert!(v.is_finite(), "metric {name} is {v}");
        println!("{name:<44} {v:>16.6} {unit}");
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(json, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    json.push('}');
    json
}

/// The result line the driver reads: the last line of standard output.
pub fn result_line(attempted: usize, failed: usize, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics_json}}}",
        failed == 0
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units in `BENCHMARK.json`, in order, for one of
    /// its metric lists (a scan, since no JSON parser is at hand).
    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let end = body.find(']').expect("list closes");
        let field = |entry: &str, name: &str| {
            let at = entry.find(&format!("\"{name}\"")).expect("field present");
            let rest = &entry[at + name.len() + 2..];
            let open = rest.find('"').expect("string opens");
            let close = rest[open + 1..].find('"').expect("string closes");
            rest[open + 1..open + 1 + close].to_string()
        };
        body[..end]
            .split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed(&json, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&json, "per_layer"), own(&PER_LAYER));
        for shape in crate::gen::WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{}\"", shape.name)));
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
