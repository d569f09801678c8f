//! `BENCHMARK.json` must name exactly the workloads and metrics the binary
//! reports, with the same units and directions.

use hcapp_benchmark::metrics::{END_TO_END, PER_LAYER};
use hcapp_benchmark::workload::Workload;
use hcapp_telemetry::json::{parse, JsonValue};

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    match doc.get(key) {
        Some(JsonValue::Arr(items)) => items,
        other => panic!("{key} is not an array: {other:?}"),
    }
}

fn field<'a>(item: &'a JsonValue, key: &str) -> &'a str {
    item.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("missing string {key} in {item:?}"))
}

#[test]
fn metrics_match_the_binary() {
    let doc = benchmark_json();
    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let declared: Vec<(String, String, String)> = list(&doc, key)
            .iter()
            .map(|m| {
                (
                    field(m, "name").into(),
                    field(m, "unit").into(),
                    field(m, "better").into(),
                )
            })
            .collect();
        let reported: Vec<(String, String, String)> = table
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.as_str().to_string()))
            .collect();
        assert_eq!(declared, reported, "{key}");
    }
    for m in list(&doc, "end_to_end") {
        let bound = m.get("bound").and_then(JsonValue::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}", field(m, "name"));
    }
}

#[test]
fn workloads_match_the_binary() {
    let doc = benchmark_json();
    let declared: Vec<&str> = list(&doc, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared, known);
}
