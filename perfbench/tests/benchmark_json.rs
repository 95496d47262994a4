//! `BENCHMARK.json` must list exactly the metrics the benchmark prints.

use hirise_lab::json::{self, Json};
use hirise_perfbench::outcome::END_TO_END;
use hirise_perfbench::split::per_layer_metrics;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry.get(key).and_then(Json::as_str).expect("string field")
}

#[test]
fn end_to_end_metrics_match() {
    let doc = benchmark_json();
    let listed: Vec<(&str, &str)> = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end list")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect();
    assert_eq!(listed, END_TO_END.to_vec());
}

#[test]
fn per_layer_metrics_match() {
    let doc = benchmark_json();
    let listed: Vec<(String, &str, &str)> = doc
        .get("per_layer")
        .and_then(Json::as_arr)
        .expect("per_layer list")
        .iter()
        .map(|m| {
            (
                field(m, "name").to_string(),
                field(m, "unit"),
                field(m, "better"),
            )
        })
        .collect();
    assert_eq!(listed, per_layer_metrics());
}
