//! `BENCHMARK.json` at the repository root lists exactly the metrics,
//! units and workloads this benchmark prints.

use lmds_perfbench::{E2E_METRICS, LAYER_METRICS, WORKLOADS};
use lmds_serve::json::{self, Value};

fn names_units(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json needs a {key:?} array"))
        .iter()
        .map(|m| {
            let field =
                |f: &str| m.get(f).and_then(Value::as_str).expect("string field").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn manifest_matches_the_metric_lists() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(names_units(&doc, "end_to_end"), listed(E2E_METRICS));
    assert_eq!(names_units(&doc, "per_layer"), listed(LAYER_METRICS));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name").to_string())
        .collect();
    assert_eq!(workloads, WORKLOADS);
}
