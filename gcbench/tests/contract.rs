//! The metrics the benchmark prints are exactly the ones
//! `BENCHMARK.json` declares, with the same units, on every workload.

use gcbench::metrics::{end_to_end, per_layer, Metric};
use gcbench::{run, Size, Workload};

/// `(name, unit)` of every entry in the `section` array of
/// `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside gcbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    let field = |entry: &str, key: &str| {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        entry[at..at + entry[at..].find('"').expect("closing quote")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect()
}

fn printed(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn printed_metrics_match_the_declaration() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for w in Workload::ALL {
        let plain = run(w, &Size::tiny(), 3, 1, false);
        assert_eq!(printed(&end_to_end(&plain)), e2e, "{}", w.name());
        let traced = run(w, &Size::tiny(), 3, 1, true);
        assert_eq!(printed(&per_layer(&traced)), layers, "{}", w.name());
        for m in end_to_end(&plain) {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }
    }
}
