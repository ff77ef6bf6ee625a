//! Tiny-size smoke runs of every workload in both modes, so a harness
//! break fails here in seconds instead of in a full benchmark run.

use zonal_perfbench::{run, Opts, Outcome, Size, Workload, END_TO_END, PER_LAYER};

fn tiny(workload: Workload, trace: bool) -> Opts {
    Opts {
        workload,
        seed: 7,
        seconds: 0.3,
        trace,
        size: Size::Tiny,
        trace_dir: None,
    }
}

fn assert_reports(outcome: &Outcome, spec: &[(&str, &str)], what: &str) {
    let got: Vec<(&str, &str)> = outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(got, spec, "{what}: metric names and units");
    for m in &outcome.metrics {
        assert!(m.value.is_finite(), "{what}: {} = {}", m.name, m.value);
    }
    assert!(outcome.correct, "{what}: {:#?}", outcome.notes);
    assert!(outcome.attempted > 0, "{what}: nothing attempted");
    assert_eq!(outcome.failed, 0, "{what}: {:#?}", outcome.notes);
}

#[test]
fn every_workload_runs_untraced() {
    for w in Workload::ALL {
        let outcome = run(&tiny(w, false));
        assert_reports(&outcome, END_TO_END, w.name());
        for m in &outcome.metrics {
            assert!(
                m.value > 0.0,
                "{}: end-to-end {} must not be 0",
                w.name(),
                m.name
            );
        }
    }
}

#[test]
fn every_workload_runs_traced() {
    for w in Workload::ALL {
        let outcome = run(&tiny(w, true));
        assert_reports(&outcome, PER_LAYER, w.name());
        let get = |name: &str| outcome.metric(name).unwrap();
        assert!(get("obs.events") > 0.0, "{}: empty trace", w.name());
        assert_eq!(
            get("obs.dropped"),
            0.0,
            "{}: trace dropped events",
            w.name()
        );
        for layer in [
            "geo.zones_s",
            "raster.generate_s",
            "bqtree.decode_s",
            "zonal.step4_s",
        ] {
            assert!(get(layer) > 0.0, "{}: {layer} not measured", w.name());
        }
        let serving = w == Workload::ServeUpdate;
        assert_eq!(get("serve.mean_batch") > 0.0, serving, "{}", w.name());
        assert_eq!(
            get("cluster.failed_ranks"),
            if w == Workload::ClusterRecovery {
                1.0
            } else {
                0.0
            },
            "{}",
            w.name()
        );
    }
}

#[test]
fn traced_run_writes_a_valid_chrome_trace() {
    let dir = std::env::temp_dir().join(format!("zonal-perfbench-smoke-{}", std::process::id()));
    let mut opts = tiny(Workload::BatchConus, true);
    opts.trace_dir = Some(dir.clone());
    let outcome = run(&opts);
    assert!(outcome.correct, "{:#?}", outcome.notes);
    let path = dir.join("batch-conus-seed7.json");
    let text = std::fs::read_to_string(&path).expect("trace file written");
    std::fs::remove_dir_all(&dir).ok();
    let summary = zonal_obs::validate_chrome_json(&text).expect("trace-check accepts it");
    assert!(summary.n_spans > 0);
}

#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = serde_json::value_from_str(&text).expect("BENCHMARK.json parses");
    let table = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.as_seq())
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |spec: &[(&str, &str)]| -> Vec<(String, String)> {
        spec.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(table("end_to_end"), own(END_TO_END));
    assert_eq!(table("per_layer"), own(PER_LAYER));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(|v| v.as_seq())
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap().to_string())
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let outcome = Outcome {
        correct: true,
        attempted: 3,
        failed: 0,
        metrics: vec![zonal_perfbench::Metric {
            name: "wall_s",
            unit: "s",
            value: 2.0,
        }],
        notes: vec![],
    };
    let line = outcome.to_json();
    let v = serde_json::value_from_str(&line).expect("result line is JSON");
    let keys: Vec<&str> = v
        .as_map()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        line,
        r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"wall_s": {"value": 2.0, "unit": "s"}}}"#
    );
}
