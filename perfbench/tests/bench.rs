//! Tests of the benchmark itself: a tiny run of every workload, the
//! negative cases (a corrupted golden text or a tampered report must be
//! counted as a failure, not timed), and agreement between the metric names
//! the program prints and those `BENCHMARK.json` declares.

use perfbench::result::{END_TO_END, PER_LAYER};
use perfbench::{paper, serve, Options, Workload};
use rsn_eval::{Backend, EvalError, WorkloadSpec, XnnAnalyticBackend};
use rsn_serve::json::{parse, JsonValue};
use std::sync::{Arc, Mutex};

/// Runs check that descriptors and threads return to their baseline, so
/// two runs must never overlap in this process.
static ONE_RUN_AT_A_TIME: Mutex<()> = Mutex::new(());

fn tiny(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: 0.3,
        trace,
        setup_repeats: 1,
    }
}

fn names(list: &[(&str, &str)]) -> Vec<String> {
    list.iter().map(|(name, _)| name.to_string()).collect()
}

#[test]
fn every_workload_runs_correctly_at_tiny_size() {
    let _guard = ONE_RUN_AT_A_TIME.lock().unwrap();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let outcome = perfbench::run(&tiny(workload, trace));
            let label = format!("{} trace={trace}", workload.name());
            assert!(
                outcome.correct(),
                "{label}:\n{}",
                outcome.table(&label, trace)
            );
            assert!(outcome.attempted > 0, "{label}");
            let line = parse(&outcome.json_line(trace)).expect("result line is JSON");
            let Some(JsonValue::Obj(metrics)) = line.get("metrics") else {
                panic!("{label}: no metrics object");
            };
            let printed: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            let declared = names(if trace { PER_LAYER } else { END_TO_END });
            assert_eq!(printed, declared, "{label}");
            if !trace {
                for (name, _) in END_TO_END {
                    let value = outcome.get(name).unwrap_or(0.0);
                    assert!(
                        value.is_finite() && value > 0.0,
                        "{label}: {name} = {value}"
                    );
                }
            }
        }
    }
}

#[test]
fn a_corrupted_golden_text_fails_every_round() {
    let _guard = ONE_RUN_AT_A_TIME.lock().unwrap();
    let mut goldens = paper::load_goldens().expect("golden texts");
    goldens[6].push_str("tampered\n");
    let outcome = paper::run(&tiny(Workload::PaperRepro, false), &goldens);
    assert!(!outcome.correct());
    assert!(outcome.attempted > 0);
    assert_eq!(outcome.failed, outcome.attempted);
}

#[test]
fn a_tampered_or_missing_report_is_caught() {
    let local = XnnAnalyticBackend::new();
    let specs = serve::MissSpecs::new(3, 0).take(16);
    let mut pairs: Vec<_> = specs
        .iter()
        .map(|spec| (spec.clone(), Arc::new(local.evaluate(spec))))
        .collect();
    let (verdicts, _) = serve::check_reports(&pairs);
    assert!(verdicts.iter().all(|ok| *ok), "untouched reports pass");

    let mut tampered = (*pairs[3].1).clone().expect("report");
    tampered.latency_s = tampered.latency_s.map(|l| l * (1.0 + f64::EPSILON));
    pairs[3].1 = Arc::new(Ok(tampered));
    pairs[9].1 = Arc::new(Err(EvalError::Remote {
        message: "no result for spec".to_string(),
    }));
    let (verdicts, _) = serve::check_reports(&pairs);
    let failed: Vec<usize> = (0..verdicts.len()).filter(|&i| !verdicts[i]).collect();
    assert_eq!(failed, [3, 9]);
}

#[test]
fn spec_streams_are_distinct_and_mixed() {
    let specs = serve::MissSpecs::new(1, 0).take(4096);
    let distinct: std::collections::HashSet<_> = specs.iter().collect();
    assert_eq!(
        distinct.len(),
        specs.len(),
        "remote_miss never repeats a spec"
    );
    let encoders = specs
        .iter()
        .filter(|s| matches!(s, WorkloadSpec::EncoderLayer { .. }))
        .count();
    assert!(
        (900..1150).contains(&encoders),
        "a quarter are encoder layers: {encoders}"
    );

    let mut mixed = serve::MixedSpecs::new(1);
    let drawn: Vec<_> = (0..4096).map(|_| mixed.draw().1).collect();
    let distinct: std::collections::HashSet<_> = drawn.iter().collect();
    let repeats = drawn.len() - distinct.len();
    assert!(
        repeats > 1000,
        "about half the arrivals repeat a hot spec: {repeats}"
    );
}

#[test]
fn benchmark_json_declares_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
    let declared = |key: &str| -> Vec<(String, String)> {
        let Some(JsonValue::Arr(items)) = doc.get(key) else {
            panic!("{key} is not a list");
        };
        items
            .iter()
            .map(|item| match (item.get("name"), item.get("unit")) {
                (Some(JsonValue::Str(name)), Some(JsonValue::Str(unit))) => {
                    (name.clone(), unit.clone())
                }
                _ => panic!("{key} entry without name and unit"),
            })
            .collect()
    };
    let pairs = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), pairs(END_TO_END));
    assert_eq!(declared("per_layer"), pairs(PER_LAYER));
    let Some(JsonValue::Arr(workloads)) = doc.get("workloads") else {
        panic!("workloads is not a list");
    };
    let workload_names: Vec<_> = workloads.iter().filter_map(|w| w.get("name")).collect();
    let expected: Vec<JsonValue> = Workload::ALL
        .iter()
        .map(|w| JsonValue::Str(w.name().to_string()))
        .collect();
    assert_eq!(workload_names, expected.iter().collect::<Vec<_>>());
}
