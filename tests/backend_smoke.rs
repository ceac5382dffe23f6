//! Smoke test of the unified evaluation layer: every registered backend
//! must produce a finite, nonzero report for a small BERT encoder segment
//! (or an equivalent workload it supports), and the relationships between
//! backends must hold (the roofline bound really is a lower bound, RSN-XNN
//! really beats the baselines).

use rsn::eval::{default_backends, Evaluator, WorkloadSpec};
use rsn::workloads::bert::BertConfig;

/// A BERT segment small enough for the cycle-level simulator and meaningful
/// for every analytic backend.
fn small_segment() -> WorkloadSpec {
    WorkloadSpec::EncoderLayer {
        cfg: BertConfig::tiny(8, 2),
    }
}

#[test]
fn every_backend_reports_finite_nonzero_for_a_small_bert_segment() {
    let workload = small_segment();
    for backend in default_backends() {
        assert!(
            backend.supports(&workload),
            "{} should support {}",
            backend.name(),
            workload.name()
        );
        let report = backend
            .evaluate(&workload)
            .unwrap_or_else(|e| panic!("{} failed: {e}", backend.name()));
        assert!(
            report.is_finite_nonzero(),
            "{} produced a degenerate report: {report:?}",
            backend.name()
        );
        assert_eq!(report.backend.as_ref(), backend.name());
        assert_eq!(report.workload.as_ref(), workload.name());
    }
}

#[test]
fn unsupported_workloads_are_rejected_not_fabricated() {
    let evaluator = Evaluator::new();
    // Only the cycle engine can answer an instruction-footprint question.
    let workload = WorkloadSpec::InstructionFootprint {
        m: 64,
        k: 64,
        n: 64,
    };
    let mut supported = 0;
    for (backend, result) in evaluator
        .backends()
        .iter()
        .zip(evaluator.evaluate(&workload))
    {
        if backend.supports(&workload) {
            supported += 1;
            assert!(result.is_ok(), "{} should answer", backend.name());
        } else {
            assert!(result.is_err(), "{} should decline", backend.name());
        }
    }
    assert_eq!(supported, 1);
}

#[test]
fn roofline_is_a_lower_bound_on_every_vck190_backend() {
    let evaluator = Evaluator::new();
    // A fixed grid: BERT-Large encoder layers over sequence length and
    // batch, and square GEMMs from 64 to 8192.
    let mut workloads = Vec::new();
    for seq in [64, 128, 256, 512] {
        for batch in [1, 2, 6, 8, 24] {
            workloads.push(WorkloadSpec::EncoderLayer {
                cfg: BertConfig::bert_large(seq, batch),
            });
        }
    }
    for n in [64, 256, 1024, 4096, 8192] {
        workloads.push(WorkloadSpec::SquareGemm { n });
    }
    for workload in &workloads {
        let reports = evaluator.evaluate_supported(workload);
        let roofline = reports
            .iter()
            .find(|(name, _)| name == "roofline-bound")
            .map(|(_, r)| r.latency_s.unwrap())
            .unwrap_or_else(|| panic!("roofline evaluated for {}", workload.name()));
        for (name, report) in &reports {
            // GPUs are different hardware; the VCK190 bound does not apply.
            if name.starts_with("gpu ") {
                continue;
            }
            let latency = report.latency_s.expect("latency present");
            assert!(
                latency >= roofline * 0.999,
                "{name} on {}: {latency} below roofline bound {roofline}",
                workload.name()
            );
        }
    }
}

#[test]
fn rsn_beats_overlay_and_charm_through_the_unified_layer() {
    let evaluator = Evaluator::new();
    let workload = WorkloadSpec::EncoderLayer {
        cfg: BertConfig::bert_large(512, 6),
    };
    let reports = evaluator.evaluate_supported(&workload);
    let latency = |name: &str| {
        reports
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, r)| r.latency_s.unwrap())
            .unwrap_or_else(|| panic!("{name} missing"))
    };
    let rsn = latency("rsn-xnn");
    // Paper: 2.47x over the overlay style, 6.1x over CHARM at batch 6.
    assert!(latency("overlay-style") / rsn > 1.8);
    assert!(latency("charm") / rsn > 3.5);
}

#[test]
fn cycle_backend_validates_against_reference_math() {
    let evaluator = Evaluator::new();
    for workload in [
        small_segment(),
        WorkloadSpec::FunctionalGemm {
            m: 16,
            k: 12,
            n: 20,
            seed: 3,
        },
        WorkloadSpec::FunctionalAttention {
            cfg: BertConfig::tiny(4, 1),
            seed: 5,
        },
    ] {
        let report = evaluator
            .backend("cycle-engine")
            .expect("cycle backend registered")
            .evaluate(&workload)
            .expect("small workloads fit the simulator");
        let stats = report.cycle.expect("cycle stats present");
        let err = stats.max_abs_error.expect("reference comparison ran");
        assert!(err < 1e-2, "{}: error {err}", workload.name());
        assert!(stats.uops_retired > 0);
        assert!(stats.fu_step_calls > 0);
    }
}
