//! The functional grid a paper-reproduction round evaluates on the cycle
//! engine: tiny encoder layers at L=8/32/64, functional GEMMs 32³ and 64³,
//! functional attention at L=16/64 (all B=2) and a 4096-value scalar
//! pipeline.
//!
//! * Host-side changes to the simulator (buffer reuse, scheduling) must not
//!   move a single simulated cycle or FU step: the grid's totals are pinned.
//! * The cycle backend's cost hints rank the grid well enough that the
//!   serving layer's cost-balanced split gives its two workers near-equal
//!   shares, where an even split of the grid order gives one worker all
//!   three encoder layers.
//! * However the service splits the grid, its answers equal direct
//!   evaluation.

use rsn::eval::{
    balanced_groups, Backend, CycleEngineBackend, Evaluator, WorkloadSpec, XnnAnalyticBackend,
};
use rsn::serve::EvalService;
use rsn::workloads::bert::BertConfig;

fn grid() -> Vec<WorkloadSpec> {
    let mut grid: Vec<WorkloadSpec> = [8, 32, 64]
        .map(|l| WorkloadSpec::EncoderLayer {
            cfg: BertConfig::tiny(l, 2),
        })
        .into();
    grid.extend([32, 64].map(|n| WorkloadSpec::FunctionalGemm {
        m: n,
        k: n,
        n,
        seed: n as u64,
    }));
    grid.extend([16, 64].map(|l| WorkloadSpec::FunctionalAttention {
        cfg: BertConfig::tiny(l, 2),
        seed: l as u64,
    }));
    grid.push(WorkloadSpec::ScalarPipeline { elements: 4096 });
    grid
}

#[test]
fn paper_grid_simulates_the_pinned_cycles_and_steps() {
    let backend = CycleEngineBackend::new();
    let (mut cycles, mut steps) = (0, 0);
    for spec in grid() {
        let report = backend.evaluate(&spec).expect("cycle engine answers");
        let stats = report.cycle.expect("cycle stats");
        let error = stats.max_abs_error.expect("checked against reference");
        assert!(error <= 1e-2, "{}: max_abs_error {error}", spec.name());
        cycles += stats.makespan_cycles;
        steps += stats.fu_step_calls;
    }
    assert_eq!((cycles, steps), (301_056, 14_136));
}

#[test]
fn the_service_grid_matches_direct_evaluation() {
    let build = || {
        Evaluator::empty()
            .with_backend(Box::new(CycleEngineBackend::new()))
            .with_backend(Box::new(XnnAnalyticBackend::new()))
    };
    let specs = grid();
    let direct = build().evaluate_grid(&specs);
    let served = EvalService::new(build()).evaluate_grid(&specs);
    assert_eq!(direct, served);
}

#[test]
fn cost_hints_split_the_paper_grid_evenly_across_two_workers() {
    let backend = CycleEngineBackend::new();
    let specs = grid();
    let costs: Vec<u64> = specs.iter().map(|s| backend.cost_hint(s)).collect();
    // The encoder layers are the costliest specs, the L=64 one above all.
    let costliest = costs.iter().copied().max().unwrap();
    assert_eq!(costs[2], costliest);
    assert!(costs[1] > costs[4] && costs[0] > costs[3]);
    let load = |group: &[usize]| group.iter().map(|&i| costs[i]).sum::<u64>();
    let groups = balanced_groups(&costs, 2);
    assert_eq!(groups.len(), 2);
    let (a, b) = (load(&groups[0]), load(&groups[1]));
    assert!(a.max(b) * 10 <= a.min(b) * 11, "unbalanced: {a} vs {b}");
    // The order-preserving even split this replaces: all three encoder
    // layers on one worker.
    let (first, second) = (load(&[0, 1, 2, 3]), load(&[4, 5, 6, 7]));
    assert!(first > 2 * second);
    // Oversized shapes are refused without simulating, so they cost next
    // to nothing.
    let huge = WorkloadSpec::EncoderLayer {
        cfg: BertConfig::bert_large(512, 6),
    };
    assert_eq!(backend.cost_hint(&huge), 1);
}
