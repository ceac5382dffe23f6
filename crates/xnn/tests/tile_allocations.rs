//! The tile path of the simulated datapath is allocation-lean: tiles
//! circulate through the stream set's buffer pool and uOPs carry their
//! fields inline, so the heap allocations of a GEMM run are bounded by the
//! tiles in flight, not by the tiles moved.
//!
//! A counting global allocator tallies allocations per thread (each test
//! counts only its own thread, so tests may run in parallel).

use rsn_workloads::Matrix;
use rsn_xnn::config::XnnConfig;
use rsn_xnn::machine::XnnMachine;
use rsn_xnn::program::{gemm_program, GemmSpec, PostOp, RhsOperand};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers every operation to the system allocator and only adds a
// thread-local counter bump, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Heap allocations of one `run_program` of an `n³` GEMM with `post`
/// (program generation and machine set-up excluded), and the tile pairs
/// the MMEs consumed.
fn gemm_run_allocations(n: usize, post: PostOp) -> (u64, u64) {
    let cfg = XnnConfig::small();
    let mut machine = XnnMachine::new(cfg).unwrap();
    machine.load_ddr(1, Matrix::random(n, n, 1));
    machine.load_lpddr(2, Matrix::random(n, n, 2));
    machine.load_ddr(4, Matrix::random(n, n, 3));
    machine.alloc_ddr(3, n, n);
    machine.set_bias(&vec![0.5; n]);
    let spec = GemmSpec {
        lhs: 1,
        rhs: RhsOperand::Lpddr(2),
        out: 3,
        m: n,
        k: n,
        n,
        rhs_transposed: false,
        post,
    };
    let program = gemm_program(&cfg, machine.handles(), &spec);
    let before = allocations();
    machine.run_program(&program).unwrap();
    let spent = allocations() - before;
    let tile = cfg.tile_m as u64;
    let pairs = (n as u64 / tile).pow(3);
    (spent, pairs)
}

#[test]
fn gemm_allocations_do_not_scale_with_tiles_moved() {
    for post in [PostOp::None, PostOp::BiasGelu] {
        let (small, small_pairs) = gemm_run_allocations(16, post);
        let (large, large_pairs) = gemm_run_allocations(64, post);
        assert_eq!(large_pairs, 64 * small_pairs);
        // 64× the tile traffic; the pool caps allocations at the tiles in
        // flight plus the run report (about 110 here).  Allocating per tile
        // and per uOP copy, the same run made over 7,000.
        assert!(
            large < 250,
            "{post:?}: {large} allocations for {large_pairs} tile pairs"
        );
        assert!(
            large < small + 100,
            "{post:?}: {small} → {large} allocations as tile pairs grew {small_pairs} → {large_pairs}"
        );
    }
}

#[test]
fn layer_norm_epilogue_reuses_its_residual_tiles() {
    // Full-row tiles with a residual operand: every output tile consumes a
    // second DDR tile, which must also flow back into the pool.
    let n = 32;
    let post = PostOp::BiasResidualNorm { residual: 4 };
    let (spent, _) = gemm_run_allocations(n, post);
    assert!(spent < 250, "{spent} allocations");
}
