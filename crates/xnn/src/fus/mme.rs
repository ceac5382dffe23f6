//! The matrix-multiply-engine (MME) functional unit.
//!
//! Each MME virtualises a 64-tile AIE group behind a streaming interface:
//! LHS tiles arrive from MeshA, RHS tiles from MeshB, and finished output
//! tiles leave towards the MME's MemC FU.  One `matmul` uOP launches the
//! computation of `num_outputs` output tiles, each accumulated over
//! `accum_k` LHS/RHS tile pairs — the "Num iterations of accumK pairs"
//! kernel of Fig. 7b.

use rsn_core::data::{Tile, Token};
use rsn_core::fu::{FunctionalUnit, StepOutcome};
use rsn_core::stream::{StreamId, StreamSet};
use rsn_core::uop::UopQueue;

#[derive(Debug)]
struct MatmulKernel {
    outputs_remaining: usize,
    accum_k: usize,
    k_remaining: usize,
    acc: Option<Tile>,
    finished: Option<Tile>,
}

/// A streaming tiled matrix-multiplication engine.
#[derive(Debug)]
pub struct MmeFu {
    name: String,
    lhs_in: StreamId,
    rhs_in: StreamId,
    out: StreamId,
    queue: UopQueue,
    active: Option<MatmulKernel>,
    /// Product of the current tile pair before it joins the accumulator;
    /// kept across steps so the steady state allocates nothing.
    scratch: Tile,
    flops: u64,
    tiles_produced: u64,
}

impl MmeFu {
    /// Creates an MME reading LHS tiles from `lhs_in`, RHS tiles from
    /// `rhs_in` and writing results to `out`.
    pub fn new(name: impl Into<String>, lhs_in: StreamId, rhs_in: StreamId, out: StreamId) -> Self {
        Self {
            name: name.into(),
            lhs_in,
            rhs_in,
            out,
            queue: UopQueue::default(),
            active: None,
            scratch: Tile::zeros(1, 1),
            flops: 0,
            tiles_produced: 0,
        }
    }

    /// Floating-point operations performed so far.
    pub fn flops(&self) -> u64 {
        self.flops
    }

    /// Output tiles produced so far.
    pub fn tiles_produced(&self) -> u64 {
        self.tiles_produced
    }
}

impl FunctionalUnit for MmeFu {
    fn name(&self) -> &str {
        &self.name
    }
    fn fu_type(&self) -> &str {
        "MME"
    }
    fn input_streams(&self) -> Vec<StreamId> {
        vec![self.lhs_in, self.rhs_in]
    }
    fn output_streams(&self) -> Vec<StreamId> {
        vec![self.out]
    }
    fn uop_queue(&self) -> &UopQueue {
        &self.queue
    }
    fn uop_queue_mut(&mut self) -> &mut UopQueue {
        &mut self.queue
    }
    fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.active.is_none()
    }

    fn step(&mut self, streams: &mut StreamSet) -> StepOutcome {
        let mut moved = 0u64;
        for _ in 0..super::TILE_BURST {
            if self.active.is_none() {
                match self.queue.pop() {
                    Some(uop) if uop.opcode() == "matmul" => {
                        let accum_k = uop.unsigned(1).max(1);
                        self.active = Some(MatmulKernel {
                            outputs_remaining: uop.unsigned(0),
                            accum_k,
                            k_remaining: accum_k,
                            acc: None,
                            finished: None,
                        });
                    }
                    Some(_) | None => {
                        return if moved > 0 {
                            StepOutcome::Progress { cycles: moved }
                        } else {
                            StepOutcome::Idle
                        };
                    }
                }
            }
            let kernel = self.active.as_mut().expect("kernel just launched");
            if kernel.outputs_remaining == 0 {
                self.active = None;
                continue;
            }
            // Drain a finished accumulator first.
            if let Some(done) = kernel.finished.take() {
                if streams.can_push(self.out) {
                    streams
                        .push(self.out, Token::Tile(done))
                        .expect("capacity checked");
                    self.tiles_produced += 1;
                    kernel.outputs_remaining -= 1;
                    kernel.k_remaining = kernel.accum_k;
                    moved += 1;
                    continue;
                }
                kernel.finished = Some(done);
                return if moved > 0 {
                    StepOutcome::Progress { cycles: moved }
                } else {
                    StepOutcome::Blocked
                };
            }
            // Consume the next LHS/RHS tile pair.
            if streams.can_pop(self.lhs_in) && streams.can_pop(self.rhs_in) {
                let lhs = streams
                    .pop(self.lhs_in)
                    .and_then(Token::into_tile)
                    .unwrap_or_else(|| Tile::zeros(1, 1));
                let rhs = streams
                    .pop(self.rhs_in)
                    .and_then(Token::into_tile)
                    .unwrap_or_else(|| Tile::zeros(1, 1));
                self.flops += 2 * (lhs.rows() * lhs.cols() * rhs.cols()) as u64;
                // The first pair's product becomes the accumulator; later
                // products are formed in the reusable scratch tile and then
                // added, so every output keeps the sum-of-products rounding
                // of a tile-by-tile accumulation.
                match kernel.acc.as_mut() {
                    Some(acc) => {
                        self.scratch.reset_zeroed(lhs.rows(), rhs.cols());
                        self.scratch.matmul_accumulate(&lhs, &rhs);
                        acc.accumulate(&self.scratch);
                    }
                    None => {
                        let mut acc = streams.tile(lhs.rows(), rhs.cols());
                        acc.matmul_accumulate(&lhs, &rhs);
                        kernel.acc = Some(acc);
                    }
                }
                streams.recycle(lhs);
                streams.recycle(rhs);
                kernel.k_remaining -= 1;
                moved += 1;
                if kernel.k_remaining == 0 {
                    kernel.finished = kernel.acc.take();
                }
            } else {
                return if moved > 0 {
                    StepOutcome::Progress { cycles: moved }
                } else {
                    StepOutcome::Blocked
                };
            }
        }
        StepOutcome::Progress {
            cycles: moved.max(1),
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fus::OffchipFu;
    use rsn_core::network::DatapathBuilder;
    use rsn_core::sim::Engine;
    use rsn_core::uop::Uop;
    use rsn_workloads::Matrix;

    /// DDR feeds LHS and RHS tiles directly into one MME (no mesh); the MME
    /// accumulates over K and the result is stored back to DDR.
    #[test]
    fn single_mme_accumulates_over_k() {
        let mut b = DatapathBuilder::new();
        let s_lhs = b.add_stream("ddr->lhs", 4);
        let s_rhs = b.add_stream("lpddr->rhs", 4);
        let s_out = b.add_stream("mme->ddr", 4);
        let lhs = Matrix::random(4, 8, 21);
        let rhs = Matrix::random(8, 4, 22);
        let expected = lhs.matmul(&rhs);
        let mut ddr = OffchipFu::new("DDR", "DDR", vec![s_out], vec![s_lhs]);
        ddr.insert_matrix(1, lhs);
        ddr.allocate_matrix(3, 4, 4);
        let mut lpddr = OffchipFu::new("LPDDR", "LPDDR", vec![], vec![s_rhs]);
        lpddr.insert_matrix(2, rhs);
        let ddr_id = b.add_fu(ddr);
        let lpddr_id = b.add_fu(lpddr);
        let mme_id = b.add_fu(MmeFu::new("MME0", s_lhs, s_rhs, s_out));
        let mut engine = Engine::new(b.build().unwrap());
        // Two K-tiles of 4 columns each.
        for k in 0..2 {
            engine.push_uop(ddr_id, Uop::new("load", [1, 0, 4 * k, 4, 4, 0]));
            engine.push_uop(lpddr_id, Uop::new("load", [2, 4 * k, 0, 4, 4, 0]));
        }
        engine.push_uop(mme_id, Uop::new("matmul", [1, 2]));
        engine.push_uop(ddr_id, Uop::new("store", [3, 0, 0, 0]));
        engine.run().unwrap();
        let ddr = engine.fu::<OffchipFu>(ddr_id).unwrap();
        assert!(ddr.matrix(3).unwrap().max_abs_diff(&expected) < 1e-4);
        let mme = engine.fu::<MmeFu>(mme_id).unwrap();
        assert_eq!(mme.tiles_produced(), 1);
        assert_eq!(mme.flops(), 2 * 2 * 4 * 4 * 4);
    }

    #[test]
    fn mme_with_no_uops_is_idle() {
        let mut b = DatapathBuilder::new();
        let s_lhs = b.add_stream("l", 2);
        let s_rhs = b.add_stream("r", 2);
        let s_out = b.add_stream("o", 2);
        let mut ddr = OffchipFu::new("DDR", "DDR", vec![s_out], vec![s_lhs, s_rhs]);
        ddr.insert_matrix(0, Matrix::zeros(1, 1));
        let ddr_id = b.add_fu(ddr);
        let mme_id = b.add_fu(MmeFu::new("MME0", s_lhs, s_rhs, s_out));
        let mut engine = Engine::new(b.build().unwrap());
        let report = engine.run().unwrap();
        assert_eq!(report.total_uops_retired(), 0);
        assert!(engine.fu::<MmeFu>(mme_id).unwrap().is_idle());
        let _ = ddr_id;
    }
}
