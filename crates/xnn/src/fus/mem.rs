//! The MemA / MemB scratchpad functional units.
//!
//! MemA buffers LHS tiles between the DDR FU and MeshA; MemB buffers RHS
//! tiles (weights from LPDDR or activations from DDR) between the off-chip
//! FUs and MeshB, optionally transposing them on the way out (Table 2 lists
//! "transpose input" in MemB's control plane).  They are double buffered in
//! hardware so loading the next tile overlaps with sending the current one;
//! the simulator models the buffer as a small tile queue and lets one uOP
//! request both a load count and a send count, which gives the same overlap
//! behaviour observable from outside.

use rsn_core::data::Token;
use rsn_core::fu::{FunctionalUnit, StepOutcome};
use rsn_core::stream::{StreamId, StreamSet};
use rsn_core::uop::UopQueue;
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy)]
struct Xfer {
    load_remaining: usize,
    send_remaining: usize,
    in_port: usize,
    transpose: bool,
}

/// A double-buffered tile scratchpad (MemA or MemB).
#[derive(Debug)]
pub struct MemFu {
    name: String,
    fu_type: String,
    ins: Vec<StreamId>,
    out: StreamId,
    queue: UopQueue,
    buffer: VecDeque<rsn_core::data::Tile>,
    active: Option<Xfer>,
    tiles_loaded: u64,
    tiles_sent: u64,
}

impl MemFu {
    /// Creates a scratchpad FU.
    ///
    /// `fu_type` should be `"MemA"` or `"MemB"`; `ins` are streams from the
    /// off-chip FUs, `out` feeds the mesh.
    pub fn new(
        name: impl Into<String>,
        fu_type: impl Into<String>,
        ins: Vec<StreamId>,
        out: StreamId,
    ) -> Self {
        Self {
            name: name.into(),
            fu_type: fu_type.into(),
            ins,
            out,
            queue: UopQueue::default(),
            buffer: VecDeque::new(),
            active: None,
            tiles_loaded: 0,
            tiles_sent: 0,
        }
    }

    /// Tiles loaded from off-chip so far.
    pub fn tiles_loaded(&self) -> u64 {
        self.tiles_loaded
    }

    /// Tiles sent to the mesh so far.
    pub fn tiles_sent(&self) -> u64 {
        self.tiles_sent
    }

    /// Tiles currently held in the scratchpad.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }
}

impl FunctionalUnit for MemFu {
    fn name(&self) -> &str {
        &self.name
    }
    fn fu_type(&self) -> &str {
        &self.fu_type
    }
    fn input_streams(&self) -> Vec<StreamId> {
        self.ins.clone()
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
        if self.active.is_none() {
            match self.queue.pop() {
                Some(uop) if uop.opcode() == "xfer" => {
                    self.active = Some(Xfer {
                        load_remaining: uop.unsigned(0),
                        send_remaining: uop.unsigned(1),
                        in_port: uop.unsigned(2),
                        transpose: uop.flag(3),
                    });
                }
                Some(_) | None => return StepOutcome::Idle,
            }
        }
        let mut xfer = self.active.expect("kernel just launched");
        let mut moved = 0u64;
        for _ in 0..super::TILE_BURST {
            let mut advanced = false;
            // Load half of the ping-pong buffer.
            if xfer.load_remaining > 0 {
                if let Some(input) = self.ins.get(xfer.in_port).copied() {
                    if let Some(token) = streams.pop(input) {
                        if let Some(tile) = token.into_tile() {
                            self.buffer.push_back(tile);
                            self.tiles_loaded += 1;
                        }
                        xfer.load_remaining -= 1;
                        moved += 1;
                        advanced = true;
                    }
                } else {
                    // Invalid port: drop the load half.
                    xfer.load_remaining = 0;
                    advanced = true;
                }
            }
            // Send half of the ping-pong buffer.
            if xfer.send_remaining > 0 && !self.buffer.is_empty() && streams.can_push(self.out) {
                let tile = self.buffer.pop_front().expect("buffer non-empty");
                let tile = if xfer.transpose {
                    let mut transposed = streams.tile(tile.cols(), tile.rows());
                    tile.transpose_into(&mut transposed);
                    streams.recycle(tile);
                    transposed
                } else {
                    tile
                };
                streams
                    .push(self.out, Token::Tile(tile))
                    .expect("capacity checked");
                xfer.send_remaining -= 1;
                self.tiles_sent += 1;
                moved += 1;
                advanced = true;
            }
            if !advanced {
                break;
            }
        }
        self.active = if xfer.load_remaining == 0 && xfer.send_remaining == 0 {
            None
        } else {
            Some(xfer)
        };
        if moved > 0 {
            StepOutcome::Progress { cycles: moved }
        } else {
            StepOutcome::Blocked
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
    use rsn_core::data::Tile;
    use rsn_core::network::DatapathBuilder;
    use rsn_core::sim::Engine;
    use rsn_core::uop::Uop;
    use rsn_workloads::Matrix;

    /// DDR → MemB(transpose) → DDR store; checks the transposed tile lands
    /// in the output matrix.
    #[test]
    fn mem_fu_passes_and_transposes_tiles() {
        let mut b = DatapathBuilder::new();
        let s_load = b.add_stream("ddr->memb", 2);
        let s_out = b.add_stream("memb->ddr", 2);
        let mut ddr = OffchipFu::new("DDR", "DDR", vec![s_out], vec![s_load]);
        let src = Matrix::random(4, 4, 11);
        ddr.insert_matrix(1, src.clone());
        ddr.allocate_matrix(2, 4, 4);
        let ddr_id = b.add_fu(ddr);
        let mem_id = b.add_fu(MemFu::new("MemB0", "MemB", vec![s_load], s_out));
        let mut engine = Engine::new(b.build().unwrap());
        engine.push_uop(ddr_id, Uop::new("load", [1, 0, 0, 4, 4, 0]));
        engine.push_uop(mem_id, Uop::new("xfer", [1, 1, 0, 1]));
        engine.push_uop(ddr_id, Uop::new("store", [2, 0, 0, 0]));
        engine.run().unwrap();
        let ddr = engine.fu::<OffchipFu>(ddr_id).unwrap();
        assert!(ddr.matrix(2).unwrap().max_abs_diff(&src.transposed()) < 1e-7);
        let mem = engine.fu::<MemFu>(mem_id).unwrap();
        assert_eq!(mem.tiles_loaded(), 1);
        assert_eq!(mem.tiles_sent(), 1);
        assert_eq!(mem.buffered(), 0);
    }

    #[test]
    fn load_only_uop_buffers_without_sending() {
        let mut b = DatapathBuilder::new();
        let s_in = b.add_stream("in", 4);
        let s_out = b.add_stream("out", 4);
        // Source feeds two tiles; sink consumes whatever arrives.
        let src = rsn_core::fus::RouterFu::new("src_router", vec![], vec![]);
        drop(src);
        let mut ddr = OffchipFu::new("DDR", "DDR", vec![s_out], vec![s_in]);
        ddr.insert_matrix(1, Matrix::random(2, 2, 1));
        let ddr_id = b.add_fu(ddr);
        let mem_id = b.add_fu(MemFu::new("MemA0", "MemA", vec![s_in], s_out));
        let mut engine = Engine::new(b.build().unwrap());
        engine.push_uop(ddr_id, Uop::new("load", [1, 0, 0, 2, 2, 0]));
        // Prolog-style uOP: load only, no send (paper's first MemA uOP).
        engine.push_uop(mem_id, Uop::new("xfer", [1, 0, 0, 0]));
        let report = engine.run().unwrap();
        assert_eq!(report.residual_tokens, 0);
        let mem = engine.fu::<MemFu>(mem_id).unwrap();
        assert_eq!(mem.buffered(), 1);
        assert_eq!(mem.tiles_sent(), 0);
        let _ = Tile::zeros(1, 1);
    }
}
