//! The off-chip memory functional units (DDR and LPDDR).
//!
//! In RSN-XNN the DDR FU manages loading and storing of feature maps while
//! the LPDDR FU loads read-only weights and biases (§4.1).  The simulator
//! models each channel as a functional unit that owns a set of named FP32
//! matrices; `load` uOPs carve a tile out of a matrix and stream it to an
//! on-chip FU, `store` uOPs write an arriving tile back into a matrix.
//! Because every tile movement is an explicit uOP, the per-FU instruction
//! counts of the paper's Fig. 9 (DDR needing far more control than the
//! on-chip streaming FUs) fall out of the generated programs naturally.

use rsn_core::data::Token;
use rsn_core::fu::{FunctionalUnit, StepOutcome};
use rsn_core::stream::{StreamId, StreamSet};
use rsn_core::uop::UopQueue;
use rsn_workloads::Matrix;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Pending {
    Load {
        matrix: i64,
        row0: usize,
        col0: usize,
        rows: usize,
        cols: usize,
        out_port: usize,
    },
    Store {
        matrix: i64,
        row0: usize,
        col0: usize,
        in_port: usize,
    },
}

/// An off-chip memory channel exposed as an RSN functional unit.
#[derive(Debug)]
pub struct OffchipFu {
    name: String,
    fu_type: String,
    matrices: BTreeMap<i64, Matrix>,
    ins: Vec<StreamId>,
    outs: Vec<StreamId>,
    queue: UopQueue,
    pending: Option<Pending>,
    bytes_loaded: u64,
    bytes_stored: u64,
}

impl OffchipFu {
    /// Creates an off-chip FU.
    ///
    /// `fu_type` should be `"DDR"` or `"LPDDR"`; `ins` are store streams
    /// (from MemC FUs), `outs` are load streams (to MemA/MemB/MemC FUs).
    pub fn new(
        name: impl Into<String>,
        fu_type: impl Into<String>,
        ins: Vec<StreamId>,
        outs: Vec<StreamId>,
    ) -> Self {
        Self {
            name: name.into(),
            fu_type: fu_type.into(),
            matrices: BTreeMap::new(),
            ins,
            outs,
            queue: UopQueue::default(),
            pending: None,
            bytes_loaded: 0,
            bytes_stored: 0,
        }
    }

    /// Places a matrix into this off-chip memory under `id`, replacing any
    /// previous contents.
    pub fn insert_matrix(&mut self, id: i64, matrix: Matrix) {
        self.matrices.insert(id, matrix);
    }

    /// Allocates a zero-initialised output matrix under `id`.
    pub fn allocate_matrix(&mut self, id: i64, rows: usize, cols: usize) {
        self.matrices.insert(id, Matrix::zeros(rows, cols));
    }

    /// Reads back a matrix (e.g. a stored result) by id.
    pub fn matrix(&self, id: i64) -> Option<&Matrix> {
        self.matrices.get(&id)
    }

    /// Removes a matrix, returning it if present.
    pub fn take_matrix(&mut self, id: i64) -> Option<Matrix> {
        self.matrices.remove(&id)
    }

    /// Total bytes streamed out of this channel so far.
    pub fn bytes_loaded(&self) -> u64 {
        self.bytes_loaded
    }

    /// Total bytes streamed into this channel so far.
    pub fn bytes_stored(&self) -> u64 {
        self.bytes_stored
    }

    fn try_load(&mut self, streams: &mut StreamSet, p: &Pending) -> StepOutcome {
        let Pending::Load {
            matrix,
            row0,
            col0,
            rows,
            cols,
            out_port,
        } = *p
        else {
            unreachable!("try_load called with a store op");
        };
        if out_port >= self.outs.len() {
            self.pending = None;
            return StepOutcome::progress();
        }
        let out = self.outs[out_port];
        if !streams.can_push(out) {
            return StepOutcome::Blocked;
        }
        let mut tile = streams.tile(rows, cols);
        let Some(m) = self.matrices.get(&matrix) else {
            // Loading an unknown matrix streams zeros so a malformed program
            // fails validation numerically instead of wedging the engine.
            streams
                .push(out, Token::Tile(tile))
                .expect("capacity checked");
            self.pending = None;
            return StepOutcome::progress();
        };
        m.copy_block_into(row0, col0, cols, tile.as_mut_slice());
        self.bytes_loaded += (rows * cols * 4) as u64;
        streams
            .push(out, Token::Tile(tile))
            .expect("capacity checked");
        self.pending = None;
        StepOutcome::Progress {
            cycles: (rows * cols) as u64,
        }
    }

    fn try_store(&mut self, streams: &mut StreamSet, p: &Pending) -> StepOutcome {
        let Pending::Store {
            matrix,
            row0,
            col0,
            in_port,
        } = *p
        else {
            unreachable!("try_store called with a load op");
        };
        if in_port >= self.ins.len() {
            self.pending = None;
            return StepOutcome::progress();
        }
        let input = self.ins[in_port];
        let Some(token) = streams.pop(input) else {
            return StepOutcome::Blocked;
        };
        let Some(tile) = token.into_tile() else {
            self.pending = None;
            return StepOutcome::progress();
        };
        let (rows, cols) = (tile.rows(), tile.cols());
        let entry = self
            .matrices
            .entry(matrix)
            .or_insert_with(|| Matrix::zeros(row0 + rows, col0 + cols));
        entry.set_block_from_slice(row0, col0, cols, tile.as_slice());
        streams.recycle(tile);
        self.bytes_stored += (rows * cols * 4) as u64;
        self.pending = None;
        StepOutcome::Progress {
            cycles: (rows * cols) as u64,
        }
    }
}

impl FunctionalUnit for OffchipFu {
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
        self.outs.clone()
    }
    fn uop_queue(&self) -> &UopQueue {
        &self.queue
    }
    fn uop_queue_mut(&mut self) -> &mut UopQueue {
        &mut self.queue
    }
    fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.pending.is_none()
    }

    fn step(&mut self, streams: &mut StreamSet) -> StepOutcome {
        let mut total_cycles = 0u64;
        for _ in 0..super::TILE_BURST {
            if self.pending.is_none() {
                match self.queue.pop() {
                    Some(uop) if uop.opcode() == "load" => {
                        self.pending = Some(Pending::Load {
                            matrix: uop.field(0).unwrap_or(0),
                            row0: uop.unsigned(1),
                            col0: uop.unsigned(2),
                            rows: uop.unsigned(3).max(1),
                            cols: uop.unsigned(4).max(1),
                            out_port: uop.unsigned(5),
                        });
                    }
                    Some(uop) if uop.opcode() == "store" => {
                        self.pending = Some(Pending::Store {
                            matrix: uop.field(0).unwrap_or(0),
                            row0: uop.unsigned(1),
                            col0: uop.unsigned(2),
                            in_port: uop.unsigned(3),
                        });
                    }
                    Some(_) | None => {
                        return if total_cycles > 0 {
                            StepOutcome::Progress {
                                cycles: total_cycles,
                            }
                        } else {
                            StepOutcome::Idle
                        };
                    }
                }
            }
            let pending = self.pending.clone().expect("kernel just launched");
            let outcome = match pending {
                Pending::Load { .. } => self.try_load(streams, &pending),
                Pending::Store { .. } => self.try_store(streams, &pending),
            };
            match outcome {
                StepOutcome::Progress { cycles } => total_cycles += cycles,
                StepOutcome::Blocked => {
                    return if total_cycles > 0 {
                        StepOutcome::Progress {
                            cycles: total_cycles,
                        }
                    } else {
                        StepOutcome::Blocked
                    };
                }
                StepOutcome::Idle => unreachable!("pending op never returns Idle"),
            }
        }
        StepOutcome::Progress {
            cycles: total_cycles.max(1),
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
    use rsn_core::network::DatapathBuilder;
    use rsn_core::sim::Engine;
    use rsn_core::uop::Uop;

    #[test]
    fn load_then_store_roundtrips_a_tile() {
        let mut b = DatapathBuilder::new();
        let out_s = b.add_stream("ddr->x", 2);
        let in_s = b.add_stream("x->ddr", 2);
        let mut ddr = OffchipFu::new("DDR", "DDR", vec![in_s], vec![out_s]);
        ddr.insert_matrix(1, Matrix::random(8, 8, 3));
        ddr.allocate_matrix(2, 8, 8);
        let ddr_id = b.add_fu(ddr);
        // A router loops the tile straight back.
        let router = rsn_core::fus::RouterFu::new("loop", vec![out_s], vec![in_s]);
        let router_id = b.add_fu(router);
        let mut engine = Engine::new(b.build().unwrap());
        engine.push_uop(ddr_id, Uop::new("load", [1, 0, 0, 8, 8, 0]));
        engine.push_uop(router_id, Uop::new("route", [0, 0, 1]));
        engine.push_uop(ddr_id, Uop::new("store", [2, 0, 0, 0]));
        engine.run().unwrap();
        let ddr = engine.fu::<OffchipFu>(ddr_id).unwrap();
        let original = ddr.matrix(1).unwrap();
        let copy = ddr.matrix(2).unwrap();
        assert!(original.max_abs_diff(copy) < 1e-7);
        assert_eq!(ddr.bytes_loaded(), 8 * 8 * 4);
        assert_eq!(ddr.bytes_stored(), 8 * 8 * 4);
    }

    #[test]
    fn loading_unknown_matrix_streams_zeros() {
        let mut b = DatapathBuilder::new();
        let out_s = b.add_stream("ddr->x", 2);
        let in_s = b.add_stream("x->ddr", 2);
        let mut ddr = OffchipFu::new("DDR", "DDR", vec![in_s], vec![out_s]);
        ddr.allocate_matrix(7, 4, 4);
        let ddr_id = b.add_fu(ddr);
        let router = rsn_core::fus::RouterFu::new("loop", vec![out_s], vec![in_s]);
        let router_id = b.add_fu(router);
        let mut engine = Engine::new(b.build().unwrap());
        engine.push_uop(ddr_id, Uop::new("load", [999, 0, 0, 4, 4, 0]));
        engine.push_uop(router_id, Uop::new("route", [0, 0, 1]));
        engine.push_uop(ddr_id, Uop::new("store", [7, 0, 0, 0]));
        engine.run().unwrap();
        let ddr = engine.fu::<OffchipFu>(ddr_id).unwrap();
        assert!(ddr.matrix(7).unwrap().as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn take_matrix_removes_entry() {
        let mut fu = OffchipFu::new("LPDDR", "LPDDR", vec![], vec![]);
        fu.insert_matrix(5, Matrix::zeros(2, 2));
        assert!(fu.take_matrix(5).is_some());
        assert!(fu.matrix(5).is_none());
        assert!(fu.take_matrix(5).is_none());
    }
}
