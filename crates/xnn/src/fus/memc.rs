//! The MemC output-scratchpad functional unit.
//!
//! MemC FUs receive finished tiles from their MME, apply the fused non-MM
//! operators (bias, GELU, scale + softmax, residual add + LayerNorm — the
//! operations Table 2 lists in MemC's control plane), and then either drain
//! the result towards the DDR FU for off-chip storage or forward it over the
//! feedback path into MeshA so a dependent layer can consume it without ever
//! leaving the chip (the dynamic pipelining of Fig. 7).
//!
//! Bias vectors and LayerNorm parameters are configured on the FU by the
//! host before the run, standing in for the paper's "load bias from LPDDR"
//! path; this keeps the uOP control plane identical while avoiding a second
//! bias-streaming protocol in the simulator.

use rsn_core::data::{Tile, Token};
use rsn_core::fu::{FunctionalUnit, StepOutcome};
use rsn_core::stream::{StreamId, StreamSet};
use rsn_core::uop::UopQueue;
use rsn_workloads::tensor::{gelu_scalar, layer_norm_in_place, softmax_in_place};

/// The non-MM transform a `post` uOP applies to each tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostTransform {
    /// Pass tiles through unchanged.
    None,
    /// Add the configured bias (sliced by the tile's column offset).
    Bias,
    /// Add bias, then apply GELU (feed-forward layer 1).
    BiasGelu,
    /// Multiply by the configured softmax scale, then row-wise softmax
    /// (attention scores).
    ScaledSoftmax,
    /// Add bias, add the residual tile from the auxiliary input, then apply
    /// LayerNorm with the configured gamma/beta (Dense and feed-forward
    /// layer 2 epilogues).
    BiasResidualNorm,
}

impl PostTransform {
    /// Decodes the uOP field encoding.
    pub fn from_code(code: i64) -> Self {
        match code {
            1 => PostTransform::Bias,
            2 => PostTransform::BiasGelu,
            3 => PostTransform::ScaledSoftmax,
            4 => PostTransform::BiasResidualNorm,
            _ => PostTransform::None,
        }
    }

    /// Encodes the transform for a uOP field.
    pub fn code(self) -> i64 {
        match self {
            PostTransform::None => 0,
            PostTransform::Bias => 1,
            PostTransform::BiasGelu => 2,
            PostTransform::ScaledSoftmax => 3,
            PostTransform::BiasResidualNorm => 4,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct PostKernel {
    remaining: usize,
    processed: usize,
    transform: PostTransform,
    dest_port: usize,
    use_residual: bool,
    col_tile_offset: usize,
    col_tiles: usize,
}

/// The MemC output scratchpad with fused non-MM operators.
#[derive(Debug)]
pub struct MemCFu {
    name: String,
    from_mme: StreamId,
    residual_in: StreamId,
    outs: Vec<StreamId>,
    queue: UopQueue,
    active: Option<PostKernel>,
    bias: Vec<f32>,
    gamma: Vec<f32>,
    beta: Vec<f32>,
    /// Identity LayerNorm parameters (ones / zeros) used when `gamma` /
    /// `beta` do not match the tile width, kept so no tile allocates them.
    default_gamma: Vec<f32>,
    default_beta: Vec<f32>,
    softmax_scale: f32,
    nonmm_ops: u64,
}

impl MemCFu {
    /// Creates a MemC FU.
    ///
    /// `from_mme` carries finished MME tiles, `residual_in` carries residual
    /// tiles loaded by the DDR FU, and `outs` are `[to DDR store, to MeshA
    /// feedback]`.
    pub fn new(
        name: impl Into<String>,
        from_mme: StreamId,
        residual_in: StreamId,
        outs: Vec<StreamId>,
    ) -> Self {
        Self {
            name: name.into(),
            from_mme,
            residual_in,
            outs,
            queue: UopQueue::default(),
            active: None,
            bias: Vec::new(),
            gamma: Vec::new(),
            beta: Vec::new(),
            default_gamma: Vec::new(),
            default_beta: Vec::new(),
            softmax_scale: 1.0,
            nonmm_ops: 0,
        }
    }

    /// Configures the bias vector (indexed by absolute output column).
    pub fn set_bias(&mut self, bias: Vec<f32>) {
        self.bias = bias;
    }

    /// Configures the LayerNorm scale and shift vectors.
    pub fn set_norm_params(&mut self, gamma: Vec<f32>, beta: Vec<f32>) {
        self.gamma = gamma;
        self.beta = beta;
    }

    /// Configures the pre-softmax scale (1/√d for attention).
    pub fn set_softmax_scale(&mut self, scale: f32) {
        self.softmax_scale = scale;
    }

    /// Number of non-MM tile transformations applied so far.
    pub fn nonmm_ops(&self) -> u64 {
        self.nonmm_ops
    }

    /// Bias of one absolute output column; zero past the configured vector.
    fn bias_at(&self, col: usize) -> f32 {
        self.bias.get(col).copied().unwrap_or(0.0)
    }

    fn add_bias(&self, tile: &mut Tile, col_offset: usize) {
        let cols = tile.cols();
        for row in tile.as_mut_slice().chunks_exact_mut(cols) {
            for (c, v) in row.iter_mut().enumerate() {
                *v += self.bias_at(col_offset + c);
            }
        }
    }

    /// Applies the kernel's transform to `tile` in place, with the same
    /// per-element arithmetic as the reference operators in
    /// `rsn_workloads::tensor`.
    fn apply(&mut self, kernel: &PostKernel, tile: &mut Tile, residual: Option<&Tile>) {
        let cols = tile.cols();
        let col_offset =
            (kernel.col_tile_offset + (kernel.processed % kernel.col_tiles.max(1))) * cols;
        match kernel.transform {
            PostTransform::None => {}
            PostTransform::Bias => self.add_bias(tile, col_offset),
            PostTransform::BiasGelu => {
                self.add_bias(tile, col_offset);
                for v in tile.as_mut_slice() {
                    *v = gelu_scalar(*v);
                }
            }
            PostTransform::ScaledSoftmax => {
                let scale = self.softmax_scale;
                for row in tile.as_mut_slice().chunks_exact_mut(cols) {
                    for v in row.iter_mut() {
                        *v *= scale;
                    }
                    softmax_in_place(row);
                }
            }
            PostTransform::BiasResidualNorm => {
                self.add_bias(tile, col_offset);
                if let Some(res) = residual {
                    assert_eq!(
                        (res.rows(), res.cols()),
                        (tile.rows(), cols),
                        "residual shape mismatch"
                    );
                    for (v, r) in tile.as_mut_slice().iter_mut().zip(res.as_slice()) {
                        *v += r;
                    }
                }
                // Unconfigured (or mis-sized) parameters mean the identity
                // affine: gamma 1, beta 0.
                let gamma = if self.gamma.len() == cols {
                    &self.gamma
                } else {
                    self.default_gamma.resize(cols, 1.0);
                    &self.default_gamma
                };
                let beta = if self.beta.len() == cols {
                    &self.beta
                } else {
                    self.default_beta.resize(cols, 0.0);
                    &self.default_beta
                };
                for row in tile.as_mut_slice().chunks_exact_mut(cols) {
                    layer_norm_in_place(row, gamma, beta, 1e-5);
                }
            }
        }
    }
}

impl FunctionalUnit for MemCFu {
    fn name(&self) -> &str {
        &self.name
    }
    fn fu_type(&self) -> &str {
        "MemC"
    }
    fn input_streams(&self) -> Vec<StreamId> {
        vec![self.from_mme, self.residual_in]
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
        self.queue.is_empty() && self.active.is_none()
    }

    fn step(&mut self, streams: &mut StreamSet) -> StepOutcome {
        let mut moved = 0u64;
        for _ in 0..super::TILE_BURST {
            if self.active.is_none() {
                match self.queue.pop() {
                    Some(uop) if uop.opcode() == "post" => {
                        self.active = Some(PostKernel {
                            remaining: uop.unsigned(0),
                            processed: 0,
                            transform: PostTransform::from_code(uop.field(1).unwrap_or(0)),
                            dest_port: uop.unsigned(2),
                            use_residual: uop.flag(3),
                            col_tile_offset: uop.unsigned(4),
                            col_tiles: uop.unsigned(5).max(1),
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
            let kernel = *self.active.as_ref().expect("kernel just launched");
            if kernel.remaining == 0 {
                self.active = None;
                continue;
            }
            if kernel.dest_port >= self.outs.len() {
                self.active = None;
                continue;
            }
            let out = self.outs[kernel.dest_port];
            let inputs_ready = streams.can_pop(self.from_mme)
                && (!kernel.use_residual || streams.can_pop(self.residual_in))
                && streams.can_push(out);
            if !inputs_ready {
                return if moved > 0 {
                    StepOutcome::Progress { cycles: moved }
                } else {
                    StepOutcome::Blocked
                };
            }
            let mut tile = streams
                .pop(self.from_mme)
                .and_then(Token::into_tile)
                .unwrap_or_else(|| Tile::zeros(1, 1));
            let residual = if kernel.use_residual {
                streams.pop(self.residual_in).and_then(Token::into_tile)
            } else {
                None
            };
            self.apply(&kernel, &mut tile, residual.as_ref());
            if let Some(residual) = residual {
                streams.recycle(residual);
            }
            streams
                .push(out, Token::Tile(tile))
                .expect("capacity checked");
            if kernel.transform != PostTransform::None {
                self.nonmm_ops += 1;
            }
            moved += 1;
            let k = self.active.as_mut().expect("kernel active");
            k.remaining -= 1;
            k.processed += 1;
            if k.remaining == 0 {
                self.active = None;
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
    use rsn_workloads::Matrix;

    #[test]
    fn transform_codes_roundtrip() {
        for t in [
            PostTransform::None,
            PostTransform::Bias,
            PostTransform::BiasGelu,
            PostTransform::ScaledSoftmax,
            PostTransform::BiasResidualNorm,
        ] {
            assert_eq!(PostTransform::from_code(t.code()), t);
        }
        assert_eq!(PostTransform::from_code(99), PostTransform::None);
    }

    #[test]
    fn bias_slice_pads_with_zeros() {
        let mut fu = MemCFu::new(
            "MemC0",
            rsn_core::stream::StreamId::from_index(0),
            rsn_core::stream::StreamId::from_index(1),
            vec![],
        );
        fu.set_bias(vec![1.0, 2.0, 3.0]);
        let bias: Vec<f32> = (1..5).map(|c| fu.bias_at(c)).collect();
        assert_eq!(bias, vec![2.0, 3.0, 0.0, 0.0]);
    }

    #[test]
    fn apply_scaled_softmax_normalises_rows() {
        let mut fu = MemCFu::new(
            "MemC0",
            rsn_core::stream::StreamId::from_index(0),
            rsn_core::stream::StreamId::from_index(1),
            vec![],
        );
        fu.set_softmax_scale(0.5);
        let kernel = PostKernel {
            remaining: 1,
            processed: 0,
            transform: PostTransform::ScaledSoftmax,
            dest_port: 0,
            use_residual: false,
            col_tile_offset: 0,
            col_tiles: 1,
        };
        let mut out = Tile::from_vec(2, 3, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        fu.apply(&kernel, &mut out, None);
        for r in 0..2 {
            let sum: f32 = (0..3).map(|c| out.at(r, c)).sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn apply_bias_residual_norm_matches_reference() {
        let mut fu = MemCFu::new(
            "MemC0",
            rsn_core::stream::StreamId::from_index(0),
            rsn_core::stream::StreamId::from_index(1),
            vec![],
        );
        let cols = 8;
        fu.set_bias(vec![0.5; cols]);
        fu.set_norm_params(vec![1.0; cols], vec![0.0; cols]);
        let kernel = PostKernel {
            remaining: 1,
            processed: 0,
            transform: PostTransform::BiasResidualNorm,
            dest_port: 0,
            use_residual: true,
            col_tile_offset: 0,
            col_tiles: 1,
        };
        let x = Matrix::random(2, cols, 1);
        let res = Matrix::random(2, cols, 2);
        let mut tile = Tile::from_vec(2, cols, x.clone().into_vec());
        let res_tile = Tile::from_vec(2, cols, res.clone().into_vec());
        fu.apply(&kernel, &mut tile, Some(&res_tile));
        let expected = x.add_bias(&vec![0.5; cols]).add(&res).layer_norm(
            &vec![1.0; cols],
            &vec![0.0; cols],
            1e-5,
        );
        // In place, but with the reference operators' arithmetic: equal to
        // the bit, not just within a tolerance.
        assert_eq!(tile.as_slice(), expected.as_slice());
    }

    #[test]
    fn in_place_transforms_equal_the_reference_operators_exactly() {
        let (rows, cols) = (3, 4);
        let bias: Vec<f32> = Matrix::random(1, 12, 3).into_vec();
        let mut fu = MemCFu::new(
            "MemC0",
            rsn_core::stream::StreamId::from_index(0),
            rsn_core::stream::StreamId::from_index(1),
            vec![],
        );
        fu.set_bias(bias.clone());
        fu.set_softmax_scale(0.25);
        let x = Matrix::random(rows, cols, 4);
        let res = Matrix::random(rows, cols, 5);
        // The second tile of a two-column-tile row starting at column tile 1
        // reads bias columns 8..12.
        let slice = &bias[8..12];
        let cases = [
            (PostTransform::None, x.clone()),
            (PostTransform::Bias, x.add_bias(slice)),
            (PostTransform::BiasGelu, x.add_bias(slice).gelu()),
            (PostTransform::ScaledSoftmax, x.scale(0.25).softmax_rows()),
            (
                PostTransform::BiasResidualNorm,
                x.add_bias(slice)
                    .add(&res)
                    .layer_norm(&[1.0; 4], &[0.0; 4], 1e-5),
            ),
        ];
        for (transform, expected) in cases {
            let kernel = PostKernel {
                remaining: 1,
                processed: 1,
                transform,
                dest_port: 0,
                use_residual: true,
                col_tile_offset: 1,
                col_tiles: 2,
            };
            let mut tile = Tile::from_vec(rows, cols, x.clone().into_vec());
            let res_tile = Tile::from_vec(rows, cols, res.clone().into_vec());
            fu.apply(&kernel, &mut tile, Some(&res_tile));
            assert_eq!(tile.as_slice(), expected.as_slice(), "{transform:?}");
        }
    }
}
