//! The MeshA / MeshB router functional units.
//!
//! MeshA fans LHS tiles out from the MemA scratchpads (and, for pipelined
//! second layers, from the MemC feedback paths) to the MME FUs; MeshB does
//! the same for RHS tiles from the MemB scratchpads.  Changing the `srcFU`
//! routing in a Mesh uOP is how RSN-XNN regroups its MMEs at runtime —
//! e.g. switching between "all MMEs on one large MM" and "pipeline two
//! dependent MMs" without touching the MME programs (§4.1).

use rsn_core::data::Token;
use rsn_core::fu::{FunctionalUnit, StepOutcome};
use rsn_core::stream::{StreamId, StreamSet};
use rsn_core::uop::UopQueue;

#[derive(Debug, Clone, Copy)]
enum Kernel {
    Route {
        in_port: usize,
        out_port: usize,
        remaining: usize,
    },
    Broadcast {
        in_port: usize,
        remaining: usize,
        out_count: usize,
    },
}

/// A fan-in / fan-out tile router (MeshA or MeshB).
#[derive(Debug)]
pub struct MeshFu {
    name: String,
    fu_type: String,
    ins: Vec<StreamId>,
    outs: Vec<StreamId>,
    queue: UopQueue,
    active: Option<Kernel>,
    tiles_routed: u64,
}

impl MeshFu {
    /// Creates a mesh router with the given input and output ports.
    pub fn new(
        name: impl Into<String>,
        fu_type: impl Into<String>,
        ins: Vec<StreamId>,
        outs: Vec<StreamId>,
    ) -> Self {
        Self {
            name: name.into(),
            fu_type: fu_type.into(),
            ins,
            outs,
            queue: UopQueue::default(),
            active: None,
            tiles_routed: 0,
        }
    }

    /// Tiles forwarded (broadcast copies count once per destination).
    pub fn tiles_routed(&self) -> u64 {
        self.tiles_routed
    }
}

impl FunctionalUnit for MeshFu {
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
        self.queue.is_empty() && self.active.is_none()
    }

    fn step(&mut self, streams: &mut StreamSet) -> StepOutcome {
        let mut moved = 0u64;
        for _ in 0..super::TILE_BURST {
            if self.active.is_none() {
                match self.queue.pop() {
                    Some(uop) if uop.opcode() == "route" => {
                        self.active = Some(Kernel::Route {
                            in_port: uop.unsigned(0),
                            out_port: uop.unsigned(1),
                            remaining: uop.unsigned(2),
                        });
                    }
                    Some(uop) if uop.opcode() == "broadcast" => {
                        let requested = uop.unsigned(2);
                        let out_count = if requested == 0 || requested > self.outs.len() {
                            self.outs.len()
                        } else {
                            requested
                        };
                        self.active = Some(Kernel::Broadcast {
                            in_port: uop.unsigned(0),
                            remaining: uop.unsigned(1),
                            out_count,
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
            let advanced = match self.active.expect("kernel just launched") {
                Kernel::Route {
                    in_port,
                    out_port,
                    remaining,
                } => {
                    if in_port >= self.ins.len() || out_port >= self.outs.len() || remaining == 0 {
                        self.active = None;
                        true
                    } else if streams.can_push(self.outs[out_port])
                        && streams.can_pop(self.ins[in_port])
                    {
                        let token = streams.pop(self.ins[in_port]).expect("checked");
                        streams
                            .push(self.outs[out_port], token)
                            .expect("capacity checked");
                        self.tiles_routed += 1;
                        moved += 1;
                        self.active = if remaining == 1 {
                            None
                        } else {
                            Some(Kernel::Route {
                                in_port,
                                out_port,
                                remaining: remaining - 1,
                            })
                        };
                        true
                    } else {
                        false
                    }
                }
                Kernel::Broadcast {
                    in_port,
                    remaining,
                    out_count,
                } => {
                    let targets = &self.outs[..out_count.min(self.outs.len())];
                    if in_port >= self.ins.len() || remaining == 0 || targets.is_empty() {
                        self.active = None;
                        true
                    } else if streams.can_pop(self.ins[in_port])
                        && targets.iter().all(|&o| streams.can_push(o))
                    {
                        let token = streams.pop(self.ins[in_port]).expect("checked");
                        let (&last, copies) = targets.split_last().expect("targets non-empty");
                        for &o in copies {
                            let copy = match &token {
                                Token::Tile(tile) => {
                                    let mut copy = streams.tile(tile.rows(), tile.cols());
                                    copy.copy_from(tile);
                                    Token::Tile(copy)
                                }
                                other => other.clone(),
                            };
                            streams.push(o, copy).expect("capacity checked");
                            self.tiles_routed += 1;
                        }
                        streams.push(last, token).expect("capacity checked");
                        self.tiles_routed += 1;
                        moved += 1;
                        self.active = if remaining == 1 {
                            None
                        } else {
                            Some(Kernel::Broadcast {
                                in_port,
                                remaining: remaining - 1,
                                out_count,
                            })
                        };
                        true
                    } else {
                        false
                    }
                }
            };
            if !advanced {
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
    use rsn_core::data::{Tile, Token};
    use rsn_core::network::DatapathBuilder;
    use rsn_core::sim::Engine;
    use rsn_core::uop::Uop;

    /// A tiny helper FU that injects pre-made tiles into a stream.
    #[derive(Debug)]
    struct TileSourceFu {
        name: String,
        out: StreamId,
        tiles: Vec<Tile>,
        queue: UopQueue,
        cursor: usize,
        remaining: usize,
    }

    impl TileSourceFu {
        fn new(name: &str, out: StreamId, tiles: Vec<Tile>) -> Self {
            Self {
                name: name.to_string(),
                out,
                tiles,
                queue: UopQueue::default(),
                cursor: 0,
                remaining: 0,
            }
        }
    }

    impl FunctionalUnit for TileSourceFu {
        fn name(&self) -> &str {
            &self.name
        }
        fn fu_type(&self) -> &str {
            "TILE_SRC"
        }
        fn input_streams(&self) -> Vec<StreamId> {
            vec![]
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
            self.queue.is_empty() && self.remaining == 0
        }
        fn step(&mut self, streams: &mut StreamSet) -> StepOutcome {
            if self.remaining == 0 {
                match self.queue.pop() {
                    Some(uop) if uop.opcode() == "emit" => self.remaining = uop.unsigned(0),
                    _ => return StepOutcome::Idle,
                }
            }
            if self.cursor >= self.tiles.len() {
                self.remaining = 0;
                return StepOutcome::progress();
            }
            if streams.can_push(self.out) {
                let tile = self.tiles[self.cursor].clone();
                streams.push(self.out, Token::Tile(tile)).unwrap();
                self.cursor += 1;
                self.remaining -= 1;
                StepOutcome::progress()
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

    /// A tiny helper FU that collects tiles from a stream.
    #[derive(Debug)]
    struct TileSinkFu {
        name: String,
        input: StreamId,
        collected: Vec<Tile>,
        queue: UopQueue,
        remaining: usize,
    }

    impl TileSinkFu {
        fn new(name: &str, input: StreamId) -> Self {
            Self {
                name: name.to_string(),
                input,
                collected: Vec::new(),
                queue: UopQueue::default(),
                remaining: 0,
            }
        }
    }

    impl FunctionalUnit for TileSinkFu {
        fn name(&self) -> &str {
            &self.name
        }
        fn fu_type(&self) -> &str {
            "TILE_SINK"
        }
        fn input_streams(&self) -> Vec<StreamId> {
            vec![self.input]
        }
        fn output_streams(&self) -> Vec<StreamId> {
            vec![]
        }
        fn uop_queue(&self) -> &UopQueue {
            &self.queue
        }
        fn uop_queue_mut(&mut self) -> &mut UopQueue {
            &mut self.queue
        }
        fn is_idle(&self) -> bool {
            self.queue.is_empty() && self.remaining == 0
        }
        fn step(&mut self, streams: &mut StreamSet) -> StepOutcome {
            if self.remaining == 0 {
                match self.queue.pop() {
                    Some(uop) if uop.opcode() == "collect" => self.remaining = uop.unsigned(0),
                    _ => return StepOutcome::Idle,
                }
            }
            match streams.pop(self.input) {
                Some(token) => {
                    if let Some(t) = token.into_tile() {
                        self.collected.push(t);
                    }
                    self.remaining -= 1;
                    StepOutcome::progress()
                }
                None => StepOutcome::Blocked,
            }
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn broadcast_copies_to_every_output() {
        let mut b = DatapathBuilder::new();
        let s_in = b.add_stream("src->mesh", 4);
        let s_out0 = b.add_stream("mesh->mme0", 4);
        let s_out1 = b.add_stream("mesh->mme1", 4);
        let tile = Tile::from_vec(1, 2, vec![1.0, 2.0]);
        let src = b.add_fu(TileSourceFu::new(
            "src",
            s_in,
            vec![tile.clone(), tile.clone()],
        ));
        let mesh = b.add_fu(MeshFu::new(
            "MeshA",
            "MeshA",
            vec![s_in],
            vec![s_out0, s_out1],
        ));
        let sink0 = b.add_fu(TileSinkFu::new("sink0", s_out0));
        let sink1 = b.add_fu(TileSinkFu::new("sink1", s_out1));
        let mut engine = Engine::new(b.build().unwrap());
        engine.push_uop(src, Uop::new("emit", [2]));
        engine.push_uop(mesh, Uop::new("broadcast", [0, 2]));
        engine.push_uop(sink0, Uop::new("collect", [2]));
        engine.push_uop(sink1, Uop::new("collect", [2]));
        engine.run().unwrap();
        assert_eq!(engine.fu::<TileSinkFu>(sink0).unwrap().collected.len(), 2);
        assert_eq!(engine.fu::<TileSinkFu>(sink1).unwrap().collected.len(), 2);
        assert_eq!(engine.fu::<MeshFu>(mesh).unwrap().tiles_routed(), 4);
    }

    #[test]
    fn route_uops_select_ports_in_sequence() {
        let mut b = DatapathBuilder::new();
        let s_in = b.add_stream("src->mesh", 4);
        let s_out0 = b.add_stream("mesh->a", 4);
        let s_out1 = b.add_stream("mesh->b", 4);
        let tiles: Vec<Tile> = (0..4)
            .map(|i| Tile::from_vec(1, 1, vec![i as f32]))
            .collect();
        let src = b.add_fu(TileSourceFu::new("src", s_in, tiles));
        let mesh = b.add_fu(MeshFu::new(
            "MeshB",
            "MeshB",
            vec![s_in],
            vec![s_out0, s_out1],
        ));
        let sink0 = b.add_fu(TileSinkFu::new("sink0", s_out0));
        let sink1 = b.add_fu(TileSinkFu::new("sink1", s_out1));
        let mut engine = Engine::new(b.build().unwrap());
        engine.push_uop(src, Uop::new("emit", [4]));
        // Alternate destinations tile by tile, the idiom the second-level
        // decoder's window/reuse mechanism is built for.
        for _ in 0..2 {
            engine.push_uop(mesh, Uop::new("route", [0, 0, 1]));
            engine.push_uop(mesh, Uop::new("route", [0, 1, 1]));
        }
        engine.push_uop(sink0, Uop::new("collect", [2]));
        engine.push_uop(sink1, Uop::new("collect", [2]));
        engine.run().unwrap();
        let c0 = &engine.fu::<TileSinkFu>(sink0).unwrap().collected;
        let c1 = &engine.fu::<TileSinkFu>(sink1).unwrap().collected;
        assert_eq!(c0[0].at(0, 0), 0.0);
        assert_eq!(c1[0].at(0, 0), 1.0);
        assert_eq!(c0[1].at(0, 0), 2.0);
        assert_eq!(c1[1].at(0, 0), 3.0);
    }
}
