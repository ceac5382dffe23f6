//! Latency-insensitive stream channels — the edges of the RSN network.
//!
//! A stream is a bounded FIFO between exactly one producer FU and one
//! consumer FU.  Correctness of an RSN program does not depend on timing:
//! producers stall when the channel is full, consumers stall when it is
//! empty (§3.1, "latency-insensitive ... the FUs are stallable").  The
//! simulator exposes the non-blocking `try_push` / `try_pop` pair; blocked
//! FUs simply report [`StepOutcome::Blocked`](crate::fu::StepOutcome) and are
//! retried on the next engine pass.

use crate::data::{Tile, Token};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;

/// Identifier of a stream edge within a [`Datapath`](crate::network::Datapath).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct StreamId(pub(crate) usize);

impl StreamId {
    /// Raw index of this stream inside its datapath.
    pub fn index(self) -> usize {
        self.0
    }

    /// Constructs a stream id from a raw index.
    ///
    /// Intended for tests and for code that rebuilds a datapath from a
    /// serialized description; ids only make sense relative to one datapath.
    pub fn from_index(index: usize) -> Self {
        StreamId(index)
    }
}

/// Aggregate statistics of one stream, gathered during execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StreamStats {
    /// Total tokens pushed over the lifetime of the run.
    pub tokens_pushed: u64,
    /// Total tokens popped over the lifetime of the run.
    pub tokens_popped: u64,
    /// Total FP32-equivalent words transferred.
    pub words_transferred: u64,
    /// Maximum queue occupancy observed.
    pub max_occupancy: usize,
    /// Number of failed pushes (producer backpressure events).
    pub push_stalls: u64,
    /// Number of failed pops (consumer starvation events).
    pub pop_stalls: u64,
}

/// A bounded FIFO carrying [`Token`]s between two functional units.
#[derive(Debug, Clone)]
pub struct StreamChannel {
    /// Shared so every run report can label its stream statistics without
    /// copying the name.
    pub(crate) name: Arc<str>,
    capacity: usize,
    queue: VecDeque<Token>,
    stats: StreamStats,
}

impl StreamChannel {
    /// Creates an empty channel with the given token capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`; a zero-capacity channel can never move data.
    pub fn new(name: impl Into<String>, capacity: usize) -> Self {
        assert!(capacity > 0, "stream capacity must be non-zero");
        Self {
            name: Arc::from(name.into()),
            capacity,
            queue: VecDeque::with_capacity(capacity),
            stats: StreamStats::default(),
        }
    }

    /// The stream's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Maximum number of in-flight tokens.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of tokens currently queued.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Returns `true` when no tokens are queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Returns `true` when the channel cannot accept another token.
    pub fn is_full(&self) -> bool {
        self.queue.len() >= self.capacity
    }

    /// Attempts to enqueue a token; returns it back if the channel is full.
    pub fn try_push(&mut self, token: Token) -> Result<(), Token> {
        if self.is_full() {
            self.stats.push_stalls += 1;
            return Err(token);
        }
        self.stats.tokens_pushed += 1;
        self.stats.words_transferred += token.word_count() as u64;
        self.queue.push_back(token);
        self.stats.max_occupancy = self.stats.max_occupancy.max(self.queue.len());
        Ok(())
    }

    /// Attempts to dequeue a token; returns `None` if the channel is empty.
    pub fn try_pop(&mut self) -> Option<Token> {
        match self.queue.pop_front() {
            Some(token) => {
                self.stats.tokens_popped += 1;
                Some(token)
            }
            None => {
                self.stats.pop_stalls += 1;
                None
            }
        }
    }

    /// Peeks at the next token without consuming it.
    pub fn peek(&self) -> Option<&Token> {
        self.queue.front()
    }

    /// Execution statistics accumulated so far.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }
}

/// Most tile buffers a [`StreamSet`] keeps for reuse — enough to cover
/// every tile in flight on the RSN-XNN datapath, so a steady-state run
/// allocates none.
const TILE_POOL_LIMIT: usize = 256;

/// The collection of stream channels owned by the execution engine.
///
/// Functional units access their bound streams through this set during a
/// [`step`](crate::fu::FunctionalUnit::step) call.  The set also keeps a
/// pool of tile buffers: FUs that consume a tile [`recycle`](Self::recycle)
/// it and FUs that produce one take a buffer with [`tile`](Self::tile), so
/// tiles circulate through the datapath without a heap allocation per
/// transfer.
#[derive(Debug, Default)]
pub struct StreamSet {
    channels: Vec<StreamChannel>,
    tile_pool: Vec<Vec<f32>>,
}

impl StreamSet {
    /// Creates an empty stream set.
    pub fn new() -> Self {
        Self::default()
    }

    /// A zero-filled `rows × cols` tile, built on a recycled buffer when the
    /// pool has one.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn tile(&mut self, rows: usize, cols: usize) -> Tile {
        match self.tile_pool.pop() {
            Some(buffer) => Tile::zeros_in(rows, cols, buffer),
            None => Tile::zeros(rows, cols),
        }
    }

    /// Returns a consumed tile's buffer to the pool.
    pub fn recycle(&mut self, tile: Tile) {
        if self.tile_pool.len() < TILE_POOL_LIMIT {
            self.tile_pool.push(tile.into_vec());
        }
    }

    /// Adds a channel and returns its id.
    pub fn add(&mut self, channel: StreamChannel) -> StreamId {
        let id = StreamId(self.channels.len());
        self.channels.push(channel);
        id
    }

    /// Number of channels.
    pub fn len(&self) -> usize {
        self.channels.len()
    }

    /// Returns `true` if the set holds no channels.
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }

    /// Immutable access to a channel.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this set.
    pub fn channel(&self, id: StreamId) -> &StreamChannel {
        &self.channels[id.0]
    }

    /// Mutable access to a channel.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this set.
    pub fn channel_mut(&mut self, id: StreamId) -> &mut StreamChannel {
        &mut self.channels[id.0]
    }

    /// Returns whether `id` refers to a channel of this set.
    pub fn contains(&self, id: StreamId) -> bool {
        id.0 < self.channels.len()
    }

    /// Convenience: can a token be pushed to `id` right now?
    pub fn can_push(&self, id: StreamId) -> bool {
        !self.channels[id.0].is_full()
    }

    /// Convenience: can a token be popped from `id` right now?
    pub fn can_pop(&self, id: StreamId) -> bool {
        !self.channels[id.0].is_empty()
    }

    /// Convenience wrapper over [`StreamChannel::try_push`].
    pub fn push(&mut self, id: StreamId, token: Token) -> Result<(), Token> {
        self.channels[id.0].try_push(token)
    }

    /// Convenience wrapper over [`StreamChannel::try_pop`].
    pub fn pop(&mut self, id: StreamId) -> Option<Token> {
        self.channels[id.0].try_pop()
    }

    /// Iterates over `(id, channel)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (StreamId, &StreamChannel)> {
        self.channels
            .iter()
            .enumerate()
            .map(|(i, c)| (StreamId(i), c))
    }

    /// Total tokens still queued across all channels (used for quiescence
    /// and leftover-data detection).
    pub fn total_queued(&self) -> usize {
        self.channels.iter().map(|c| c.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_is_preserved() {
        let mut ch = StreamChannel::new("s", 8);
        for i in 0..5 {
            ch.try_push(Token::Scalar(i as f32)).unwrap();
        }
        for i in 0..5 {
            assert_eq!(ch.try_pop().unwrap().as_scalar(), Some(i as f32));
        }
        assert!(ch.is_empty());
    }

    #[test]
    fn backpressure_when_full() {
        let mut ch = StreamChannel::new("s", 2);
        assert!(ch.try_push(Token::Flag(1)).is_ok());
        assert!(ch.try_push(Token::Flag(2)).is_ok());
        assert!(ch.is_full());
        let rejected = ch.try_push(Token::Flag(3));
        assert_eq!(rejected, Err(Token::Flag(3)));
        assert_eq!(ch.stats().push_stalls, 1);
    }

    #[test]
    fn starvation_counts_pop_stalls() {
        let mut ch = StreamChannel::new("s", 2);
        assert!(ch.try_pop().is_none());
        assert!(ch.try_pop().is_none());
        assert_eq!(ch.stats().pop_stalls, 2);
    }

    #[test]
    fn stats_track_words_and_occupancy() {
        let mut ch = StreamChannel::new("s", 4);
        ch.try_push(Token::Tile(crate::data::Tile::zeros(2, 4)))
            .unwrap();
        ch.try_push(Token::Scalar(1.0)).unwrap();
        assert_eq!(ch.stats().words_transferred, 9);
        assert_eq!(ch.stats().max_occupancy, 2);
        ch.try_pop().unwrap();
        assert_eq!(ch.stats().tokens_popped, 1);
        assert_eq!(ch.stats().max_occupancy, 2);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut ch = StreamChannel::new("s", 2);
        ch.try_push(Token::Scalar(7.0)).unwrap();
        assert_eq!(ch.peek().unwrap().as_scalar(), Some(7.0));
        assert_eq!(ch.len(), 1);
    }

    #[test]
    fn stream_set_push_pop_roundtrip() {
        let mut set = StreamSet::new();
        let a = set.add(StreamChannel::new("a", 2));
        let b = set.add(StreamChannel::new("b", 2));
        assert_eq!(set.len(), 2);
        assert!(set.contains(a));
        assert!(set.contains(b));
        set.push(a, Token::Scalar(1.0)).unwrap();
        assert!(set.can_pop(a));
        assert!(!set.can_pop(b));
        assert_eq!(set.pop(a).unwrap().as_scalar(), Some(1.0));
        assert_eq!(set.total_queued(), 0);
    }

    #[test]
    fn recycled_tile_buffers_are_reused_zeroed() {
        let mut set = StreamSet::new();
        let mut tile = set.tile(4, 4);
        tile.as_mut_slice().fill(3.0);
        let buffer = tile.as_slice().as_ptr();
        set.recycle(tile);
        let again = set.tile(2, 8);
        assert_eq!(again.as_slice().as_ptr(), buffer);
        assert_eq!((again.rows(), again.cols()), (2, 8));
        assert!(again.as_slice().iter().all(|&v| v == 0.0));
        assert_ne!(set.tile(1, 1).as_slice().as_ptr(), buffer);
    }

    #[test]
    #[should_panic(expected = "stream capacity must be non-zero")]
    fn zero_capacity_rejected() {
        let _ = StreamChannel::new("s", 0);
    }

    #[test]
    fn stream_id_index_roundtrip() {
        let id = StreamId::from_index(5);
        assert_eq!(id.index(), 5);
    }
}
