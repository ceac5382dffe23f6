//! The micro-operation (uOP) representation.
//!
//! A uOP launches exactly one execution of a kernel on one FU (§3.1).  It
//! carries only *control* information — what transformation to perform, which
//! neighbouring FU to stream to/from, how long the stream is — never data.
//! Because every FU type has its own control plane (Table 2 of the paper),
//! the core crate keeps uOPs neutral: a short opcode string plus a vector of
//! signed integer fields.  Domain crates (e.g. `rsn-xnn`) define typed
//! constructors and interpreters on top.

use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Control fields a uOP stores inline; every RSN-XNN kernel needs at most
/// six, so only hand-built uOPs with more fields touch the heap.
const INLINE_FIELDS: usize = 6;

/// A uOP's control fields.  Programs hold thousands of uOPs and the engine
/// moves every one of them from a program into a backlog and on into an FU
/// queue, so building, cloning and moving a uOP must not allocate.
#[derive(Clone)]
enum Fields {
    Inline { len: u8, data: [i64; INLINE_FIELDS] },
    Heap(Box<[i64]>),
}

impl Fields {
    fn collect(fields: impl IntoIterator<Item = i64>) -> Self {
        let mut data = [0; INLINE_FIELDS];
        let mut iter = fields.into_iter();
        for len in 0..INLINE_FIELDS {
            match iter.next() {
                Some(value) => data[len] = value,
                None => {
                    return Fields::Inline {
                        len: len as u8,
                        data,
                    }
                }
            }
        }
        match iter.next() {
            None => Fields::Inline {
                len: INLINE_FIELDS as u8,
                data,
            },
            Some(next) => Fields::Heap(
                data.into_iter()
                    .chain(std::iter::once(next))
                    .chain(iter)
                    .collect(),
            ),
        }
    }

    fn as_slice(&self) -> &[i64] {
        match self {
            Fields::Inline { len, data } => &data[..usize::from(*len)],
            Fields::Heap(fields) => fields,
        }
    }
}

/// A single micro-operation destined for one functional unit.
#[derive(Clone, Serialize, Deserialize)]
pub struct Uop {
    opcode: Cow<'static, str>,
    fields: Fields,
}

impl Uop {
    /// Creates a uOP with the given opcode and fields.  A `&'static str`
    /// mnemonic (every program generator's case) is borrowed, not copied.
    pub fn new(
        opcode: impl Into<Cow<'static, str>>,
        fields: impl IntoIterator<Item = i64>,
    ) -> Self {
        Self {
            opcode: opcode.into(),
            fields: Fields::collect(fields),
        }
    }

    /// The opcode mnemonic.
    pub fn opcode(&self) -> &str {
        &self.opcode
    }

    /// All control fields.
    pub fn fields(&self) -> &[i64] {
        self.fields.as_slice()
    }

    /// Field at `idx`, or `None` if absent.
    pub fn field(&self, idx: usize) -> Option<i64> {
        self.fields().get(idx).copied()
    }

    /// Field at `idx` interpreted as a flag (non-zero = true).
    pub fn flag(&self, idx: usize) -> bool {
        self.field(idx).map(|v| v != 0).unwrap_or(false)
    }

    /// Field at `idx` as `usize`, clamped at zero.
    pub fn unsigned(&self, idx: usize) -> usize {
        self.field(idx).map(|v| v.max(0) as usize).unwrap_or(0)
    }

    /// Number of control fields.
    pub fn field_count(&self) -> usize {
        self.fields().len()
    }

    /// Encoded size of this uOP in bytes, as counted for the paper's Fig. 9
    /// instruction-footprint comparison.
    ///
    /// The translated uOP format used on the PL side is a fixed 1-byte opcode
    /// plus 4 bytes per control field (the AIE side uses a single 4-byte
    /// control word, which domain code models separately).
    pub fn encoded_len(&self) -> usize {
        1 + 4 * self.field_count()
    }
}

impl PartialEq for Uop {
    fn eq(&self, other: &Self) -> bool {
        self.opcode() == other.opcode() && self.fields() == other.fields()
    }
}

impl Eq for Uop {}

impl PartialOrd for Uop {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Uop {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.opcode(), self.fields()).cmp(&(other.opcode(), other.fields()))
    }
}

impl Hash for Uop {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.opcode().hash(state);
        self.fields().hash(state);
    }
}

impl fmt::Debug for Uop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Uop")
            .field("opcode", &self.opcode())
            .field("fields", &self.fields())
            .finish()
    }
}

impl fmt::Display for Uop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.opcode)?;
        for (i, v) in self.fields().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// A bounded queue of uOPs pending at one FU.
///
/// The depth models the third-level decoder FIFO in front of each FU; the
/// paper reports that a depth of six between the uOP and mOP decoders is
/// deadlock-free for RSN-XNN (§3.3).
#[derive(Debug, Clone)]
pub struct UopQueue {
    depth: usize,
    queue: std::collections::VecDeque<Uop>,
    accepted: u64,
    retired: u64,
}

/// Default per-FU uOP FIFO depth (matches the paper's deadlock-free setting).
pub const DEFAULT_UOP_FIFO_DEPTH: usize = 6;

impl UopQueue {
    /// Creates an empty queue with the given depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "uop queue depth must be non-zero");
        Self {
            depth,
            queue: std::collections::VecDeque::with_capacity(depth),
            accepted: 0,
            retired: 0,
        }
    }

    /// Maximum number of pending uOPs.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of pending uOPs.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Returns `true` when no uOPs are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Returns `true` when the queue cannot accept another uOP.
    pub fn is_full(&self) -> bool {
        self.queue.len() >= self.depth
    }

    /// Attempts to enqueue a uOP, returning it back when the queue is full.
    pub fn try_push(&mut self, uop: Uop) -> Result<(), Uop> {
        if self.is_full() {
            return Err(uop);
        }
        self.accepted += 1;
        self.queue.push_back(uop);
        Ok(())
    }

    /// Pops the next uOP to execute.
    pub fn pop(&mut self) -> Option<Uop> {
        let u = self.queue.pop_front();
        if u.is_some() {
            self.retired += 1;
        }
        u
    }

    /// Peeks at the next uOP without consuming it.
    pub fn peek(&self) -> Option<&Uop> {
        self.queue.front()
    }

    /// Total uOPs ever accepted.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Total uOPs ever retired (popped for execution).
    pub fn retired(&self) -> u64 {
        self.retired
    }
}

impl Default for UopQueue {
    fn default() -> Self {
        Self::new(DEFAULT_UOP_FIFO_DEPTH)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uop_fields_and_flags() {
        let u = Uop::new("load", [1, 0, 42, -3]);
        assert_eq!(u.opcode(), "load");
        assert_eq!(u.field_count(), 4);
        assert_eq!(u.field(2), Some(42));
        assert_eq!(u.field(9), None);
        assert!(u.flag(0));
        assert!(!u.flag(1));
        assert!(!u.flag(10));
        assert_eq!(u.unsigned(3), 0);
        assert_eq!(u.unsigned(2), 42);
    }

    #[test]
    fn uops_past_the_inline_capacity_keep_every_field() {
        let long = Uop::new("wide", 0..9);
        assert_eq!(long.fields(), &[0, 1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(long.clone(), long);
        let full = Uop::new(String::from("full"), 0..6);
        assert_eq!(full.fields(), &[0, 1, 2, 3, 4, 5]);
        assert!(Uop::new("a", [1]) < Uop::new("a", [1, 0]));
        assert_eq!(
            format!("{:?}", Uop::new("load", [1, 2])),
            "Uop { opcode: \"load\", fields: [1, 2] }"
        );
    }

    #[test]
    fn uop_encoded_len_counts_header_and_fields() {
        assert_eq!(Uop::new("x", []).encoded_len(), 1);
        assert_eq!(Uop::new("x", [1, 2, 3]).encoded_len(), 13);
    }

    #[test]
    fn uop_display_is_readable() {
        let u = Uop::new("send", [2, 100]);
        assert_eq!(u.to_string(), "send(2, 100)");
    }

    #[test]
    fn queue_respects_depth_and_order() {
        let mut q = UopQueue::new(2);
        assert!(q.try_push(Uop::new("a", [])).is_ok());
        assert!(q.try_push(Uop::new("b", [])).is_ok());
        assert!(q.is_full());
        let rejected = q.try_push(Uop::new("c", []));
        assert!(rejected.is_err());
        assert_eq!(q.pop().unwrap().opcode(), "a");
        assert_eq!(q.peek().unwrap().opcode(), "b");
        assert_eq!(q.accepted(), 2);
        assert_eq!(q.retired(), 1);
    }

    #[test]
    fn default_queue_depth_matches_paper() {
        assert_eq!(UopQueue::default().depth(), 6);
    }
}
