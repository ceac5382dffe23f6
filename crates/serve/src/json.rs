//! Hand-rolled JSON emission *and parsing* for reports, grids, workload
//! specs and service statistics.
//!
//! The build environment has no crates.io access, so the workspace's `serde`
//! is a no-op stand-in (see `crates/support/serde`) and report types cannot
//! derive a real serialiser.  This module is the working replacement until
//! the registry is reachable: a tiny JSON document model, converters for
//! [`EvalReport`], evaluation grids, [`WorkloadSpec`], [`EvalError`] and
//! [`ServiceStats`], a recursive-descent [`parse`] function with positioned
//! errors, and typed decoders back out of the document model.  Together the
//! two halves are the wire format of the cross-process serving layer
//! (`crate::wire`/`crate::remote`).
//!
//! Emission is deterministic — object keys keep insertion order, metric
//! maps are `BTreeMap`-sorted, and floats print in Rust's shortest
//! round-trip form — so emitted documents are directly diffable,
//! snapshot-testable, and byte-stable across `emit → parse → emit`
//! (`tests/json_roundtrip.rs` pins this for every document the service
//! produces).
//!
//! Non-finite floats have no JSON representation; they emit as `null`.
//! Decoders map `null` back to `None` for optional metrics and to `NaN` for
//! structurally required floats, so a non-finite value survives a round
//! trip as "absent", never as a parse error.

use crate::request::Priority;
use crate::stats::{ClassStats, LatencyHistogram, PoolStats, ServiceStats, ShardStats};
use rsn_eval::{BreakdownRow, CycleStats, SegmentMetric};
use rsn_eval::{EvalError, EvalReport, SchedulerKind, WorkloadSpec};
use rsn_lib::mapping::MappingType;
use rsn_workloads::bert::BertConfig;
use rsn_workloads::models::ModelKind;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// An unsigned integer (kept apart from `Num` so counters never pick up
    /// a fractional representation).
    Int(u64),
    /// A float; non-finite values emit as `null` (JSON has no NaN/Inf).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An object node from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, JsonValue)>) -> Self {
        JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// An optional float: `None` (and non-finite values) emit as `null`.
    pub fn num_opt(value: Option<f64>) -> Self {
        value.map_or(JsonValue::Null, JsonValue::Num)
    }

    /// The value of `key`, when this node is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Renders the document with two-space indentation and a trailing
    /// newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(i) => out.push_str(&i.to_string()),
            JsonValue::Num(v) => {
                if v.is_finite() {
                    out.push_str(&v.to_string());
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            JsonValue::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                newline_indent(out, depth);
                out.push(']');
            }
            JsonValue::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, depth + 1);
                    out.push('"');
                    out.push_str(&escape(key));
                    out.push_str("\": ");
                    value.write(out, depth + 1);
                }
                newline_indent(out, depth);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Escapes a string for a JSON literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Parsing: text → JsonValue
// ---------------------------------------------------------------------------

/// A parse failure with its 1-based source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// 1-based line of the offending character.
    pub line: usize,
    /// 1-based column (in characters) of the offending character.
    pub column: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at line {}, column {}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

/// Parses one JSON document (surrounding whitespace allowed, trailing
/// non-whitespace rejected).
///
/// Numbers without a fraction, exponent or sign that fit in `u64` parse as
/// [`JsonValue::Int`]; everything else numeric parses as
/// [`JsonValue::Num`].  Together with the emitter's shortest-round-trip
/// float printing this makes `emit(parse(s)) == s` for every document this
/// module emits.
///
/// # Errors
///
/// Returns a [`JsonParseError`] carrying the 1-based line/column of the
/// first offending character.
pub fn parse(text: &str) -> Result<JsonValue, JsonParseError> {
    let mut parser = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    parser.skip_whitespace();
    let value = parser.value()?;
    parser.skip_whitespace();
    if parser.pos < parser.text.len() {
        return Err(parser.error("trailing characters after the document"));
    }
    Ok(value)
}

/// Nesting bound: deeper documents are rejected rather than risking a
/// stack overflow on hostile input (service documents nest ~5 levels).
const MAX_DEPTH: usize = 128;

/// Walks the input in place (`pos` is a byte offset, always on a char
/// boundary) — no side copy of the document, so a maximum-size frame costs
/// its own bytes and nothing more.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> JsonParseError {
        let (mut line, mut column) = (1usize, 1usize);
        for c in self.text[..self.pos].chars() {
            if c == '\n' {
                line += 1;
                column = 1;
            } else {
                column += 1;
            }
        }
        JsonParseError {
            line,
            column,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<char> {
        self.text[self.pos..].chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if let Some(c) = c {
            self.pos += c.len_utf8();
        }
        c
    }

    /// Steps back over a just-bumped character so errors point at it.
    fn retreat(&mut self, c: char) {
        self.pos -= c.len_utf8();
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: char) -> Result<(), JsonParseError> {
        match self.peek() {
            Some(found) if found == c => {
                self.pos += c.len_utf8();
                Ok(())
            }
            Some(found) => Err(self.error(format!("expected `{c}`, found `{found}`"))),
            None => Err(self.error(format!("expected `{c}`, found end of input"))),
        }
    }

    fn keyword(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonParseError> {
        for expected in word.chars() {
            match self.peek() {
                Some(c) if c == expected => {
                    self.pos += 1;
                }
                _ => return Err(self.error(format!("invalid literal (expected `{word}`)"))),
            }
        }
        Ok(value)
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        match self.peek() {
            Some('n') => self.keyword("null", JsonValue::Null),
            Some('t') => self.keyword("true", JsonValue::Bool(true)),
            Some('f') => self.keyword("false", JsonValue::Bool(false)),
            Some('"') => Ok(JsonValue::Str(self.string()?)),
            Some('[') => self.array(),
            Some('{') => self.object(),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.error(format!("unexpected character `{c}`"))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect('[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value()?);
            self.skip_whitespace();
            match self.bump() {
                Some(',') => continue,
                Some(']') => break,
                Some(c) => {
                    self.retreat(c);
                    return Err(self.error(format!("expected `,` or `]` in array, found `{c}`")));
                }
                None => return Err(self.error("unterminated array")),
            }
        }
        self.depth -= 1;
        Ok(JsonValue::Arr(items))
    }

    fn object(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect('{')?;
        self.depth += 1;
        let mut pairs = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some('}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_whitespace();
            if self.peek() != Some('"') {
                return Err(self.error("expected a string object key"));
            }
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(':')?;
            self.skip_whitespace();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_whitespace();
            match self.bump() {
                Some(',') => continue,
                Some('}') => break,
                Some(c) => {
                    self.retreat(c);
                    return Err(self.error(format!("expected `,` or `}}` in object, found `{c}`")));
                }
                None => return Err(self.error("unterminated object")),
            }
        }
        self.depth -= 1;
        Ok(JsonValue::Obj(pairs))
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('u') => {
                        let unit = self.hex4()?;
                        let c = if (0xD800..0xDC00).contains(&unit) {
                            // High surrogate: a low surrogate escape must
                            // follow to form one supplementary character.
                            if self.bump() != Some('\\') || self.bump() != Some('u') {
                                return Err(
                                    self.error("high surrogate not followed by `\\u` escape")
                                );
                            }
                            let low = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(self.error("invalid low surrogate value"));
                            }
                            let scalar = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(scalar)
                                .ok_or_else(|| self.error("invalid surrogate pair"))?
                        } else {
                            char::from_u32(unit)
                                .ok_or_else(|| self.error("unpaired surrogate escape"))?
                        };
                        out.push(c);
                    }
                    Some(c) => {
                        self.retreat(c);
                        return Err(self.error(format!("invalid escape `\\{c}`")));
                    }
                    None => return Err(self.error("unterminated string escape")),
                },
                Some(c) if (c as u32) < 0x20 => {
                    self.retreat(c);
                    return Err(self.error("unescaped control character in string"));
                }
                Some(c) => out.push(c),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let mut unit = 0u32;
        for _ in 0..4 {
            let digit = match self.bump() {
                Some(c) => match c.to_digit(16) {
                    Some(d) => d,
                    None => {
                        self.retreat(c);
                        return Err(self.error("invalid hex digit in `\\u` escape"));
                    }
                },
                None => return Err(self.error("truncated `\\u` escape")),
            };
            unit = unit * 16 + digit;
        }
        Ok(unit)
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some('-') {
            self.pos += 1;
        }
        if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            return Err(self.error("expected a digit"));
        }
        // Leading zeros are invalid JSON ("01"), a bare "0" is fine.
        if self.peek() == Some('0') {
            self.pos += 1;
            if matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos -= 1;
                return Err(self.error("leading zero in number"));
            }
        } else {
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let mut integral = self.text.as_bytes()[start] != b'-';
        if self.peek() == Some('.') {
            integral = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.error("expected a digit after the decimal point"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some('e' | 'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some('+' | '-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.error("expected a digit in the exponent"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        if integral {
            if let Ok(i) = text.parse::<u64>() {
                return Ok(JsonValue::Int(i));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.error(format!("invalid number `{text}`")))
    }
}

// ---------------------------------------------------------------------------
// Typed decoding: JsonValue → service/evaluation types
// ---------------------------------------------------------------------------

/// A structurally valid JSON document that does not decode into the
/// requested service type (missing field, wrong node kind, unknown
/// enum tag).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Which document/field was being decoded.
    pub context: String,
    /// What went wrong.
    pub message: String,
}

impl DecodeError {
    fn new(context: &str, message: impl Into<String>) -> Self {
        Self {
            context: context.to_string(),
            message: message.into(),
        }
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decoding {}: {}", self.context, self.message)
    }
}

impl std::error::Error for DecodeError {}

fn expect_obj<'a>(
    value: &'a JsonValue,
    ctx: &str,
) -> Result<&'a [(String, JsonValue)], DecodeError> {
    match value {
        JsonValue::Obj(pairs) => Ok(pairs),
        other => Err(DecodeError::new(
            ctx,
            format!("expected an object, found {}", kind(other)),
        )),
    }
}

fn expect_arr<'a>(value: &'a JsonValue, ctx: &str) -> Result<&'a [JsonValue], DecodeError> {
    match value {
        JsonValue::Arr(items) => Ok(items),
        other => Err(DecodeError::new(
            ctx,
            format!("expected an array, found {}", kind(other)),
        )),
    }
}

fn field<'a>(value: &'a JsonValue, key: &str, ctx: &str) -> Result<&'a JsonValue, DecodeError> {
    expect_obj(value, ctx)?;
    value
        .get(key)
        .ok_or_else(|| DecodeError::new(ctx, format!("missing field `{key}`")))
}

fn expect_str<'a>(value: &'a JsonValue, ctx: &str) -> Result<&'a str, DecodeError> {
    match value {
        JsonValue::Str(s) => Ok(s),
        other => Err(DecodeError::new(
            ctx,
            format!("expected a string, found {}", kind(other)),
        )),
    }
}

pub(crate) fn expect_u64(value: &JsonValue, ctx: &str) -> Result<u64, DecodeError> {
    match value {
        JsonValue::Int(i) => Ok(*i),
        JsonValue::Num(v) if v.fract() == 0.0 && *v >= 0.0 && *v <= u64::MAX as f64 => {
            Ok(*v as u64)
        }
        other => Err(DecodeError::new(
            ctx,
            format!("expected an unsigned integer, found {}", kind(other)),
        )),
    }
}

pub(crate) fn expect_usize(value: &JsonValue, ctx: &str) -> Result<usize, DecodeError> {
    let v = expect_u64(value, ctx)?;
    usize::try_from(v).map_err(|_| DecodeError::new(ctx, format!("{v} does not fit in usize")))
}

/// Required floats decode `null` (the emission of a non-finite value) back
/// to `NaN`, so a report with a NaN metric survives the wire structurally.
fn expect_f64(value: &JsonValue, ctx: &str) -> Result<f64, DecodeError> {
    match value {
        JsonValue::Int(i) => Ok(*i as f64),
        JsonValue::Num(v) => Ok(*v),
        JsonValue::Null => Ok(f64::NAN),
        other => Err(DecodeError::new(
            ctx,
            format!("expected a number, found {}", kind(other)),
        )),
    }
}

fn expect_opt_f64(value: &JsonValue, ctx: &str) -> Result<Option<f64>, DecodeError> {
    match value {
        JsonValue::Null => Ok(None),
        other => expect_f64(other, ctx).map(Some),
    }
}

fn kind(value: &JsonValue) -> &'static str {
    match value {
        JsonValue::Null => "null",
        JsonValue::Bool(_) => "a boolean",
        JsonValue::Int(_) | JsonValue::Num(_) => "a number",
        JsonValue::Str(_) => "a string",
        JsonValue::Arr(_) => "an array",
        JsonValue::Obj(_) => "an object",
    }
}

// ---------------------------------------------------------------------------
// WorkloadSpec
// ---------------------------------------------------------------------------

fn bert_config_json(cfg: &BertConfig) -> JsonValue {
    JsonValue::obj([
        ("hidden", JsonValue::Int(cfg.hidden as u64)),
        ("heads", JsonValue::Int(cfg.heads as u64)),
        ("ff_dim", JsonValue::Int(cfg.ff_dim as u64)),
        ("seq_len", JsonValue::Int(cfg.seq_len as u64)),
        ("batch", JsonValue::Int(cfg.batch as u64)),
        ("layers", JsonValue::Int(cfg.layers as u64)),
    ])
}

fn bert_config_from_json(value: &JsonValue) -> Result<BertConfig, DecodeError> {
    const CTX: &str = "BertConfig";
    Ok(BertConfig {
        hidden: expect_usize(field(value, "hidden", CTX)?, CTX)?,
        heads: expect_usize(field(value, "heads", CTX)?, CTX)?,
        ff_dim: expect_usize(field(value, "ff_dim", CTX)?, CTX)?,
        seq_len: expect_usize(field(value, "seq_len", CTX)?, CTX)?,
        batch: expect_usize(field(value, "batch", CTX)?, CTX)?,
        layers: expect_usize(field(value, "layers", CTX)?, CTX)?,
    })
}

/// Converts one workload spec into a self-describing JSON node (tagged with
/// a `"workload"` discriminant) — the request side of the shard wire
/// protocol.
pub fn workload_spec_json(spec: &WorkloadSpec) -> JsonValue {
    match spec {
        WorkloadSpec::EncoderLayer { cfg } => JsonValue::obj([
            ("workload", JsonValue::Str("encoder_layer".to_string())),
            ("cfg", bert_config_json(cfg)),
        ]),
        WorkloadSpec::FullModel { cfg } => JsonValue::obj([
            ("workload", JsonValue::Str("full_model".to_string())),
            ("cfg", bert_config_json(cfg)),
        ]),
        WorkloadSpec::SquareGemm { n } => JsonValue::obj([
            ("workload", JsonValue::Str("square_gemm".to_string())),
            ("n", JsonValue::Int(*n as u64)),
        ]),
        WorkloadSpec::ZooModel { kind } => JsonValue::obj([
            ("workload", JsonValue::Str("zoo_model".to_string())),
            ("model", JsonValue::Str(kind.name().to_string())),
        ]),
        WorkloadSpec::AttentionMapping { cfg, mapping } => JsonValue::obj([
            ("workload", JsonValue::Str("attention_mapping".to_string())),
            ("cfg", bert_config_json(cfg)),
            ("mapping", JsonValue::Str(mapping.letter().to_string())),
        ]),
        WorkloadSpec::PowerBreakdown => {
            JsonValue::obj([("workload", JsonValue::Str("power_breakdown".to_string()))])
        }
        WorkloadSpec::DatapathProperties => JsonValue::obj([(
            "workload",
            JsonValue::Str("datapath_properties".to_string()),
        )]),
        WorkloadSpec::InstructionFootprint { m, k, n } => JsonValue::obj([
            (
                "workload",
                JsonValue::Str("instruction_footprint".to_string()),
            ),
            ("m", JsonValue::Int(*m as u64)),
            ("k", JsonValue::Int(*k as u64)),
            ("n", JsonValue::Int(*n as u64)),
        ]),
        WorkloadSpec::FunctionalGemm { m, k, n, seed } => JsonValue::obj([
            ("workload", JsonValue::Str("functional_gemm".to_string())),
            ("m", JsonValue::Int(*m as u64)),
            ("k", JsonValue::Int(*k as u64)),
            ("n", JsonValue::Int(*n as u64)),
            ("seed", JsonValue::Int(*seed)),
        ]),
        WorkloadSpec::FunctionalAttention { cfg, seed } => JsonValue::obj([
            (
                "workload",
                JsonValue::Str("functional_attention".to_string()),
            ),
            ("cfg", bert_config_json(cfg)),
            ("seed", JsonValue::Int(*seed)),
        ]),
        WorkloadSpec::ScalarPipeline { elements } => JsonValue::obj([
            ("workload", JsonValue::Str("scalar_pipeline".to_string())),
            ("elements", JsonValue::Int(*elements as u64)),
        ]),
    }
}

/// Decodes a [`workload_spec_json`] document back into a [`WorkloadSpec`].
pub fn workload_spec_from_json(value: &JsonValue) -> Result<WorkloadSpec, DecodeError> {
    const CTX: &str = "WorkloadSpec";
    let tag = expect_str(field(value, "workload", CTX)?, CTX)?;
    match tag {
        "encoder_layer" => Ok(WorkloadSpec::EncoderLayer {
            cfg: bert_config_from_json(field(value, "cfg", CTX)?)?,
        }),
        "full_model" => Ok(WorkloadSpec::FullModel {
            cfg: bert_config_from_json(field(value, "cfg", CTX)?)?,
        }),
        "square_gemm" => Ok(WorkloadSpec::SquareGemm {
            n: expect_usize(field(value, "n", CTX)?, CTX)?,
        }),
        "zoo_model" => {
            let name = expect_str(field(value, "model", CTX)?, CTX)?;
            let kind = ModelKind::table7_models()
                .into_iter()
                .find(|k| k.name() == name)
                .ok_or_else(|| DecodeError::new(CTX, format!("unknown zoo model `{name}`")))?;
            Ok(WorkloadSpec::ZooModel { kind })
        }
        "attention_mapping" => {
            let letter = expect_str(field(value, "mapping", CTX)?, CTX)?;
            let mapping = MappingType::all()
                .into_iter()
                .find(|m| m.letter().to_string() == letter)
                .ok_or_else(|| DecodeError::new(CTX, format!("unknown mapping type `{letter}`")))?;
            Ok(WorkloadSpec::AttentionMapping {
                cfg: bert_config_from_json(field(value, "cfg", CTX)?)?,
                mapping,
            })
        }
        "power_breakdown" => Ok(WorkloadSpec::PowerBreakdown),
        "datapath_properties" => Ok(WorkloadSpec::DatapathProperties),
        "instruction_footprint" => Ok(WorkloadSpec::InstructionFootprint {
            m: expect_usize(field(value, "m", CTX)?, CTX)?,
            k: expect_usize(field(value, "k", CTX)?, CTX)?,
            n: expect_usize(field(value, "n", CTX)?, CTX)?,
        }),
        "functional_gemm" => Ok(WorkloadSpec::FunctionalGemm {
            m: expect_usize(field(value, "m", CTX)?, CTX)?,
            k: expect_usize(field(value, "k", CTX)?, CTX)?,
            n: expect_usize(field(value, "n", CTX)?, CTX)?,
            seed: expect_u64(field(value, "seed", CTX)?, CTX)?,
        }),
        "functional_attention" => Ok(WorkloadSpec::FunctionalAttention {
            cfg: bert_config_from_json(field(value, "cfg", CTX)?)?,
            seed: expect_u64(field(value, "seed", CTX)?, CTX)?,
        }),
        "scalar_pipeline" => Ok(WorkloadSpec::ScalarPipeline {
            elements: expect_usize(field(value, "elements", CTX)?, CTX)?,
        }),
        other => Err(DecodeError::new(
            CTX,
            format!("unknown workload tag `{other}`"),
        )),
    }
}

// ---------------------------------------------------------------------------
// EvalReport
// ---------------------------------------------------------------------------

/// Converts one report into a JSON document node.
pub fn report_json(report: &EvalReport) -> JsonValue {
    JsonValue::obj([
        ("backend", JsonValue::Str(report.backend.to_string())),
        ("workload", JsonValue::Str(report.workload.to_string())),
        ("latency_s", JsonValue::num_opt(report.latency_s)),
        (
            "throughput_tasks_per_s",
            JsonValue::num_opt(report.throughput_tasks_per_s),
        ),
        ("achieved_flops", JsonValue::num_opt(report.achieved_flops)),
        (
            "segments",
            JsonValue::Arr(
                report
                    .segments
                    .iter()
                    .map(|s| {
                        JsonValue::obj([
                            ("name", JsonValue::Str(s.name.to_string())),
                            ("latency_s", JsonValue::Num(s.latency_s)),
                            ("compute_s", JsonValue::Num(s.compute_s)),
                            ("ddr_s", JsonValue::Num(s.ddr_s)),
                            ("lpddr_s", JsonValue::Num(s.lpddr_s)),
                            ("phase_s", JsonValue::Num(s.phase_s)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "breakdown",
            JsonValue::Arr(
                report
                    .breakdown
                    .iter()
                    .map(|row| {
                        JsonValue::obj([
                            ("name", JsonValue::Str(row.name.to_string())),
                            (
                                "values",
                                JsonValue::Obj(
                                    row.values
                                        .iter()
                                        .map(|(k, v)| (k.to_string(), JsonValue::Num(*v)))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "cycle",
            report.cycle.as_ref().map_or(JsonValue::Null, |c| {
                JsonValue::obj([
                    ("scheduler", JsonValue::Str(format!("{:?}", c.scheduler))),
                    ("steps", JsonValue::Int(c.steps)),
                    ("fu_step_calls", JsonValue::Int(c.fu_step_calls)),
                    ("makespan_cycles", JsonValue::Int(c.makespan_cycles)),
                    ("uops_retired", JsonValue::Int(c.uops_retired)),
                    ("words_transferred", JsonValue::Int(c.words_transferred)),
                    ("max_abs_error", JsonValue::num_opt(c.max_abs_error)),
                ])
            }),
        ),
        (
            "metrics",
            JsonValue::Obj(
                report
                    .metrics
                    .iter()
                    .map(|(k, v)| (k.to_string(), JsonValue::Num(*v)))
                    .collect(),
            ),
        ),
    ])
}

fn segment_from_json(value: &JsonValue) -> Result<SegmentMetric, DecodeError> {
    const CTX: &str = "SegmentMetric";
    Ok(SegmentMetric {
        name: expect_str(field(value, "name", CTX)?, CTX)?.into(),
        latency_s: expect_f64(field(value, "latency_s", CTX)?, CTX)?,
        compute_s: expect_f64(field(value, "compute_s", CTX)?, CTX)?,
        ddr_s: expect_f64(field(value, "ddr_s", CTX)?, CTX)?,
        lpddr_s: expect_f64(field(value, "lpddr_s", CTX)?, CTX)?,
        phase_s: expect_f64(field(value, "phase_s", CTX)?, CTX)?,
    })
}

fn breakdown_from_json(value: &JsonValue) -> Result<BreakdownRow, DecodeError> {
    const CTX: &str = "BreakdownRow";
    let values = expect_obj(field(value, "values", CTX)?, CTX)?
        .iter()
        .map(|(k, v)| Ok((k.as_str().into(), expect_f64(v, CTX)?)))
        .collect::<Result<Vec<_>, DecodeError>>()?;
    Ok(BreakdownRow {
        name: expect_str(field(value, "name", CTX)?, CTX)?.into(),
        values,
    })
}

fn cycle_from_json(value: &JsonValue) -> Result<CycleStats, DecodeError> {
    const CTX: &str = "CycleStats";
    let scheduler = match expect_str(field(value, "scheduler", CTX)?, CTX)? {
        "EventDriven" => SchedulerKind::EventDriven,
        "RoundRobin" => SchedulerKind::RoundRobin,
        other => {
            return Err(DecodeError::new(
                CTX,
                format!("unknown scheduler `{other}`"),
            ));
        }
    };
    Ok(CycleStats {
        scheduler,
        steps: expect_u64(field(value, "steps", CTX)?, CTX)?,
        fu_step_calls: expect_u64(field(value, "fu_step_calls", CTX)?, CTX)?,
        makespan_cycles: expect_u64(field(value, "makespan_cycles", CTX)?, CTX)?,
        uops_retired: expect_u64(field(value, "uops_retired", CTX)?, CTX)?,
        words_transferred: expect_u64(field(value, "words_transferred", CTX)?, CTX)?,
        max_abs_error: expect_opt_f64(field(value, "max_abs_error", CTX)?, CTX)?,
    })
}

/// Decodes a [`report_json`] document back into an [`EvalReport`].
pub fn report_from_json(value: &JsonValue) -> Result<EvalReport, DecodeError> {
    const CTX: &str = "EvalReport";
    let mut report = EvalReport::new(
        expect_str(field(value, "backend", CTX)?, CTX)?,
        expect_str(field(value, "workload", CTX)?, CTX)?,
    );
    report.latency_s = expect_opt_f64(field(value, "latency_s", CTX)?, CTX)?;
    report.throughput_tasks_per_s =
        expect_opt_f64(field(value, "throughput_tasks_per_s", CTX)?, CTX)?;
    report.achieved_flops = expect_opt_f64(field(value, "achieved_flops", CTX)?, CTX)?;
    report.segments = expect_arr(field(value, "segments", CTX)?, CTX)?
        .iter()
        .map(segment_from_json)
        .collect::<Result<_, _>>()?;
    report.breakdown = expect_arr(field(value, "breakdown", CTX)?, CTX)?
        .iter()
        .map(breakdown_from_json)
        .collect::<Result<_, _>>()?;
    report.cycle = match field(value, "cycle", CTX)? {
        JsonValue::Null => None,
        cycle => Some(cycle_from_json(cycle)?),
    };
    for (key, metric) in expect_obj(field(value, "metrics", CTX)?, CTX)? {
        report
            .metrics
            .insert(key.as_str(), expect_f64(metric, CTX)?);
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// EvalError
// ---------------------------------------------------------------------------

/// Converts an evaluation error into a structured, decodable JSON node
/// (the wire form; grid documents use the flat string form of
/// [`result_json`]).
///
/// Engine errors carry `rsn-core` payload types that do not cross the
/// wire; they are encoded by their display text and decode as
/// [`EvalError::Remote`], which re-displays that text verbatim.
pub fn error_json(error: &EvalError) -> JsonValue {
    match error {
        EvalError::Unsupported { backend, workload } => JsonValue::obj([
            ("kind", JsonValue::Str("unsupported".to_string())),
            ("backend", JsonValue::Str(backend.clone())),
            ("workload", JsonValue::Str(workload.clone())),
        ]),
        EvalError::TooLarge {
            backend,
            workload,
            limit,
        } => JsonValue::obj([
            ("kind", JsonValue::Str("too_large".to_string())),
            ("backend", JsonValue::Str(backend.clone())),
            ("workload", JsonValue::Str(workload.clone())),
            ("limit", JsonValue::Str(limit.clone())),
        ]),
        EvalError::Engine(_) | EvalError::Remote { .. } => JsonValue::obj([
            ("kind", JsonValue::Str("remote".to_string())),
            ("message", JsonValue::Str(error.to_string())),
        ]),
        EvalError::Panicked {
            backend,
            workload,
            reason,
        } => JsonValue::obj([
            ("kind", JsonValue::Str("panicked".to_string())),
            ("backend", JsonValue::Str(backend.clone())),
            ("workload", JsonValue::Str(workload.clone())),
            ("reason", JsonValue::Str(reason.clone())),
        ]),
        EvalError::Transport { backend, detail } => JsonValue::obj([
            ("kind", JsonValue::Str("transport".to_string())),
            ("backend", JsonValue::Str(backend.clone())),
            ("detail", JsonValue::Str(detail.clone())),
        ]),
        EvalError::Overloaded { class, reason } => JsonValue::obj([
            ("kind", JsonValue::Str("overloaded".to_string())),
            ("class", JsonValue::Str(class.clone())),
            ("reason", JsonValue::Str(reason.clone())),
        ]),
    }
}

/// Decodes an [`error_json`] document back into an [`EvalError`].
pub fn error_from_json(value: &JsonValue) -> Result<EvalError, DecodeError> {
    const CTX: &str = "EvalError";
    let str_field = |key: &str| -> Result<String, DecodeError> {
        Ok(expect_str(field(value, key, CTX)?, CTX)?.to_string())
    };
    match expect_str(field(value, "kind", CTX)?, CTX)? {
        "unsupported" => Ok(EvalError::Unsupported {
            backend: str_field("backend")?,
            workload: str_field("workload")?,
        }),
        "too_large" => Ok(EvalError::TooLarge {
            backend: str_field("backend")?,
            workload: str_field("workload")?,
            limit: str_field("limit")?,
        }),
        "remote" => Ok(EvalError::Remote {
            message: str_field("message")?,
        }),
        "panicked" => Ok(EvalError::Panicked {
            backend: str_field("backend")?,
            workload: str_field("workload")?,
            reason: str_field("reason")?,
        }),
        "transport" => Ok(EvalError::Transport {
            backend: str_field("backend")?,
            detail: str_field("detail")?,
        }),
        "overloaded" => Ok(EvalError::Overloaded {
            class: str_field("class")?,
            reason: str_field("reason")?,
        }),
        other => Err(DecodeError::new(
            CTX,
            format!("unknown error kind `{other}`"),
        )),
    }
}

// ---------------------------------------------------------------------------
// Results and grids
// ---------------------------------------------------------------------------

/// Converts one evaluation result (report or error) into a node; errors emit
/// as `{"error": "..."}` so grids stay rectangular.
pub fn result_json(result: &Result<EvalReport, EvalError>) -> JsonValue {
    match result {
        Ok(report) => report_json(report),
        Err(e) => JsonValue::obj([("error", JsonValue::Str(e.to_string()))]),
    }
}

/// Decodes a [`result_json`] node.  The flat `{"error": "..."}` form loses
/// the error's structure by design (grids compare text); it decodes as
/// [`EvalError::Remote`], which displays the original text verbatim so a
/// decoded grid re-emits byte-identically.
pub fn result_from_json(value: &JsonValue) -> Result<Result<EvalReport, EvalError>, DecodeError> {
    match value.get("error") {
        Some(JsonValue::Str(message)) => Ok(Err(EvalError::Remote {
            message: message.clone(),
        })),
        Some(structured) => Ok(Err(error_from_json(structured)?)),
        None => Ok(Ok(report_from_json(value)?)),
    }
}

/// Converts an `Evaluator`/`EvalService` grid (outer index: backend, inner:
/// workload) into a self-describing JSON document.
pub fn grid_json(
    backends: &[String],
    workloads: &[WorkloadSpec],
    grid: &[Vec<Result<EvalReport, EvalError>>],
) -> JsonValue {
    let names: Vec<String> = workloads.iter().map(|w| w.name()).collect();
    grid_json_named(backends, &names, grid)
}

/// [`grid_json`] over pre-rendered workload labels — what a decoded
/// [`GridDoc`] re-emits, since grid documents carry names, not specs.
pub fn grid_json_named(
    backends: &[String],
    workload_names: &[String],
    grid: &[Vec<Result<EvalReport, EvalError>>],
) -> JsonValue {
    JsonValue::obj([
        (
            "backends",
            JsonValue::Arr(backends.iter().map(|b| JsonValue::Str(b.clone())).collect()),
        ),
        (
            "workloads",
            JsonValue::Arr(
                workload_names
                    .iter()
                    .map(|w| JsonValue::Str(w.clone()))
                    .collect(),
            ),
        ),
        (
            "reports",
            JsonValue::Arr(
                grid.iter()
                    .map(|row| JsonValue::Arr(row.iter().map(result_json).collect()))
                    .collect(),
            ),
        ),
    ])
}

/// A decoded grid document.
#[derive(Debug, Clone, PartialEq)]
pub struct GridDoc {
    /// Backend names, outer grid order.
    pub backends: Vec<String>,
    /// Workload labels, inner grid order.
    pub workloads: Vec<String>,
    /// `[backend][workload]` results.
    pub reports: Vec<Vec<Result<EvalReport, EvalError>>>,
}

/// Decodes a [`grid_json`] document.
pub fn grid_from_json(value: &JsonValue) -> Result<GridDoc, DecodeError> {
    const CTX: &str = "grid";
    let backends = expect_arr(field(value, "backends", CTX)?, CTX)?
        .iter()
        .map(|b| Ok(expect_str(b, CTX)?.to_string()))
        .collect::<Result<Vec<_>, DecodeError>>()?;
    let workloads = expect_arr(field(value, "workloads", CTX)?, CTX)?
        .iter()
        .map(|w| Ok(expect_str(w, CTX)?.to_string()))
        .collect::<Result<Vec<_>, DecodeError>>()?;
    let reports = expect_arr(field(value, "reports", CTX)?, CTX)?
        .iter()
        .map(|row| {
            expect_arr(row, CTX)?
                .iter()
                .map(result_from_json)
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(GridDoc {
        backends,
        workloads,
        reports,
    })
}

// ---------------------------------------------------------------------------
// ServiceStats
// ---------------------------------------------------------------------------

/// Converts a stats snapshot into a JSON document node.
pub fn stats_json(stats: &ServiceStats) -> JsonValue {
    JsonValue::obj([
        ("submitted", JsonValue::Int(stats.submitted)),
        ("completed", JsonValue::Int(stats.completed)),
        ("batches", JsonValue::Int(stats.batches)),
        ("batched_requests", JsonValue::Int(stats.batched_requests)),
        ("cache_hits", JsonValue::Int(stats.cache_hits)),
        ("cache_misses", JsonValue::Int(stats.cache_misses)),
        ("inflight_merged", JsonValue::Int(stats.inflight_merged)),
        ("evaluations", JsonValue::Int(stats.evaluations)),
        ("eval_errors", JsonValue::Int(stats.eval_errors)),
        ("evictions", JsonValue::Int(stats.evictions)),
        (
            "classes",
            JsonValue::Arr(
                stats
                    .classes
                    .iter()
                    .map(|class| {
                        JsonValue::obj([
                            ("class", JsonValue::Str(class.priority.as_str().to_string())),
                            ("shed_deadline", JsonValue::Int(class.shed_deadline)),
                            ("shed_queue", JsonValue::Int(class.shed_queue)),
                            (
                                "latency",
                                JsonValue::obj([
                                    ("count", JsonValue::Int(class.latency.count)),
                                    ("sum_us", JsonValue::Int(class.latency.sum_us)),
                                    ("max_us", JsonValue::Int(class.latency.max_us)),
                                    (
                                        "buckets",
                                        JsonValue::Arr(
                                            class
                                                .latency
                                                .bucket_counts()
                                                .iter()
                                                .map(|&c| JsonValue::Int(c))
                                                .collect(),
                                        ),
                                    ),
                                ]),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_shard",
            JsonValue::Arr(
                stats
                    .per_shard
                    .iter()
                    .map(|shard| {
                        JsonValue::obj([
                            ("backend", JsonValue::Str(shard.backend.clone())),
                            ("evaluations", JsonValue::Int(shard.evaluations)),
                            ("errors", JsonValue::Int(shard.errors)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "remote_pools",
            JsonValue::Arr(
                stats
                    .remote_pools
                    .iter()
                    .map(|pool| {
                        JsonValue::obj([
                            ("addr", JsonValue::Str(pool.addr.clone())),
                            ("checkouts", JsonValue::Int(pool.checkouts)),
                            ("reused", JsonValue::Int(pool.reused)),
                            ("dials", JsonValue::Int(pool.dials)),
                            ("redials", JsonValue::Int(pool.redials)),
                            ("discarded", JsonValue::Int(pool.discarded)),
                            ("pipelined_batches", JsonValue::Int(pool.pipelined_batches)),
                            ("pipelined_specs", JsonValue::Int(pool.pipelined_specs)),
                            ("bytes_sent", JsonValue::Int(pool.bytes_sent)),
                            ("bytes_received", JsonValue::Int(pool.bytes_received)),
                            ("frames_coalesced", JsonValue::Int(pool.frames_coalesced)),
                            ("ring_exchanges", JsonValue::Int(pool.ring_exchanges)),
                            ("reactor_wakeups", JsonValue::Int(pool.reactor_wakeups)),
                            ("inflight_per_conn", JsonValue::Int(pool.inflight_per_conn)),
                            ("dict_defines", JsonValue::Int(pool.dict_defines)),
                            ("dict_hits", JsonValue::Int(pool.dict_hits)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Decodes a [`stats_json`] document back into a [`ServiceStats`].
pub fn stats_from_json(value: &JsonValue) -> Result<ServiceStats, DecodeError> {
    const CTX: &str = "ServiceStats";
    let int_field =
        |key: &str| -> Result<u64, DecodeError> { expect_u64(field(value, key, CTX)?, CTX) };
    let classes = expect_arr(field(value, "classes", CTX)?, CTX)?
        .iter()
        .map(|class| {
            let spelling = expect_str(field(class, "class", CTX)?, CTX)?;
            let priority = Priority::parse(spelling).ok_or_else(|| {
                DecodeError::new(CTX, format!("unknown priority class `{spelling}`"))
            })?;
            let latency = field(class, "latency", CTX)?;
            let buckets = expect_arr(field(latency, "buckets", CTX)?, CTX)?
                .iter()
                .map(|b| expect_u64(b, CTX))
                .collect::<Result<Vec<_>, DecodeError>>()?;
            Ok(ClassStats {
                priority,
                latency: LatencyHistogram::from_parts(
                    buckets,
                    expect_u64(field(latency, "count", CTX)?, CTX)?,
                    expect_u64(field(latency, "sum_us", CTX)?, CTX)?,
                    expect_u64(field(latency, "max_us", CTX)?, CTX)?,
                ),
                shed_deadline: expect_u64(field(class, "shed_deadline", CTX)?, CTX)?,
                shed_queue: expect_u64(field(class, "shed_queue", CTX)?, CTX)?,
            })
        })
        .collect::<Result<Vec<_>, DecodeError>>()?;
    let per_shard = expect_arr(field(value, "per_shard", CTX)?, CTX)?
        .iter()
        .map(|shard| {
            Ok(ShardStats {
                backend: expect_str(field(shard, "backend", CTX)?, CTX)?.to_string(),
                evaluations: expect_u64(field(shard, "evaluations", CTX)?, CTX)?,
                errors: expect_u64(field(shard, "errors", CTX)?, CTX)?,
            })
        })
        .collect::<Result<Vec<_>, DecodeError>>()?;
    let remote_pools = expect_arr(field(value, "remote_pools", CTX)?, CTX)?
        .iter()
        .map(|pool| {
            let pool_int =
                |key: &str| -> Result<u64, DecodeError> { expect_u64(field(pool, key, CTX)?, CTX) };
            Ok(PoolStats {
                addr: expect_str(field(pool, "addr", CTX)?, CTX)?.to_string(),
                checkouts: pool_int("checkouts")?,
                reused: pool_int("reused")?,
                dials: pool_int("dials")?,
                redials: pool_int("redials")?,
                discarded: pool_int("discarded")?,
                pipelined_batches: pool_int("pipelined_batches")?,
                pipelined_specs: pool_int("pipelined_specs")?,
                bytes_sent: pool_int("bytes_sent")?,
                bytes_received: pool_int("bytes_received")?,
                frames_coalesced: pool_int("frames_coalesced")?,
                ring_exchanges: pool_int("ring_exchanges")?,
                reactor_wakeups: pool_int("reactor_wakeups")?,
                inflight_per_conn: pool_int("inflight_per_conn")?,
                dict_defines: pool_int("dict_defines")?,
                dict_hits: pool_int("dict_hits")?,
            })
        })
        .collect::<Result<Vec<_>, DecodeError>>()?;
    Ok(ServiceStats {
        submitted: int_field("submitted")?,
        completed: int_field("completed")?,
        batches: int_field("batches")?,
        batched_requests: int_field("batched_requests")?,
        cache_hits: int_field("cache_hits")?,
        cache_misses: int_field("cache_misses")?,
        inflight_merged: int_field("inflight_merged")?,
        evaluations: int_field("evaluations")?,
        eval_errors: int_field("eval_errors")?,
        evictions: int_field("evictions")?,
        classes,
        per_shard,
        remote_pools,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsn_eval::{BreakdownRow, EvalReport};

    #[test]
    fn escape_covers_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain ×"), "plain ×");
    }

    #[test]
    fn floats_round_trip_and_non_finite_is_null() {
        assert_eq!(JsonValue::Num(0.01798).to_pretty(), "0.01798\n");
        assert_eq!(JsonValue::Num(24.0).to_pretty(), "24\n");
        assert_eq!(JsonValue::Num(f64::NAN).to_pretty(), "null\n");
        assert_eq!(JsonValue::num_opt(None).to_pretty(), "null\n");
        assert_eq!(
            JsonValue::Int(u64::MAX).to_pretty(),
            format!("{}\n", u64::MAX)
        );
    }

    #[test]
    fn report_document_shape() {
        let mut report = EvalReport::new("rsn-xnn", "encoder-layer L=512 B=6");
        report.latency_s = Some(17.98e-3);
        report.breakdown.push(BreakdownRow {
            name: "MME".into(),
            values: vec![("watts".into(), 60.8)],
        });
        report.metrics.insert("speedup".to_string(), 2.47);
        let text = report_json(&report).to_pretty();
        assert!(text.contains("\"backend\": \"rsn-xnn\""));
        assert!(text.contains("\"latency_s\": 0.01798"));
        assert!(text.contains("\"throughput_tasks_per_s\": null"));
        assert!(text.contains("\"watts\": 60.8"));
        assert!(text.contains("\"speedup\": 2.47"));
        // Deterministic: the same report always renders the same bytes.
        assert_eq!(text, report_json(&report).to_pretty());
    }

    #[test]
    fn grid_document_is_rectangular_with_errors() {
        let report = EvalReport::new("a", "w");
        let err = EvalError::Unsupported {
            backend: "a".to_string(),
            workload: "w".to_string(),
        };
        let grid = vec![vec![Ok(report), Err(err)]];
        let doc = grid_json(
            &["a".to_string()],
            &[
                WorkloadSpec::SquareGemm { n: 1 },
                WorkloadSpec::SquareGemm { n: 2 },
            ],
            &grid,
        );
        let text = doc.to_pretty();
        assert!(text.contains("\"error\": \"backend `a` does not support workload `w`\""));
        assert!(text.contains("\"workloads\""));
    }

    #[test]
    fn parses_scalars_and_structures() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("42").unwrap(), JsonValue::Int(42));
        assert_eq!(parse("-3.5").unwrap(), JsonValue::Num(-3.5));
        assert_eq!(parse("1e3").unwrap(), JsonValue::Num(1000.0));
        assert_eq!(parse("\"hi\"").unwrap(), JsonValue::Str("hi".to_string()));
        assert_eq!(parse("[]").unwrap(), JsonValue::Arr(Vec::new()));
        assert_eq!(parse("{}").unwrap(), JsonValue::Obj(Vec::new()));
        assert_eq!(
            parse("[1, [2, {\"a\": null}]]").unwrap(),
            JsonValue::Arr(vec![
                JsonValue::Int(1),
                JsonValue::Arr(vec![
                    JsonValue::Int(2),
                    JsonValue::Obj(vec![("a".to_string(), JsonValue::Null)]),
                ]),
            ])
        );
    }

    #[test]
    fn parses_every_escape_form() {
        assert_eq!(
            parse(r#""a\"b\\c\/d\b\f\n\r\t""#).unwrap(),
            JsonValue::Str("a\"b\\c/d\u{8}\u{c}\n\r\t".to_string())
        );
        assert_eq!(parse(r#""Aé""#).unwrap(), JsonValue::Str("Aé".to_string()));
        // Surrogate pair: U+1F600.
        assert_eq!(
            parse(r#""😀""#).unwrap(),
            JsonValue::Str("\u{1F600}".to_string())
        );
    }

    #[test]
    fn parse_errors_carry_positions() {
        let err = parse("{\"a\": 1,\n  \"b\": tru}").unwrap_err();
        assert_eq!((err.line, err.column), (2, 11));
        assert!(err.message.contains("true"), "{}", err.message);

        let err = parse("[1, 2,, 3]").unwrap_err();
        assert_eq!((err.line, err.column), (1, 7));

        let err = parse("").unwrap_err();
        assert_eq!((err.line, err.column), (1, 1));
        assert!(parse("01").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("[1] trailing").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("\"bad \\q escape\"").is_err());
    }

    #[test]
    fn display_of_parse_error_names_the_position() {
        let err = parse("[1,\n 2,\n x]").unwrap_err();
        assert_eq!(
            err.to_string(),
            "JSON parse error at line 3, column 2: unexpected character `x`"
        );
    }

    #[test]
    fn decode_rejects_wrong_shapes_with_context() {
        let err = report_from_json(&parse("{\"backend\": 3}").unwrap()).unwrap_err();
        assert_eq!(err.context, "EvalReport");
        let err = workload_spec_from_json(&parse("{\"workload\": \"unknown_thing\"}").unwrap())
            .unwrap_err();
        assert!(err.message.contains("unknown_thing"));
        let err = stats_from_json(&parse("{}").unwrap()).unwrap_err();
        assert!(err.message.contains("missing field"));
    }
}
