//! The per-PE program DSL in which workloads are written.
//!
//! The paper's workload studies ran real scientific codes on an
//! instruction-level paracomputer simulator (§4.2, §5). This module is the
//! equivalent substrate: a small imperative language whose statements cost
//! whole instructions, whose memory references go through the machine's
//! shared-memory backend, and whose scheduling constructs are exactly the
//! fetch-and-add idioms the paper advocates:
//!
//! * [`Op::FetchAdd`] — the §2.2 primitive;
//! * [`Op::SelfSched`] — the "several PEs concurrently applying
//!   fetch-and-add to a shared array index" idiom (§2.2) as a
//!   self-scheduled loop: `while (i = F&A(counter, 1)) < limit { body }`;
//! * [`Op::Barrier`] — a machine-assisted barrier whose arrivals are real
//!   combinable fetch-and-adds on a shared word.
//!
//! Loads lock their destination register until the reply arrives (§3.5
//! register locking); an instruction that *uses* a locked register stalls
//! the PE — so programs prefetch by hoisting loads above independent work,
//! exactly as the paper says the CDC compiler did.

use std::sync::Arc;

use ultra_net::message::PhiOp;
use ultra_sim::wire::{Wire, WireError, WireReader, WireWriter};
use ultra_sim::{PeId, Value};

/// Register index; each PE has [`NUM_REGS`] general registers.
pub type Reg = u8;

/// Number of registers per PE.
pub const NUM_REGS: usize = 16;

/// An integer expression over registers, parameters and PE identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A literal.
    Const(Value),
    /// The current value of a register (stalls while locked).
    Reg(Reg),
    /// This PE's index, `0..NumPes`.
    PeIndex,
    /// The number of PEs running the program.
    NumPes,
    /// Program parameter `i` (problem size, strides, …).
    Param(u8),
    /// A binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// The machine cycle at which the instruction reading this is
    /// fetched — the PE's real-time clock register. Serving workloads
    /// stamp request completion times with it and pace themselves
    /// against [`Op::WaitUntil`].
    Clock,
}

/// Binary operators available in [`Expr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Euclidean-ish division (0 if divisor is 0).
    Div,
    /// Remainder (0 if divisor is 0).
    Rem,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Deterministic avalanche mix of `a + b` — used by workload
    /// generators to scatter synthetic addresses (particle tracking,
    /// hashed access patterns) without a runtime RNG.
    Hash,
}

impl Expr {
    /// `a + b`.
    #[must_use]
    pub fn add(a: impl Into<Expr>, b: impl Into<Expr>) -> Expr {
        Expr::Bin(BinOp::Add, Box::new(a.into()), Box::new(b.into()))
    }

    /// `a - b`.
    #[must_use]
    pub fn sub(a: impl Into<Expr>, b: impl Into<Expr>) -> Expr {
        Expr::Bin(BinOp::Sub, Box::new(a.into()), Box::new(b.into()))
    }

    /// `a * b`.
    #[must_use]
    pub fn mul(a: impl Into<Expr>, b: impl Into<Expr>) -> Expr {
        Expr::Bin(BinOp::Mul, Box::new(a.into()), Box::new(b.into()))
    }

    /// `a / b` (0 when `b == 0`).
    #[must_use]
    pub fn div(a: impl Into<Expr>, b: impl Into<Expr>) -> Expr {
        Expr::Bin(BinOp::Div, Box::new(a.into()), Box::new(b.into()))
    }

    /// `a % b` (0 when `b == 0`).
    #[must_use]
    pub fn rem(a: impl Into<Expr>, b: impl Into<Expr>) -> Expr {
        Expr::Bin(BinOp::Rem, Box::new(a.into()), Box::new(b.into()))
    }

    /// `min(a, b)`.
    #[must_use]
    pub fn min(a: impl Into<Expr>, b: impl Into<Expr>) -> Expr {
        Expr::Bin(BinOp::Min, Box::new(a.into()), Box::new(b.into()))
    }

    /// `max(a, b)`.
    #[must_use]
    pub fn max(a: impl Into<Expr>, b: impl Into<Expr>) -> Expr {
        Expr::Bin(BinOp::Max, Box::new(a.into()), Box::new(b.into()))
    }

    /// `hash(a + b)` — a non-negative deterministic mix for synthetic
    /// address scattering.
    #[must_use]
    pub fn hash(a: impl Into<Expr>, b: impl Into<Expr>) -> Expr {
        Expr::Bin(BinOp::Hash, Box::new(a.into()), Box::new(b.into()))
    }

    /// Evaluates with `ctx`.
    ///
    /// Callers must already have verified via [`Expr::first_locked_reg`]
    /// that no register read here is locked.
    #[must_use]
    pub fn eval(&self, ctx: &EvalCtx<'_>) -> Value {
        match self {
            Expr::Const(v) => *v,
            Expr::Reg(r) => ctx.regs[*r as usize],
            Expr::PeIndex => ctx.pe.0 as Value,
            Expr::NumPes => ctx.n_pes as Value,
            Expr::Param(i) => ctx.params.get(*i as usize).copied().unwrap_or(0),
            Expr::Clock => ctx.clock,
            Expr::Bin(op, a, b) => {
                let (a, b) = (a.eval(ctx), b.eval(ctx));
                match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                    BinOp::Div => {
                        if b == 0 {
                            0
                        } else {
                            a.wrapping_div(b)
                        }
                    }
                    BinOp::Rem => {
                        if b == 0 {
                            0
                        } else {
                            a.wrapping_rem(b)
                        }
                    }
                    BinOp::Min => a.min(b),
                    BinOp::Max => a.max(b),
                    BinOp::Hash => {
                        // SplitMix64 finalizer over the sum, kept
                        // non-negative so results can serve as addresses.
                        let mut z = (a.wrapping_add(b)) as u64;
                        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
                        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                        ((z ^ (z >> 31)) >> 1) as Value
                    }
                }
            }
        }
    }

    /// The first locked register this expression reads, if any — the
    /// register-locking hazard check (§3.5).
    #[must_use]
    pub fn first_locked_reg(&self, locked: &[bool; NUM_REGS]) -> Option<Reg> {
        match self {
            Expr::Reg(r) if locked[*r as usize] => Some(*r),
            Expr::Bin(_, a, b) => a
                .first_locked_reg(locked)
                .or_else(|| b.first_locked_reg(locked)),
            _ => None,
        }
    }
}

impl From<Value> for Expr {
    fn from(v: Value) -> Self {
        Expr::Const(v)
    }
}

/// Maximum expression / statement nesting accepted when decoding program
/// bytes — far above anything a workload generator emits, low enough that
/// a corrupted snapshot cannot drive the decoder's recursion off the
/// stack.
const MAX_DECODE_DEPTH: usize = 64;

/// A register index from program bytes, bounds-checked against
/// [`NUM_REGS`]: the interpreter indexes its register file with it, and
/// a restore runs the program.
fn check_reg(reg: Reg) -> Result<Reg, WireError> {
    if (reg as usize) < NUM_REGS {
        Ok(reg)
    } else {
        Err(WireError::Invalid("register index out of range"))
    }
}

fn decode_reg(r: &mut WireReader<'_>) -> Result<Reg, WireError> {
    check_reg(r.u8()?)
}

fn decode_dst(r: &mut WireReader<'_>) -> Result<Option<Reg>, WireError> {
    Option::<Reg>::decode(r)?.map(check_reg).transpose()
}

fn decode_expr(r: &mut WireReader<'_>, depth: usize) -> Result<Expr, WireError> {
    if depth == 0 {
        return Err(WireError::Invalid("expression nesting too deep"));
    }
    Ok(match r.u8()? {
        0 => Expr::Const(r.i64()?),
        1 => Expr::Reg(decode_reg(r)?),
        2 => Expr::PeIndex,
        3 => Expr::NumPes,
        4 => Expr::Param(r.u8()?),
        5 => Expr::Bin(
            BinOp::decode(r)?,
            Box::new(decode_expr(r, depth - 1)?),
            Box::new(decode_expr(r, depth - 1)?),
        ),
        6 => Expr::Clock,
        _ => return Err(WireError::Invalid("expression tag")),
    })
}

impl Wire for Expr {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            Expr::Const(v) => {
                w.u8(0);
                w.i64(*v);
            }
            Expr::Reg(reg) => {
                w.u8(1);
                w.u8(*reg);
            }
            Expr::PeIndex => w.u8(2),
            Expr::NumPes => w.u8(3),
            Expr::Param(i) => {
                w.u8(4);
                w.u8(*i);
            }
            Expr::Bin(op, a, b) => {
                w.u8(5);
                op.encode(w);
                a.encode(w);
                b.encode(w);
            }
            Expr::Clock => w.u8(6),
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        decode_expr(r, MAX_DECODE_DEPTH)
    }
}

impl Wire for BinOp {
    fn encode(&self, w: &mut WireWriter) {
        w.u8(match self {
            BinOp::Add => 0,
            BinOp::Sub => 1,
            BinOp::Mul => 2,
            BinOp::Div => 3,
            BinOp::Rem => 4,
            BinOp::Min => 5,
            BinOp::Max => 6,
            BinOp::Hash => 7,
        });
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => BinOp::Add,
            1 => BinOp::Sub,
            2 => BinOp::Mul,
            3 => BinOp::Div,
            4 => BinOp::Rem,
            5 => BinOp::Min,
            6 => BinOp::Max,
            7 => BinOp::Hash,
            _ => return Err(WireError::Invalid("binary-operator tag")),
        })
    }
}

impl Wire for CmpOp {
    fn encode(&self, w: &mut WireWriter) {
        w.u8(match self {
            CmpOp::Lt => 0,
            CmpOp::Le => 1,
            CmpOp::Eq => 2,
            CmpOp::Ne => 3,
            CmpOp::Ge => 4,
            CmpOp::Gt => 5,
        });
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => CmpOp::Lt,
            1 => CmpOp::Le,
            2 => CmpOp::Eq,
            3 => CmpOp::Ne,
            4 => CmpOp::Ge,
            5 => CmpOp::Gt,
            _ => return Err(WireError::Invalid("comparison-operator tag")),
        })
    }
}

impl Wire for Cond {
    fn encode(&self, w: &mut WireWriter) {
        self.op.encode(w);
        self.lhs.encode(w);
        self.rhs.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            op: CmpOp::decode(r)?,
            lhs: Expr::decode(r)?,
            rhs: Expr::decode(r)?,
        })
    }
}

/// Evaluation context handed to [`Expr::eval`].
#[derive(Debug, Clone, Copy)]
pub struct EvalCtx<'a> {
    /// The PE's register file.
    pub regs: &'a [Value; NUM_REGS],
    /// The PE's index.
    pub pe: PeId,
    /// Number of PEs.
    pub n_pes: usize,
    /// Program parameters.
    pub params: &'a [Value],
    /// Current machine cycle, read by [`Expr::Clock`].
    pub clock: Value,
}

/// Comparison operators for [`Cond`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `>=`
    Ge,
    /// `>`
    Gt,
}

/// A boolean condition over two expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cond {
    /// Comparison operator.
    pub op: CmpOp,
    /// Left-hand side.
    pub lhs: Expr,
    /// Right-hand side.
    pub rhs: Expr,
}

impl Cond {
    /// Builds a condition.
    #[must_use]
    pub fn new(lhs: impl Into<Expr>, op: CmpOp, rhs: impl Into<Expr>) -> Self {
        Self {
            op,
            lhs: lhs.into(),
            rhs: rhs.into(),
        }
    }

    /// Evaluates the condition.
    #[must_use]
    pub fn eval(&self, ctx: &EvalCtx<'_>) -> bool {
        let (a, b) = (self.lhs.eval(ctx), self.rhs.eval(ctx));
        match self.op {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Ge => a >= b,
            CmpOp::Gt => a > b,
        }
    }

    /// First locked register read by either side.
    #[must_use]
    pub fn first_locked_reg(&self, locked: &[bool; NUM_REGS]) -> Option<Reg> {
        self.lhs
            .first_locked_reg(locked)
            .or_else(|| self.rhs.first_locked_reg(locked))
    }
}

/// A block of statements, cheaply shareable between frames (atomically
/// refcounted so a machine can cross `ultra-serve`'s worker threads).
pub type Body = Arc<[Op]>;

/// Builds a [`Body`] from statements.
#[must_use]
pub fn body(ops: Vec<Op>) -> Body {
    Arc::from(ops)
}

/// One program statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `n` instructions of register-to-register work.
    Compute(u32),
    /// A data-dependent amount of local work: `max(0, amount)`
    /// instructions (lets workload generators scale inner-loop work with
    /// the current problem row, e.g. TRED2's shrinking submatrix).
    ComputeVar {
        /// Instruction count expression (clamped at 0 and `u32::MAX`).
        amount: Expr,
    },
    /// `n` memory references satisfied by the PE-local cache (§3.2's
    /// private data and program text; 1 instruction each).
    PrivateRef(u32),
    /// Load a shared word into `dst`, which stays locked until the reply
    /// arrives (§3.5). The PE continues executing — prefetching.
    Load {
        /// Address expression.
        addr: Expr,
        /// Destination register (locked until the reply).
        dst: Reg,
    },
    /// Store a shared word (asynchronous; acknowledged by the network).
    Store {
        /// Address expression.
        addr: Expr,
        /// Value expression.
        value: Expr,
    },
    /// The §2.2 fetch-and-add; `dst` (if any) is locked until the old value
    /// returns.
    FetchAdd {
        /// Address expression.
        addr: Expr,
        /// Increment expression.
        delta: Expr,
        /// Optional destination for the fetched old value.
        dst: Option<Reg>,
    },
    /// The general §2.4 fetch-and-phi.
    FetchPhi {
        /// Associative operator.
        op: PhiOp,
        /// Address expression.
        addr: Expr,
        /// Operand expression.
        operand: Expr,
        /// Optional destination for the fetched old value.
        dst: Option<Reg>,
    },
    /// Join all PEs: arrival is a combinable fetch-and-add on a shared
    /// barrier word; the PE idles until every PE has arrived.
    Barrier,
    /// Wait until all of this PE's outstanding requests have completed
    /// (memory fence; used before timing boundaries).
    Fence,
    /// `reg <- value`.
    Set {
        /// Destination register.
        reg: Reg,
        /// Value expression.
        value: Expr,
    },
    /// `for reg in from..to { body }` (1 instruction of loop control per
    /// iteration).
    For {
        /// Loop register.
        reg: Reg,
        /// Inclusive start.
        from: Expr,
        /// Exclusive end.
        to: Expr,
        /// Loop body.
        body: Body,
    },
    /// The fetch-and-add self-scheduled loop:
    /// `while (reg = F&A(counter, 1)) < limit { body }`.
    SelfSched {
        /// Register receiving each claimed index.
        reg: Reg,
        /// Address of the shared counter.
        counter: Expr,
        /// Exclusive upper bound.
        limit: Expr,
        /// Loop body.
        body: Body,
    },
    /// Two-way branch (1 instruction for the test).
    If {
        /// Branch condition.
        cond: Cond,
        /// Taken branch.
        then_ops: Body,
        /// Untaken branch.
        else_ops: Body,
    },
    /// Stop this PE.
    Halt,
    /// Park this context until the machine clock reaches `cycle`. The
    /// target is evaluated once, when the instruction is fetched — so
    /// `WaitUntil(Clock + k)` sleeps `k` cycles — and a target already
    /// in the past costs one instruction and continues. The open-loop
    /// pacing primitive: a serving worker holds a claimed request here
    /// until its scheduled arrival.
    WaitUntil {
        /// Absolute wake cycle expression, evaluated at fetch.
        cycle: Expr,
    },
}

fn encode_op(op: &Op, w: &mut WireWriter) {
    match op {
        Op::Compute(n) => {
            w.u8(0);
            w.u32(*n);
        }
        Op::ComputeVar { amount } => {
            w.u8(1);
            amount.encode(w);
        }
        Op::PrivateRef(n) => {
            w.u8(2);
            w.u32(*n);
        }
        Op::Load { addr, dst } => {
            w.u8(3);
            addr.encode(w);
            w.u8(*dst);
        }
        Op::Store { addr, value } => {
            w.u8(4);
            addr.encode(w);
            value.encode(w);
        }
        Op::FetchAdd { addr, delta, dst } => {
            w.u8(5);
            addr.encode(w);
            delta.encode(w);
            dst.encode(w);
        }
        Op::FetchPhi {
            op,
            addr,
            operand,
            dst,
        } => {
            w.u8(6);
            op.encode(w);
            addr.encode(w);
            operand.encode(w);
            dst.encode(w);
        }
        Op::Barrier => w.u8(7),
        Op::Fence => w.u8(8),
        Op::Set { reg, value } => {
            w.u8(9);
            w.u8(*reg);
            value.encode(w);
        }
        Op::For {
            reg,
            from,
            to,
            body,
        } => {
            w.u8(10);
            w.u8(*reg);
            from.encode(w);
            to.encode(w);
            encode_body(body, w);
        }
        Op::SelfSched {
            reg,
            counter,
            limit,
            body,
        } => {
            w.u8(11);
            w.u8(*reg);
            counter.encode(w);
            limit.encode(w);
            encode_body(body, w);
        }
        Op::If {
            cond,
            then_ops,
            else_ops,
        } => {
            w.u8(12);
            cond.encode(w);
            encode_body(then_ops, w);
            encode_body(else_ops, w);
        }
        Op::Halt => w.u8(13),
        Op::WaitUntil { cycle } => {
            w.u8(14);
            cycle.encode(w);
        }
    }
}

fn decode_op(r: &mut WireReader<'_>, depth: usize) -> Result<Op, WireError> {
    Ok(match r.u8()? {
        0 => Op::Compute(r.u32()?),
        1 => Op::ComputeVar {
            amount: Expr::decode(r)?,
        },
        2 => Op::PrivateRef(r.u32()?),
        3 => Op::Load {
            addr: Expr::decode(r)?,
            dst: decode_reg(r)?,
        },
        4 => Op::Store {
            addr: Expr::decode(r)?,
            value: Expr::decode(r)?,
        },
        5 => Op::FetchAdd {
            addr: Expr::decode(r)?,
            delta: Expr::decode(r)?,
            dst: decode_dst(r)?,
        },
        6 => Op::FetchPhi {
            op: PhiOp::decode(r)?,
            addr: Expr::decode(r)?,
            operand: Expr::decode(r)?,
            dst: decode_dst(r)?,
        },
        7 => Op::Barrier,
        8 => Op::Fence,
        9 => Op::Set {
            reg: decode_reg(r)?,
            value: Expr::decode(r)?,
        },
        10 => Op::For {
            reg: decode_reg(r)?,
            from: Expr::decode(r)?,
            to: Expr::decode(r)?,
            body: decode_body(r, depth)?,
        },
        11 => Op::SelfSched {
            reg: decode_reg(r)?,
            counter: Expr::decode(r)?,
            limit: Expr::decode(r)?,
            body: decode_body(r, depth)?,
        },
        12 => Op::If {
            cond: Cond::decode(r)?,
            then_ops: decode_body(r, depth)?,
            else_ops: decode_body(r, depth)?,
        },
        13 => Op::Halt,
        14 => Op::WaitUntil {
            cycle: Expr::decode(r)?,
        },
        _ => return Err(WireError::Invalid("statement tag")),
    })
}

/// Serializes a statement block as a full inline tree (sharing via `Arc`
/// is a memory optimization, not part of program identity).
fn encode_body(body: &Body, w: &mut WireWriter) {
    w.usize(body.len());
    for op in body.iter() {
        encode_op(op, w);
    }
}

/// Decodes a statement block written by [`encode_body`]; errors on
/// truncated or malformed bytes, or when the block nesting exceeds the
/// decoder's recursion bound.
fn decode_body(r: &mut WireReader<'_>, depth: usize) -> Result<Body, WireError> {
    if depth == 0 {
        return Err(WireError::Invalid("statement nesting too deep"));
    }
    let len = r.seq_len()?;
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        ops.push(decode_op(r, depth - 1)?);
    }
    Ok(Arc::from(ops))
}

impl Wire for Op {
    fn encode(&self, w: &mut WireWriter) {
        encode_op(self, w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        decode_op(r, MAX_DECODE_DEPTH)
    }
}

impl Wire for Program {
    fn encode(&self, w: &mut WireWriter) {
        encode_body(&self.ops, w);
        self.params.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            ops: decode_body(r, MAX_DECODE_DEPTH)?,
            params: Vec::decode(r)?,
        })
    }
}

/// Error marker for runaway control-flow nesting in the interpreter.
///
/// Well-formed programs nest loops a handful deep; hitting the limit means
/// a generator bug (e.g. a self-referential body), so the interpreter
/// panics with this message rather than exhausting memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameLimitExceeded;

impl FrameLimitExceeded {
    /// Maximum control-frame depth.
    pub const LIMIT: usize = 1024;
}

impl std::fmt::Display for FrameLimitExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "program nesting exceeded {} frames", Self::LIMIT)
    }
}

/// A complete per-PE program: a statement block plus parameters.
///
/// # Example
///
/// ```
/// use ultracomputer::program::{body, Expr, Op, Program};
///
/// // Every PE claims distinct indices from a shared counter at address 0
/// // and stores its PE number into the claimed slot of an array at 100.
/// let prog = Program::new(
///     body(vec![
///         Op::SelfSched {
///             reg: 0,
///             counter: Expr::Const(0),
///             limit: Expr::Param(0),
///             body: body(vec![Op::Store {
///                 addr: Expr::add(Expr::Const(100), Expr::Reg(0)),
///                 value: Expr::PeIndex,
///             }]),
///         },
///         Op::Halt,
///     ]),
///     vec![64], // Param(0): 64 items
/// );
/// assert_eq!(prog.params[0], 64);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Top-level statement block.
    pub ops: Body,
    /// Parameters referenced by [`Expr::Param`].
    pub params: Vec<Value>,
}

impl Program {
    /// Creates a program.
    #[must_use]
    pub fn new(ops: Body, params: Vec<Value>) -> Self {
        Self { ops, params }
    }

    /// A program that halts immediately.
    #[must_use]
    pub fn empty() -> Self {
        Self::new(body(vec![Op::Halt]), Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(regs: &'a [Value; NUM_REGS], params: &'a [Value]) -> EvalCtx<'a> {
        EvalCtx {
            regs,
            pe: PeId(3),
            n_pes: 8,
            params,
            clock: 777,
        }
    }

    #[test]
    fn expr_arithmetic() {
        let regs = [0; NUM_REGS];
        let c = ctx(&regs, &[10]);
        assert_eq!(Expr::add(2, 3).eval(&c), 5);
        assert_eq!(Expr::sub(2, 3).eval(&c), -1);
        assert_eq!(Expr::mul(4, 5).eval(&c), 20);
        assert_eq!(Expr::div(20, 6).eval(&c), 3);
        assert_eq!(Expr::rem(20, 6).eval(&c), 2);
        assert_eq!(Expr::min(2, 9).eval(&c), 2);
        assert_eq!(Expr::max(2, 9).eval(&c), 9);
        assert_eq!(Expr::PeIndex.eval(&c), 3);
        assert_eq!(Expr::NumPes.eval(&c), 8);
        assert_eq!(Expr::Param(0).eval(&c), 10);
        assert_eq!(Expr::Param(9).eval(&c), 0, "missing params read 0");
        assert_eq!(Expr::Clock.eval(&c), 777, "clock reads the cycle");
    }

    #[test]
    fn division_by_zero_yields_zero() {
        let regs = [0; NUM_REGS];
        let c = ctx(&regs, &[]);
        assert_eq!(Expr::div(5, 0).eval(&c), 0);
        assert_eq!(Expr::rem(5, 0).eval(&c), 0);
    }

    #[test]
    fn registers_read_through_context() {
        let mut regs = [0; NUM_REGS];
        regs[2] = 42;
        let c = ctx(&regs, &[]);
        assert_eq!(Expr::Reg(2).eval(&c), 42);
    }

    #[test]
    fn locked_register_detection() {
        let mut locked = [false; NUM_REGS];
        locked[5] = true;
        let e = Expr::add(Expr::Reg(1), Expr::mul(Expr::Reg(5), 2));
        assert_eq!(e.first_locked_reg(&locked), Some(5));
        let e = Expr::add(Expr::Reg(1), 2);
        assert_eq!(e.first_locked_reg(&locked), None);
        let cond = Cond::new(Expr::Reg(5), CmpOp::Lt, 10);
        assert_eq!(cond.first_locked_reg(&locked), Some(5));
    }

    #[test]
    fn cond_operators() {
        let regs = [0; NUM_REGS];
        let c = ctx(&regs, &[]);
        assert!(Cond::new(1, CmpOp::Lt, 2).eval(&c));
        assert!(Cond::new(2, CmpOp::Le, 2).eval(&c));
        assert!(Cond::new(2, CmpOp::Eq, 2).eval(&c));
        assert!(Cond::new(1, CmpOp::Ne, 2).eval(&c));
        assert!(Cond::new(2, CmpOp::Ge, 2).eval(&c));
        assert!(Cond::new(3, CmpOp::Gt, 2).eval(&c));
        assert!(!Cond::new(3, CmpOp::Lt, 2).eval(&c));
    }

    #[test]
    fn program_construction() {
        let p = Program::empty();
        assert_eq!(p.ops.len(), 1);
        assert!(matches!(p.ops[0], Op::Halt));
    }

    #[test]
    fn hash_is_deterministic_nonnegative_and_spreads() {
        let regs = [0; NUM_REGS];
        let c = ctx(&regs, &[]);
        let mut seen = std::collections::HashSet::new();
        for i in 0..200 {
            let a = Expr::hash(i, 7).eval(&c);
            let b = Expr::hash(i, 7).eval(&c);
            assert_eq!(a, b, "hash must be deterministic");
            assert!(a >= 0, "hash must be usable as an address");
            seen.insert(a % 64);
        }
        assert!(seen.len() > 48, "hash must spread: {} buckets", seen.len());
    }

    #[test]
    fn programs_round_trip_through_wire() {
        let prog = Program::new(
            body(vec![
                Op::Set {
                    reg: 1,
                    value: Expr::add(Expr::PeIndex, Expr::Param(0)),
                },
                Op::SelfSched {
                    reg: 0,
                    counter: Expr::Const(0),
                    limit: Expr::Param(0),
                    body: body(vec![
                        Op::If {
                            cond: Cond::new(Expr::Reg(0), CmpOp::Lt, 10),
                            then_ops: body(vec![Op::FetchAdd {
                                addr: Expr::hash(Expr::Reg(0), 7),
                                delta: Expr::Const(1),
                                dst: Some(2),
                            }]),
                            else_ops: body(vec![Op::Compute(3)]),
                        },
                        Op::Barrier,
                    ]),
                },
                Op::WaitUntil {
                    cycle: Expr::add(Expr::Clock, 100),
                },
                Op::Store {
                    addr: Expr::Const(50),
                    value: Expr::Clock,
                },
                Op::Fence,
                Op::Halt,
            ]),
            vec![64, -3],
        );
        let mut w = WireWriter::new();
        prog.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let twin = Program::decode(&mut r).expect("decode");
        assert!(r.is_empty());
        assert_eq!(prog, twin);
    }

    #[test]
    fn out_of_range_registers_are_rejected() {
        let decode = |op: Op| {
            let mut w = WireWriter::new();
            Program::new(body(vec![op]), vec![]).encode(&mut w);
            Program::decode(&mut WireReader::new(w.bytes()))
        };
        let invalid = Err(WireError::Invalid("register index out of range"));
        let past = NUM_REGS as Reg;
        assert_eq!(
            decode(Op::Load {
                addr: Expr::Reg(past),
                dst: 0
            }),
            invalid
        );
        assert_eq!(
            decode(Op::Load {
                addr: Expr::Const(0),
                dst: past
            }),
            invalid
        );
        let fetch_add = Op::FetchAdd {
            addr: Expr::Const(0),
            delta: Expr::Const(1),
            dst: Some(past),
        };
        assert_eq!(decode(fetch_add), invalid);
        let set = Op::Set {
            reg: past,
            value: Expr::Const(0),
        };
        assert_eq!(decode(set), invalid);
        let last = Op::Set {
            reg: past - 1,
            value: Expr::Reg(past - 1),
        };
        assert!(decode(last).is_ok());
    }

    #[test]
    fn pathological_nesting_is_rejected_not_a_stack_overflow() {
        // A byte stream of nothing but `Bin` tags would recurse once per
        // byte without the depth guard.
        let bytes = vec![5u8; 10_000];
        let mut r = WireReader::new(&bytes);
        assert_eq!(
            Expr::decode(&mut r),
            Err(WireError::Invalid("expression nesting too deep"))
        );
    }

    #[test]
    fn hash_differs_across_operands() {
        let regs = [0; NUM_REGS];
        let c = ctx(&regs, &[]);
        // hash(a + b) folds the sum, so only the sum matters — verify the
        // documented behaviour both ways.
        assert_eq!(Expr::hash(3, 4).eval(&c), Expr::hash(4, 3).eval(&c));
        assert_ne!(Expr::hash(3, 4).eval(&c), Expr::hash(3, 5).eval(&c));
    }
}
