//! The per-PE program interpreter.
//!
//! [`PeInterp`] executes one [`crate::program::Program`] as a stream of
//! *fetch events*: each call to [`PeInterp::next_op`] advances the program
//! by one instruction-costed step and tells the machine what that step
//! needs — local work, a memory request, a barrier arrival, a fence — or
//! that the PE is blocked on a locked register (§3.5 register locking).
//!
//! The machine owns all timing: it charges the returned instruction counts
//! against the clock, carries the returned [`IssueSpec`]s through the PNI
//! and network, and calls [`PeInterp::write_and_unlock`] when replies
//! arrive. The interpreter is therefore backend-agnostic: the same program
//! runs unchanged on the ideal paracomputer and on the full network
//! machine.
//!
//! # Storage
//!
//! A machine interprets one context per virtual PE, and a context's
//! control state is its stack of frames — one per loop or branch it is
//! inside. The stack never grows past the program's static nesting depth,
//! so a machine keeps every context's frames in one column of
//! `depth × contexts` `Frame`s, and a frame names the statement block it
//! walks by its index in the machine's compiled `Code` rather than by a
//! reference-counted pointer: copying every context is then one plain
//! copy of the column. A context's own record, `Thread`, holds its
//! registers, locks, frame count and program; the program's parameters
//! are read from the program, not copied. [`PeInterp`] is one context with
//! code, frames and parameters of its own, for use outside a machine.

use ultra_net::message::MsgKind;
use ultra_sim::heap::vec_bytes;
use ultra_sim::{Cycle, PeId, Value};

use crate::program::{Body, EvalCtx, Expr, FrameLimitExceeded, Op, Program, Reg, NUM_REGS};

/// What the PE's next instruction needs from the machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fetched {
    /// Local work: `instructions` instruction slots, of which
    /// `private_refs` are cache-satisfied memory references.
    Work {
        /// Instruction slots consumed.
        instructions: u32,
        /// How many were private (cached) memory references.
        private_refs: u32,
    },
    /// A shared-memory request (costs one instruction slot to issue).
    Issue(IssueSpec),
    /// Arrival at a barrier; the machine issues the barrier fetch-and-add
    /// and wakes the PE when every PE has arrived.
    Barrier,
    /// Wait until all of this PE's outstanding requests complete.
    Fence,
    /// The next instruction reads a locked register; no progress until its
    /// reply arrives.
    BlockedOnReg(Reg),
    /// Park until the machine clock reaches the given absolute cycle
    /// ([`Op::WaitUntil`]; the target was evaluated at fetch and the
    /// instruction consumed — waking resumes at the following one).
    SleepUntil(Cycle),
    /// The program has finished.
    Halted,
}

/// A memory request the interpreter wants issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueSpec {
    /// Function indicator.
    pub kind: MsgKind,
    /// Flat virtual word address.
    pub vaddr: usize,
    /// Store datum / fetch operand.
    pub value: Value,
    /// Destination register for the reply value; locked by the caller via
    /// [`PeInterp::lock`] at issue time.
    pub dst: Option<Reg>,
}

/// The index of a statement block in a [`Code`].
type BlockId = u32;

/// A statement that opens no block.
const NO_BLOCK: BlockId = BlockId::MAX;

/// Programs compiled for the frame column: every statement block numbered,
/// with the blocks each statement opens.
#[derive(Debug, Clone, Default)]
pub(crate) struct Code {
    /// Every block; a frame names its block by index here.
    blocks: Vec<Body>,
    /// Per block, where its statements' entries start in `opens`.
    first: Vec<u32>,
    /// Per statement of each block, the block it opens — a loop's body,
    /// or an `If`'s then- and else-branch — or [`NO_BLOCK`].
    opens: Vec<[BlockId; 2]>,
    /// Per program, its top-level block.
    entries: Vec<BlockId>,
    /// The deepest frame stack any of the programs can build: its static
    /// nesting depth.
    depth: usize,
}

impl Code {
    /// Compiles `programs`; program `i` starts at entry `i`.
    ///
    /// # Panics
    ///
    /// Panics if a program nests deeper than [`FrameLimitExceeded::LIMIT`]
    /// frames.
    pub(crate) fn compile<'a>(programs: impl IntoIterator<Item = &'a Program>) -> Self {
        let mut code = Self::default();
        for program in programs {
            let (entry, depth) = code.add(&program.ops);
            code.entries.push(entry);
            code.depth = code.depth.max(depth);
        }
        assert!(
            code.depth <= FrameLimitExceeded::LIMIT,
            "{}",
            FrameLimitExceeded
        );
        code
    }

    /// Numbers `block` and every block inside it; returns its index and
    /// its nesting depth in frames.
    fn add(&mut self, block: &Body) -> (BlockId, usize) {
        let id = BlockId::try_from(self.blocks.len()).expect("blocks fit in u32");
        let first = self.opens.len();
        self.blocks.push(block.clone());
        self.first
            .push(u32::try_from(first).expect("statements fit in u32"));
        self.opens.resize(first + block.len(), [NO_BLOCK; 2]);
        let mut inner = 0;
        for (pc, op) in block.iter().enumerate() {
            let opened = match op {
                Op::For { body, .. } | Op::SelfSched { body, .. } => [Some(body), None],
                Op::If {
                    then_ops, else_ops, ..
                } => [Some(then_ops), Some(else_ops)],
                _ => continue,
            };
            for (side, block) in opened.into_iter().enumerate() {
                if let Some(block) = block {
                    let (kid, depth) = self.add(block);
                    self.opens[first + pc][side] = kid;
                    inner = inner.max(depth);
                }
            }
        }
        (id, 1 + inner)
    }

    /// The frames a context of these programs needs.
    pub(crate) fn depth(&self) -> usize {
        self.depth
    }

    /// Heap bytes of the tables; the blocks are shared with the programs.
    pub(crate) fn heap_bytes(&self) -> usize {
        vec_bytes(&self.blocks)
            + vec_bytes(&self.first)
            + vec_bytes(&self.opens)
            + vec_bytes(&self.entries)
    }

    /// The block statement `pc` of `block` opens on `side` (0, or 1 for
    /// an `If`'s else-branch).
    fn opened(&self, block: BlockId, pc: usize, side: usize) -> BlockId {
        self.opens[self.first[block as usize] as usize + pc][side]
    }
}

#[derive(Debug, Clone, Copy, Default)]
enum FrameCtl {
    #[default]
    Seq,
    For {
        reg: Reg,
        end: Value,
    },
    SelfSched {
        reg: Reg,
        counter: usize,
        limit: Value,
    },
}

const PC_AWAIT_CLAIM: u32 = u32::MAX;

/// One level of a context's control stack: the block it walks, where, and
/// how the block ends.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Frame {
    block: BlockId,
    pc: u32,
    ctl: FrameCtl,
}

/// What a context's step reads besides its own state: the compiled code,
/// its program's parameters, and who it is.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Env<'a> {
    pub(crate) code: &'a Code,
    pub(crate) params: &'a [Value],
    pub(crate) pe: PeId,
    pub(crate) n_pes: usize,
}

/// One context's interpreter record: registers, register locks, how many
/// of its frames are in use, and which program it runs. Its frames are a
/// slice of [`Code::depth`] frames the caller passes in.
#[derive(Debug, Clone)]
pub(crate) struct Thread {
    regs: [Value; NUM_REGS],
    locked: [bool; NUM_REGS],
    /// Frames in use.
    depth: u32,
    /// The program's index in the code's entries.
    program: u32,
    halted: bool,
}

impl Thread {
    /// A context at the start of program `program` of `code`, its frames
    /// `frames`.
    pub(crate) fn new(code: &Code, program: usize, frames: &mut [Frame]) -> Self {
        frames[0] = Frame {
            block: code.entries[program],
            pc: 0,
            ctl: FrameCtl::Seq,
        };
        Self {
            regs: [0; NUM_REGS],
            locked: [false; NUM_REGS],
            depth: 1,
            program: u32::try_from(program).expect("programs fit in u32"),
            halted: false,
        }
    }

    /// The program's index in the code's entries.
    pub(crate) fn program(&self) -> usize {
        self.program as usize
    }

    /// Whether `reg` is awaiting a memory reply.
    pub(crate) fn is_locked(&self, reg: Reg) -> bool {
        self.locked[reg as usize]
    }

    /// Locks `reg` pending a reply (see [`PeInterp::lock`]).
    pub(crate) fn lock(&mut self, reg: Reg) {
        assert!(!self.locked[reg as usize], "double lock on r{reg}");
        self.locked[reg as usize] = true;
    }

    /// Delivers a reply into `reg` (see [`PeInterp::write_and_unlock`]).
    pub(crate) fn write_and_unlock(&mut self, reg: Reg, value: Value) {
        assert!(self.locked[reg as usize], "unlock of unlocked r{reg}");
        self.regs[reg as usize] = value;
        self.locked[reg as usize] = false;
    }

    fn ctx<'a>(&'a self, env: &Env<'a>, now: Cycle) -> EvalCtx<'a> {
        EvalCtx {
            regs: &self.regs,
            pe: env.pe,
            n_pes: env.n_pes,
            params: env.params,
            clock: now as Value,
        }
    }

    /// Checks every register `exprs` read; returns the first locked one.
    fn hazard(&self, exprs: &[&Expr]) -> Option<Reg> {
        exprs.iter().find_map(|e| e.first_locked_reg(&self.locked))
    }

    /// Advances to the next instruction and reports what it needs (see
    /// [`PeInterp::next_op`]); `frames` are this context's.
    pub(crate) fn next_op(&mut self, frames: &mut [Frame], env: Env<'_>, now: Cycle) -> Fetched {
        loop {
            if self.halted {
                return Fetched::Halted;
            }
            let Some(top) = (self.depth as usize).checked_sub(1) else {
                self.halted = true;
                return Fetched::Halted;
            };
            let frame = frames[top];

            // Iteration boundaries.
            if frame.pc == PC_AWAIT_CLAIM {
                // Self-scheduled loop: the claim F&A has been delivered into
                // `reg`; test it against the limit.
                let FrameCtl::SelfSched { reg, limit, .. } = frame.ctl else {
                    unreachable!("PC_AWAIT_CLAIM only in self-sched frames");
                };
                if self.locked[reg as usize] {
                    return Fetched::BlockedOnReg(reg);
                }
                if self.regs[reg as usize] < limit {
                    frames[top].pc = 0;
                } else {
                    self.depth -= 1;
                }
                continue;
            }
            let ops: &[Op] = &env.code.blocks[frame.block as usize];
            let pc = frame.pc as usize;
            if pc >= ops.len() {
                match frame.ctl {
                    FrameCtl::Seq => {
                        self.depth -= 1;
                        continue;
                    }
                    FrameCtl::For { reg, end } => {
                        self.regs[reg as usize] += 1;
                        if self.regs[reg as usize] < end {
                            frames[top].pc = 0;
                            // Loop back-edge: increment + test.
                            return Fetched::Work {
                                instructions: 1,
                                private_refs: 0,
                            };
                        }
                        self.depth -= 1;
                        continue;
                    }
                    FrameCtl::SelfSched { reg, counter, .. } => {
                        // Claim the next index.
                        frames[top].pc = PC_AWAIT_CLAIM;
                        return Fetched::Issue(IssueSpec {
                            kind: MsgKind::fetch_add(),
                            vaddr: counter,
                            value: 1,
                            dst: Some(reg),
                        });
                    }
                }
            }

            // Execute the instruction at (top, pc); every arm that consumes
            // it moves `pc` on first.
            let advance = |frames: &mut [Frame]| frames[top].pc += 1;
            match &ops[pc] {
                Op::Compute(n) => {
                    advance(frames);
                    return Fetched::Work {
                        instructions: *n,
                        private_refs: 0,
                    };
                }
                Op::ComputeVar { amount } => {
                    if let Some(r) = self.hazard(&[amount]) {
                        return Fetched::BlockedOnReg(r);
                    }
                    let n = amount
                        .eval(&self.ctx(&env, now))
                        .clamp(0, i64::from(u32::MAX)) as u32;
                    advance(frames);
                    return Fetched::Work {
                        instructions: n,
                        private_refs: 0,
                    };
                }
                Op::PrivateRef(n) => {
                    advance(frames);
                    return Fetched::Work {
                        instructions: *n,
                        private_refs: *n,
                    };
                }
                Op::Load { addr, dst } => {
                    if let Some(r) = self.hazard(&[addr]) {
                        return Fetched::BlockedOnReg(r);
                    }
                    if self.locked[*dst as usize] {
                        return Fetched::BlockedOnReg(*dst);
                    }
                    let vaddr = self.eval_addr(addr, &env, now);
                    advance(frames);
                    return Fetched::Issue(IssueSpec {
                        kind: MsgKind::Load,
                        vaddr,
                        value: 0,
                        dst: Some(*dst),
                    });
                }
                Op::Store { addr, value } => {
                    if let Some(r) = self.hazard(&[addr, value]) {
                        return Fetched::BlockedOnReg(r);
                    }
                    let vaddr = self.eval_addr(addr, &env, now);
                    let v = value.eval(&self.ctx(&env, now));
                    advance(frames);
                    return Fetched::Issue(IssueSpec {
                        kind: MsgKind::Store,
                        vaddr,
                        value: v,
                        dst: None,
                    });
                }
                Op::FetchAdd { addr, delta, dst } => {
                    if let Some(r) = self.hazard(&[addr, delta]) {
                        return Fetched::BlockedOnReg(r);
                    }
                    if let Some(d) = dst {
                        if self.locked[*d as usize] {
                            return Fetched::BlockedOnReg(*d);
                        }
                    }
                    let vaddr = self.eval_addr(addr, &env, now);
                    let v = delta.eval(&self.ctx(&env, now));
                    advance(frames);
                    return Fetched::Issue(IssueSpec {
                        kind: MsgKind::fetch_add(),
                        vaddr,
                        value: v,
                        dst: *dst,
                    });
                }
                Op::FetchPhi {
                    op,
                    addr,
                    operand,
                    dst,
                } => {
                    if let Some(r) = self.hazard(&[addr, operand]) {
                        return Fetched::BlockedOnReg(r);
                    }
                    if let Some(d) = dst {
                        if self.locked[*d as usize] {
                            return Fetched::BlockedOnReg(*d);
                        }
                    }
                    let vaddr = self.eval_addr(addr, &env, now);
                    let v = operand.eval(&self.ctx(&env, now));
                    advance(frames);
                    return Fetched::Issue(IssueSpec {
                        kind: MsgKind::FetchPhi(*op),
                        vaddr,
                        value: v,
                        dst: *dst,
                    });
                }
                Op::Barrier => {
                    advance(frames);
                    return Fetched::Barrier;
                }
                Op::Fence => {
                    advance(frames);
                    return Fetched::Fence;
                }
                Op::Set { reg, value } => {
                    if let Some(r) = self.hazard(&[value]) {
                        return Fetched::BlockedOnReg(r);
                    }
                    if self.locked[*reg as usize] {
                        return Fetched::BlockedOnReg(*reg);
                    }
                    self.regs[*reg as usize] = value.eval(&self.ctx(&env, now));
                    advance(frames);
                    return Fetched::Work {
                        instructions: 1,
                        private_refs: 0,
                    };
                }
                Op::For { reg, from, to, .. } => {
                    if let Some(r) = self.hazard(&[from, to]) {
                        return Fetched::BlockedOnReg(r);
                    }
                    if self.locked[*reg as usize] {
                        return Fetched::BlockedOnReg(*reg);
                    }
                    let start = from.eval(&self.ctx(&env, now));
                    let end = to.eval(&self.ctx(&env, now));
                    let reg = *reg;
                    advance(frames);
                    if start < end {
                        self.regs[reg as usize] = start;
                        let block = env.code.opened(frame.block, pc, 0);
                        self.push(frames, block, 0, FrameCtl::For { reg, end });
                    }
                    // Loop setup (or the skipped test).
                    return Fetched::Work {
                        instructions: 1,
                        private_refs: 0,
                    };
                }
                Op::SelfSched {
                    reg,
                    counter,
                    limit,
                    ..
                } => {
                    if let Some(r) = self.hazard(&[counter, limit]) {
                        return Fetched::BlockedOnReg(r);
                    }
                    if self.locked[*reg as usize] {
                        return Fetched::BlockedOnReg(*reg);
                    }
                    let counter = self.eval_addr(counter, &env, now);
                    let limit = limit.eval(&self.ctx(&env, now));
                    let reg = *reg;
                    advance(frames);
                    let block = env.code.opened(frame.block, pc, 0);
                    let ctl = FrameCtl::SelfSched {
                        reg,
                        counter,
                        limit,
                    };
                    self.push(frames, block, PC_AWAIT_CLAIM, ctl);
                    // Immediately claim the first index.
                    return Fetched::Issue(IssueSpec {
                        kind: MsgKind::fetch_add(),
                        vaddr: counter,
                        value: 1,
                        dst: Some(reg),
                    });
                }
                Op::If {
                    cond,
                    then_ops,
                    else_ops,
                } => {
                    if let Some(r) = cond.first_locked_reg(&self.locked) {
                        return Fetched::BlockedOnReg(r);
                    }
                    let taken = cond.eval(&self.ctx(&env, now));
                    let (side, branch) = if taken { (0, then_ops) } else { (1, else_ops) };
                    advance(frames);
                    if !branch.is_empty() {
                        let block = env.code.opened(frame.block, pc, side);
                        self.push(frames, block, 0, FrameCtl::Seq);
                    }
                    return Fetched::Work {
                        instructions: 1,
                        private_refs: 0,
                    };
                }
                Op::Halt => {
                    self.halted = true;
                    return Fetched::Halted;
                }
                Op::WaitUntil { cycle } => {
                    if let Some(r) = self.hazard(&[cycle]) {
                        return Fetched::BlockedOnReg(r);
                    }
                    // The target is fixed here, at fetch — a relative
                    // `Clock + k` sleeps k cycles instead of chasing a
                    // moving target — and the instruction is consumed:
                    // waking resumes at the next op.
                    let target = cycle.eval(&self.ctx(&env, now)).max(0) as Cycle;
                    advance(frames);
                    if now >= target {
                        return Fetched::Work {
                            instructions: 1,
                            private_refs: 0,
                        };
                    }
                    return Fetched::SleepUntil(target);
                }
            }
        }
    }

    /// Opens a frame over `block` on top of the stack; the code's static
    /// depth guarantees the room.
    fn push(&mut self, frames: &mut [Frame], block: BlockId, pc: u32, ctl: FrameCtl) {
        frames[self.depth as usize] = Frame { block, pc, ctl };
        self.depth += 1;
    }

    fn eval_addr(&self, e: &Expr, env: &Env<'_>, now: Cycle) -> usize {
        let v = e.eval(&self.ctx(env, now));
        usize::try_from(v).unwrap_or_else(|_| panic!("negative address {v} on {}", env.pe))
    }
}

/// Interpreter state for one PE: a context with its own code, frames and
/// parameters (see the module docs).
#[derive(Debug, Clone)]
pub struct PeInterp {
    pe: PeId,
    n_pes: usize,
    params: Vec<Value>,
    code: Code,
    frames: Vec<Frame>,
    thread: Thread,
}

impl PeInterp {
    /// Creates an interpreter for `pe` (of `n_pes`) over `program`.
    #[must_use]
    pub fn new(pe: PeId, n_pes: usize, program: &Program) -> Self {
        let code = Code::compile([program]);
        let mut frames = vec![Frame::default(); code.depth()];
        let thread = Thread::new(&code, 0, &mut frames);
        Self {
            pe,
            n_pes,
            params: program.params.clone(),
            code,
            frames,
            thread,
        }
    }

    /// Heap bytes this interpreter owns. Statement blocks are shared with
    /// the program they were cut from and are not counted.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        vec_bytes(&self.params) + vec_bytes(&self.frames) + self.code.heap_bytes()
    }

    /// The PE this interpreter animates.
    #[must_use]
    pub fn pe(&self) -> PeId {
        self.pe
    }

    /// Whether the program has run to completion.
    #[must_use]
    pub fn is_halted(&self) -> bool {
        self.thread.halted
    }

    /// Current register values (testing / debugging).
    #[must_use]
    pub fn regs(&self) -> &[Value; NUM_REGS] {
        &self.thread.regs
    }

    /// Whether `reg` is awaiting a memory reply.
    #[must_use]
    pub fn is_locked(&self, reg: Reg) -> bool {
        self.thread.is_locked(reg)
    }

    /// Locks `reg` pending a reply — called by the machine when it issues a
    /// request whose [`IssueSpec::dst`] is `reg`.
    ///
    /// # Panics
    ///
    /// Panics if the register is already locked (the interpreter's hazard
    /// checks make that impossible for well-formed call sequences).
    pub fn lock(&mut self, reg: Reg) {
        self.thread.lock(reg);
    }

    /// Delivers a memory reply into `reg`, unlocking it.
    ///
    /// # Panics
    ///
    /// Panics if the register was not locked.
    pub fn write_and_unlock(&mut self, reg: Reg, value: Value) {
        self.thread.write_and_unlock(reg, value);
    }

    /// Advances to the next instruction and reports what it needs. `now`
    /// is the machine cycle at which the fetch happens — it feeds
    /// [`Expr::Clock`] and the [`Op::WaitUntil`] target.
    ///
    /// Must be called only when the previous event has been fully handled
    /// (work charged, issue performed, reply awaited as appropriate);
    /// a [`Fetched::BlockedOnReg`] result leaves the state unchanged so the
    /// call can simply be repeated after the register unlocks.
    pub fn next_op(&mut self, now: Cycle) -> Fetched {
        let env = Env {
            code: &self.code,
            params: &self.params,
            pe: self.pe,
            n_pes: self.n_pes,
        };
        self.thread.next_op(&mut self.frames, env, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{body, CmpOp, Cond};
    use std::collections::HashMap;

    /// Runs a program against an instant-memory harness, returning the
    /// final memory and interpreter.
    fn run(program: &Program, pe: usize, n_pes: usize) -> (HashMap<usize, Value>, PeInterp) {
        let mut mem: HashMap<usize, Value> = HashMap::new();
        let mut interp = PeInterp::new(PeId(pe), n_pes, program);
        for _ in 0..100_000 {
            match interp.next_op(0) {
                Fetched::Halted => return (mem, interp),
                Fetched::Work { .. } => {}
                Fetched::Barrier | Fetched::Fence => {} // instant in this harness
                Fetched::SleepUntil(_) => {}            // time is instant here too
                Fetched::BlockedOnReg(_) => {
                    unreachable!("instant memory never leaves registers locked")
                }
                Fetched::Issue(spec) => {
                    // Serve instantly.
                    let slot = mem.entry(spec.vaddr).or_insert(0);
                    let reply = match spec.kind {
                        MsgKind::Load => *slot,
                        MsgKind::Store => {
                            *slot = spec.value;
                            0
                        }
                        MsgKind::FetchPhi(op) => {
                            let old = *slot;
                            *slot = op.apply(old, spec.value);
                            old
                        }
                    };
                    if let Some(dst) = spec.dst {
                        interp.lock(dst);
                        interp.write_and_unlock(dst, reply);
                    }
                }
            }
        }
        panic!("program did not halt");
    }

    #[test]
    fn straight_line_store_and_load() {
        let p = Program::new(
            body(vec![
                Op::Store {
                    addr: Expr::Const(10),
                    value: Expr::Const(42),
                },
                Op::Load {
                    addr: Expr::Const(10),
                    dst: 0,
                },
                Op::Store {
                    addr: Expr::Const(11),
                    value: Expr::add(Expr::Reg(0), 1),
                },
                Op::Halt,
            ]),
            vec![],
        );
        let (mem, _) = run(&p, 0, 1);
        assert_eq!(mem[&10], 42);
        assert_eq!(mem[&11], 43);
    }

    #[test]
    fn for_loop_runs_exact_trip_count() {
        // for r0 in 0..5 { mem[100 + r0] = r0 * 2 }
        let p = Program::new(
            body(vec![
                Op::For {
                    reg: 0,
                    from: Expr::Const(0),
                    to: Expr::Const(5),
                    body: body(vec![Op::Store {
                        addr: Expr::add(Expr::Const(100), Expr::Reg(0)),
                        value: Expr::mul(Expr::Reg(0), 2),
                    }]),
                },
                Op::Halt,
            ]),
            vec![],
        );
        let (mem, _) = run(&p, 0, 1);
        for i in 0..5 {
            assert_eq!(mem[&(100 + i)], (i as Value) * 2);
        }
        assert!(!mem.contains_key(&105));
    }

    #[test]
    fn empty_for_loop_skips_body() {
        let p = Program::new(
            body(vec![
                Op::For {
                    reg: 0,
                    from: Expr::Const(3),
                    to: Expr::Const(3),
                    body: body(vec![Op::Store {
                        addr: Expr::Const(0),
                        value: Expr::Const(1),
                    }]),
                },
                Op::Halt,
            ]),
            vec![],
        );
        let (mem, _) = run(&p, 0, 1);
        assert!(mem.is_empty());
    }

    #[test]
    fn nested_loops() {
        // for r0 in 0..3 { for r1 in 0..4 { mem[r0*4 + r1] += 1 } }
        let p = Program::new(
            body(vec![
                Op::For {
                    reg: 0,
                    from: Expr::Const(0),
                    to: Expr::Const(3),
                    body: body(vec![Op::For {
                        reg: 1,
                        from: Expr::Const(0),
                        to: Expr::Const(4),
                        body: body(vec![Op::FetchAdd {
                            addr: Expr::add(Expr::mul(Expr::Reg(0), 4), Expr::Reg(1)),
                            delta: Expr::Const(1),
                            dst: None,
                        }]),
                    }]),
                },
                Op::Halt,
            ]),
            vec![],
        );
        let (mem, _) = run(&p, 0, 1);
        assert_eq!(mem.len(), 12);
        assert!(mem.values().all(|&v| v == 1));
    }

    #[test]
    fn self_sched_claims_every_index_once() {
        // Single PE: self-sched over 7 items writes each slot exactly once.
        let p = Program::new(
            body(vec![
                Op::SelfSched {
                    reg: 0,
                    counter: Expr::Const(0),
                    limit: Expr::Const(7),
                    body: body(vec![Op::FetchAdd {
                        addr: Expr::add(Expr::Const(100), Expr::Reg(0)),
                        delta: Expr::Const(1),
                        dst: None,
                    }]),
                },
                Op::Halt,
            ]),
            vec![],
        );
        let (mem, _) = run(&p, 0, 1);
        for i in 0..7usize {
            assert_eq!(mem[&(100 + i)], 1, "slot {i}");
        }
        assert_eq!(mem[&0], 8, "counter over-claimed by exactly one");
    }

    #[test]
    fn if_branches() {
        let p = Program::new(
            body(vec![
                Op::If {
                    cond: Cond::new(Expr::PeIndex, CmpOp::Eq, 0),
                    then_ops: body(vec![Op::Store {
                        addr: Expr::Const(1),
                        value: Expr::Const(111),
                    }]),
                    else_ops: body(vec![Op::Store {
                        addr: Expr::Const(2),
                        value: Expr::Const(222),
                    }]),
                },
                Op::Halt,
            ]),
            vec![],
        );
        let (mem0, _) = run(&p, 0, 4);
        assert_eq!(mem0.get(&1), Some(&111));
        assert!(!mem0.contains_key(&2));
        let (mem3, _) = run(&p, 3, 4);
        assert_eq!(mem3.get(&2), Some(&222));
    }

    #[test]
    fn register_locking_blocks_use() {
        let p = Program::new(
            body(vec![
                Op::Load {
                    addr: Expr::Const(10),
                    dst: 0,
                },
                Op::Compute(5),
                Op::Set {
                    reg: 1,
                    value: Expr::add(Expr::Reg(0), 1),
                },
                Op::Halt,
            ]),
            vec![],
        );
        let mut interp = PeInterp::new(PeId(0), 1, &p);
        // The load issues and locks r0.
        let Fetched::Issue(spec) = interp.next_op(0) else {
            panic!("expected load issue");
        };
        interp.lock(spec.dst.unwrap());
        // Independent work proceeds while the load is in flight (§3.5:
        // "continue execution of the instruction stream immediately").
        assert_eq!(
            interp.next_op(0),
            Fetched::Work {
                instructions: 5,
                private_refs: 0
            }
        );
        // The dependent Set must block.
        assert_eq!(interp.next_op(0), Fetched::BlockedOnReg(0));
        assert_eq!(interp.next_op(0), Fetched::BlockedOnReg(0), "retry safe");
        interp.write_and_unlock(0, 9);
        assert_eq!(
            interp.next_op(0),
            Fetched::Work {
                instructions: 1,
                private_refs: 0
            }
        );
        assert_eq!(interp.regs()[1], 10);
    }

    #[test]
    fn waw_hazard_blocks_second_load() {
        let p = Program::new(
            body(vec![
                Op::Load {
                    addr: Expr::Const(10),
                    dst: 0,
                },
                Op::Load {
                    addr: Expr::Const(11),
                    dst: 0,
                },
                Op::Halt,
            ]),
            vec![],
        );
        let mut interp = PeInterp::new(PeId(0), 1, &p);
        let Fetched::Issue(s) = interp.next_op(0) else {
            panic!()
        };
        interp.lock(s.dst.unwrap());
        assert_eq!(interp.next_op(0), Fetched::BlockedOnReg(0));
    }

    #[test]
    fn barrier_and_fence_surface_to_machine() {
        let p = Program::new(body(vec![Op::Barrier, Op::Fence, Op::Halt]), vec![]);
        let mut interp = PeInterp::new(PeId(0), 2, &p);
        assert_eq!(interp.next_op(0), Fetched::Barrier);
        assert_eq!(interp.next_op(0), Fetched::Fence);
        assert_eq!(interp.next_op(0), Fetched::Halted);
        assert!(interp.is_halted());
    }

    #[test]
    fn missing_halt_still_terminates() {
        let p = Program::new(body(vec![Op::Compute(1)]), vec![]);
        let (_, interp) = run(&p, 0, 1);
        assert!(interp.is_halted());
    }

    #[test]
    fn compute_and_private_ref_costs() {
        let p = Program::new(
            body(vec![Op::Compute(7), Op::PrivateRef(3), Op::Halt]),
            vec![],
        );
        let mut interp = PeInterp::new(PeId(0), 1, &p);
        assert_eq!(
            interp.next_op(0),
            Fetched::Work {
                instructions: 7,
                private_refs: 0
            }
        );
        assert_eq!(
            interp.next_op(0),
            Fetched::Work {
                instructions: 3,
                private_refs: 3
            }
        );
    }

    #[test]
    fn compute_var_scales_with_registers() {
        let p = Program::new(
            body(vec![
                Op::Set {
                    reg: 0,
                    value: Expr::Const(6),
                },
                Op::ComputeVar {
                    amount: Expr::mul(Expr::Reg(0), 3),
                },
                Op::ComputeVar {
                    amount: Expr::Const(-5), // clamped to zero
                },
                Op::Halt,
            ]),
            vec![],
        );
        let mut interp = PeInterp::new(PeId(0), 1, &p);
        assert_eq!(
            interp.next_op(0),
            Fetched::Work {
                instructions: 1,
                private_refs: 0
            }
        );
        assert_eq!(
            interp.next_op(0),
            Fetched::Work {
                instructions: 18,
                private_refs: 0
            }
        );
        assert_eq!(
            interp.next_op(0),
            Fetched::Work {
                instructions: 0,
                private_refs: 0
            }
        );
    }

    #[test]
    fn compute_var_blocks_on_locked_register() {
        let p = Program::new(
            body(vec![
                Op::Load {
                    addr: Expr::Const(1),
                    dst: 0,
                },
                Op::ComputeVar {
                    amount: Expr::Reg(0),
                },
                Op::Halt,
            ]),
            vec![],
        );
        let mut interp = PeInterp::new(PeId(0), 1, &p);
        let Fetched::Issue(spec) = interp.next_op(0) else {
            panic!()
        };
        interp.lock(spec.dst.unwrap());
        assert_eq!(interp.next_op(0), Fetched::BlockedOnReg(0));
        interp.write_and_unlock(0, 4);
        assert_eq!(
            interp.next_op(0),
            Fetched::Work {
                instructions: 4,
                private_refs: 0
            }
        );
    }

    #[test]
    fn mid_run_interpreter_clone_replays_identically() {
        // Fork inside a self-scheduled loop, with a claim in flight
        // (locked register, PC_AWAIT_CLAIM frame) — the hardest state.
        let p = Program::new(
            body(vec![
                Op::Set {
                    reg: 2,
                    value: Expr::Const(5),
                },
                Op::SelfSched {
                    reg: 0,
                    counter: Expr::Const(0),
                    limit: Expr::Const(6),
                    body: body(vec![Op::FetchAdd {
                        addr: Expr::add(Expr::Const(100), Expr::Reg(0)),
                        delta: Expr::Reg(2),
                        dst: None,
                    }]),
                },
                Op::Halt,
            ]),
            vec![],
        );
        let mut interp = PeInterp::new(PeId(3), 8, &p);
        assert!(matches!(interp.next_op(0), Fetched::Work { .. })); // Set
        let Fetched::Issue(spec) = interp.next_op(0) else {
            panic!("expected the first claim");
        };
        interp.lock(spec.dst.unwrap());

        let mut copy = interp.clone();

        // Both copies must replay identically from here.
        let drive = |i: &mut PeInterp| -> Vec<Fetched> {
            i.write_and_unlock(0, 0); // deliver the claim: index 0
            let mut log = Vec::new();
            for _ in 0..32 {
                let f = i.next_op(0);
                let done = f == Fetched::Halted;
                if let Fetched::Issue(s) = &f {
                    if let Some(d) = s.dst {
                        i.lock(d);
                        i.write_and_unlock(d, 6); // claims exhaust the loop
                    }
                }
                log.push(f);
                if done {
                    break;
                }
            }
            log
        };
        assert_eq!(drive(&mut interp), drive(&mut copy));
        assert_eq!(interp.regs(), copy.regs());
    }

    #[test]
    fn wait_until_sleeps_then_resumes_at_next_op() {
        let p = Program::new(
            body(vec![
                Op::WaitUntil {
                    cycle: Expr::Const(100),
                },
                Op::Store {
                    addr: Expr::Const(7),
                    value: Expr::Clock,
                },
                Op::Halt,
            ]),
            vec![],
        );
        let mut interp = PeInterp::new(PeId(0), 1, &p);
        // Fetched before the target: park until cycle 100; the op is
        // consumed, so waking resumes at the store.
        assert_eq!(interp.next_op(10), Fetched::SleepUntil(100));
        let Fetched::Issue(spec) = interp.next_op(100) else {
            panic!("expected the store after waking");
        };
        assert_eq!(spec.vaddr, 7);
        assert_eq!(spec.value, 100, "Clock stamps the fetch cycle");
        assert_eq!(interp.next_op(101), Fetched::Halted);
    }

    #[test]
    fn wait_until_in_the_past_is_one_instruction() {
        let p = Program::new(
            body(vec![
                Op::WaitUntil {
                    cycle: Expr::Const(5),
                },
                Op::Halt,
            ]),
            vec![],
        );
        let mut interp = PeInterp::new(PeId(0), 1, &p);
        assert_eq!(
            interp.next_op(9),
            Fetched::Work {
                instructions: 1,
                private_refs: 0
            }
        );
        assert_eq!(interp.next_op(10), Fetched::Halted);
    }

    #[test]
    fn relative_wait_sleeps_from_fetch_cycle() {
        // WaitUntil(Clock + 50) fetched at cycle 200 wakes at 250 — the
        // target is fixed at fetch, not re-evaluated.
        let p = Program::new(
            body(vec![
                Op::WaitUntil {
                    cycle: Expr::add(Expr::Clock, 50),
                },
                Op::Halt,
            ]),
            vec![],
        );
        let mut interp = PeInterp::new(PeId(0), 1, &p);
        assert_eq!(interp.next_op(200), Fetched::SleepUntil(250));
        assert_eq!(interp.next_op(250), Fetched::Halted);
    }

    #[test]
    #[should_panic(expected = "negative address")]
    fn negative_address_panics() {
        let p = Program::new(
            body(vec![Op::Load {
                addr: Expr::Const(-5),
                dst: 0,
            }]),
            vec![],
        );
        let mut interp = PeInterp::new(PeId(0), 1, &p);
        let _ = interp.next_op(0);
    }
}
