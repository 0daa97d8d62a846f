//! Whole-loop templates: fused micro-ops that run many iterations of a
//! recognised loop per dispatch.
//!
//! Two loop *shapes* are recognised by [`match_templates`] after the
//! micro-op stream is built, each anchored on a loop-head
//! [`UOp::CmpBranchBranch`] `t := j cmp n; if-jump t, body; jump exit`
//! with a register bound:
//!
//! * **reduce** — the body block is exactly a heap load indexed by the
//!   counter, an accumulate into a loop-carried register, and the
//!   `j := j + 1; jump head` back edge. [`reduce_bulk`] computes the
//!   trip count up front (in `i128`, so it cannot overflow) and folds the
//!   in-bounds heap slice in a tight scalar loop.
//! * **guarded update** — the Floyd–Warshall relaxation diamond: two
//!   strided loads, a combine, a compare, and a conditional store back
//!   (see [`GuardedLoop`]). [`guarded_bulk`] pre-validates each
//!   iteration before committing it.
//!
//! Both commit only *whole* iterations that the per-micro-op path would
//! have executed identically — every operand an integer, every heap
//! access in bounds, every operator total on integers, and the remaining
//! budget covering the iteration's exact step cost (6 for reduce; 17
//! when the guarded store is taken, 15 when it is not). Whatever they
//! cannot commit — the loop exit, a budget too small for a whole
//! iteration, a fault, a promotion-ready block inside the loop — is left
//! to the plain loop-head compare and the body's own micro-ops, which
//! reproduce the reference interpreter's positions, step counts, and
//! errors exactly.
//!
//! The payloads are too wide for a [`UOp`] (which would grow every
//! micro-op's stride), so the template micro-ops carry only an index
//! into per-shape side tables on [`super::DecodedProgram`].

use super::{IntSrc, Src, UOp, UopSource};
use crate::isa::{BinOp, Reg};
use crate::machine::Value;

/// The kind of whole-loop template installed at a micro-op
/// (introspection for tests and tooling; see
/// [`super::DecodedProgram::loop_template`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopTemplate {
    /// A heap-slice reduction loop.
    Reduce,
    /// A guarded-update (relaxation) loop.
    GuardedUpdate,
}

/// The loop head a template is installed over:
/// `t := j cmp n; if-jump t, body; jump exit`, with `body`/`exit`
/// absolute micro-op indices. The dispatch loop runs it as a plain
/// `CmpBranchBranch` whenever the template cannot commit an iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LoopHead {
    pub(crate) t: Reg,
    pub(crate) cmp: BinOp,
    pub(crate) j: Reg,
    pub(crate) n: Reg,
    pub(crate) body: u32,
    pub(crate) exit: u32,
}

/// A reduce loop:
///
/// ```text
/// head:  t := j cmp n;          taken -> body, else -> exit   (cmp: <, <=)
/// body:  w := heap[base + j];  acc := acc op w;  j := j + 1;  jump head
/// ```
///
/// with `op` one of `+`, `-`, `*` and the six registers
/// `{t, j, n, w, base, acc}` pairwise distinct, so the loop-carried
/// state is exactly `(j, acc)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ReduceLoop {
    pub(crate) head: LoopHead,
    w: Reg,
    base: Reg,
    acc: Reg,
    op: BinOp,
}

/// A specialised ALU step `dst := lhs op rhs` with a register rhs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Alu {
    dst: Reg,
    lhs: Reg,
    rhs: Reg,
    op: BinOp,
}

/// A guarded-update loop (the Floyd–Warshall inner-loop shape), with
/// `j` the counter and every named non-temporary register
/// loop-invariant:
///
/// ```text
/// head:  t := j cmp n;            taken -> body, else -> exit
/// body:  x1 := la1 op1 ra1;  x2 := x1 op2 j;   a := heap[hb + x2]
///        cand := lc opc a;   x3 := ld opd rd;  x4 := x3 ope j
///        bb := heap[hb2 + x4]
///        c := cand cmp2 bb;       taken -> then, else -> else
/// then:  y1 := lt1 opf rt1;  y2 := y1 opg j;   heap[hb3 + y2] := cand
///        jump endif
/// else:  jump endif
/// endif: j := j + 1; jump head
/// ```
///
/// Every operator is one of the five specialised (total-on-integer)
/// ops; the invariants are never written by the loop, `j` is distinct
/// from every written register, and `cand` survives unclobbered from its
/// definition to its last read. Under those conditions a dry pass over
/// locals observes exactly the values the per-step path would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GuardedLoop {
    pub(crate) head: LoopHead,
    /// `x1 := la1 op1 ra1`, `x2 := x1 op2 j`, then `a := heap[hb + x2]`.
    x1: Alu,
    x2: Alu,
    a: Reg,
    hb: Reg,
    /// `cand := lc opc a`.
    cand: Alu,
    /// `x3 := ld opd rd`, `x4 := x3 ope j`, then `bb := heap[hb2 + x4]`.
    x3: Alu,
    x4: Alu,
    bb: Reg,
    hb2: Reg,
    /// `c := cand cmp2 bb`.
    c: Reg,
    cmp2: BinOp,
    /// `y1 := lt1 opf rt1`, `y2 := y1 opg j`, then `heap[hb3 + y2] := cand`.
    y1: Alu,
    y2: Alu,
    hb3: Reg,
}

/// Steps one reduce iteration costs: head 2 (taken), load 1,
/// accumulate 1, back edge 2.
const REDUCE_STEPS: u64 = 6;

/// Steps one guarded-update iteration costs when the inner branch is
/// taken (head 2, address/load 5, compare/load 2, branch 2, store 4,
/// back edge 2) and when it falls through (store block replaced by one
/// jump).
const GUARDED_TAKEN: u64 = 17;
const GUARDED_NOT_TAKEN: u64 = 15;

/// Templates found over a micro-op stream, ready to install.
pub(crate) struct Templates {
    /// `(head pc, template micro-op, also install in the watch stream)`.
    pub(crate) installs: Vec<(usize, UOp, bool)>,
    pub(crate) reduce: Vec<ReduceLoop>,
    pub(crate) guarded: Vec<GuardedLoop>,
}

/// Recognises every template-shaped loop in `uops`. A template is kept
/// out of the watch stream when any block of its loop is promotion-ready:
/// a promotion-ready head is a `PrpptPause` there, and a pause at any
/// other loop block must be observed at that block's entry, which only
/// per-micro-op dispatch reaches.
pub(crate) fn match_templates(uops: &[UOp], src: &[UopSource], prppt: &[bool]) -> Templates {
    let mut t = Templates {
        installs: Vec::new(),
        reduce: Vec::new(),
        guarded: Vec::new(),
    };
    for pc in 0..uops.len() {
        let Some(head) = loop_head(uops[pc]) else {
            continue;
        };
        if let Some(r) = match_reduce(uops, src, pc, head) {
            let watch = !prppt[pc] && !prppt[head.body as usize];
            let idx = t.reduce.len() as u32;
            t.reduce.push(r);
            t.installs.push((pc, UOp::ReduceLoop { idx }, watch));
        } else if let Some((g, blocks)) = match_guarded(uops, src, pc, head) {
            let watch = !prppt[pc] && !blocks.iter().any(|&b| prppt[b]);
            let idx = t.guarded.len() as u32;
            t.guarded.push(g);
            t.installs.push((pc, UOp::GuardedLoop { idx }, watch));
        }
    }
    t
}

/// Whether `op` is one of the five specialised operators — total on
/// integer operands, so templates can pre-validate iterations.
fn is_specialised(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Lt | BinOp::Le
    )
}

/// Destructures the five specialised ALU micro-ops with a register rhs.
fn alu_rr(u: UOp) -> Option<Alu> {
    let (dst, lhs, rhs, op) = match u {
        UOp::OpAdd { dst, lhs, rhs } => (dst, lhs, rhs, BinOp::Add),
        UOp::OpSub { dst, lhs, rhs } => (dst, lhs, rhs, BinOp::Sub),
        UOp::OpMul { dst, lhs, rhs } => (dst, lhs, rhs, BinOp::Mul),
        UOp::OpLt { dst, lhs, rhs } => (dst, lhs, rhs, BinOp::Lt),
        UOp::OpLe { dst, lhs, rhs } => (dst, lhs, rhs, BinOp::Le),
        _ => return None,
    };
    match rhs {
        Src::Reg(rhs) => Some(Alu { dst, lhs, rhs, op }),
        _ => None,
    }
}

/// A heap load with a register offset: `(dst, base, offset)`.
fn hload_r(u: UOp) -> Option<(Reg, Reg, Reg)> {
    match u {
        UOp::HLoad {
            dst,
            base,
            offset: IntSrc::Reg(o),
        } => Some((dst, base, o)),
        _ => None,
    }
}

/// Whether the `n` micro-ops from `pc` are one whole block: `pc` is its
/// entry and the block ends exactly at `pc + n`.
fn whole_block(src: &[UopSource], pc: usize, n: usize) -> bool {
    let Some(s) = src.get(pc) else {
        return false;
    };
    pc + n <= src.len()
        && s.instr == 0
        && src[pc..pc + n].iter().all(|x| x.block == s.block)
        && src.get(pc + n).is_none_or(|x| x.block != s.block)
}

/// Whether the register ids are pairwise distinct.
fn all_distinct(rs: &[Reg]) -> bool {
    rs.iter()
        .enumerate()
        .all(|(k, r)| rs[k + 1..].iter().all(|s| s != r))
}

/// A loop-head `CmpBranchBranch` with a specialised compare and a
/// register bound.
fn loop_head(u: UOp) -> Option<LoopHead> {
    match u {
        UOp::CmpBranchBranch {
            dst,
            op,
            lhs,
            rhs: Src::Reg(n),
            taken,
            fallthrough,
        } if is_specialised(op) => Some(LoopHead {
            t: dst,
            cmp: op,
            j: lhs,
            n,
            body: taken,
            exit: fallthrough,
        }),
        _ => None,
    }
}

/// Whether `u` is the back edge `j := j + 1; jump head`.
fn is_back_edge(u: UOp, j: Reg, head: usize) -> bool {
    matches!(
        u,
        UOp::OpJump {
            dst,
            op: BinOp::Add,
            lhs,
            rhs: Src::Int(1),
            target,
        } if dst == j && lhs == j && target as usize == head
    )
}

/// Recognises the reduce shape (see [`ReduceLoop`]) at head `pc`.
fn match_reduce(uops: &[UOp], src: &[UopSource], pc: usize, h: LoopHead) -> Option<ReduceLoop> {
    let b = h.body as usize;
    if b == pc || !matches!(h.cmp, BinOp::Lt | BinOp::Le) || !whole_block(src, b, 3) {
        return None;
    }
    let (w, base, off) = hload_r(uops[b])?;
    let acc = alu_rr(uops[b + 1])?;
    let ok = off == h.j
        && acc.dst == acc.lhs
        && acc.rhs == w
        && matches!(acc.op, BinOp::Add | BinOp::Sub | BinOp::Mul)
        && is_back_edge(uops[b + 2], h.j, pc)
        && all_distinct(&[h.t, h.j, h.n, w, base, acc.dst]);
    ok.then_some(ReduceLoop {
        head: h,
        w,
        base,
        acc: acc.dst,
        op: acc.op,
    })
}

/// Recognises the guarded-update shape (see [`GuardedLoop`]) at head
/// `pc`. Also returns the micro-op indices of the four non-head loop
/// block entries (for the watch-stream promotion check).
fn match_guarded(
    uops: &[UOp],
    src: &[UopSource],
    pc: usize,
    head: LoopHead,
) -> Option<(GuardedLoop, [usize; 4])> {
    let j = head.j;
    let b = head.body as usize;
    if b == pc || !whole_block(src, b, 8) {
        return None;
    }
    let x1 = alu_rr(uops[b])?;
    let x2 = alu_rr(uops[b + 1])?;
    let (a, hb, offa) = hload_r(uops[b + 2])?;
    let cand = alu_rr(uops[b + 3])?;
    let x3 = alu_rr(uops[b + 4])?;
    let x4 = alu_rr(uops[b + 5])?;
    let (bb, hb2, offb) = hload_r(uops[b + 6])?;
    let inner = loop_head(uops[b + 7])?;
    let chained = x2.lhs == x1.dst
        && x2.rhs == j
        && offa == x2.dst
        && cand.rhs == a
        && x4.lhs == x3.dst
        && x4.rhs == j
        && offb == x4.dst
        && inner.j == cand.dst
        && inner.n == bb;
    if !chained {
        return None;
    }
    // Then block: y1, y2, the store of `cand`, and a jump to endif.
    let tt = inner.body as usize;
    if !whole_block(src, tt, 4) {
        return None;
    }
    let y1 = alu_rr(uops[tt])?;
    let y2 = alu_rr(uops[tt + 1])?;
    let UOp::HStore {
        base: hb3,
        offset: IntSrc::Reg(offs),
        src: IntSrc::Reg(sv),
    } = uops[tt + 2]
    else {
        return None;
    };
    let UOp::Jump { target: tj } = uops[tt + 3] else {
        return None;
    };
    if y2.lhs != y1.dst || y2.rhs != j || offs != y2.dst || sv != cand.dst {
        return None;
    }
    // Else block: one jump to the same endif.
    let et = inner.exit as usize;
    if !whole_block(src, et, 1) || uops[et] != (UOp::Jump { target: tj }) {
        return None;
    }
    // Endif block: the back edge.
    let ei = tj as usize;
    if !whole_block(src, ei, 1) || !is_back_edge(uops[ei], j, pc) {
        return None;
    }
    // Aliasing discipline (see the type's soundness argument).
    let c = inner.t;
    let writes = [
        head.t, x1.dst, x2.dst, a, cand.dst, x3.dst, x4.dst, bb, c, y1.dst, y2.dst,
    ];
    let invariants = [
        head.n, x1.lhs, x1.rhs, hb, cand.lhs, x3.lhs, x3.rhs, hb2, y1.lhs, y1.rhs, hb3,
    ];
    if writes.contains(&j)
        || invariants.iter().any(|r| writes.contains(r) || *r == j)
        || [x3.dst, x4.dst, bb, c, y1.dst, y2.dst].contains(&cand.dst)
    {
        return None;
    }
    let g = GuardedLoop {
        head,
        x1,
        x2,
        a,
        hb,
        cand,
        x3,
        x4,
        bb,
        hb2,
        c,
        cmp2: inner.cmp,
        y1,
        y2,
        hb3,
    };
    Some((g, [b, tt, et, ei]))
}

/// The five specialised operators on raw `i64`s — identical results to
/// [`crate::machine::step::eval_binop`] on two `Int`s (wrapping
/// arithmetic, zero-is-true comparisons), and total: no operand can
/// make them fault. The templates lean on that totality to
/// pre-validate whole iterations.
#[inline(always)]
fn alu_i64(op: BinOp, a: i64, b: i64) -> i64 {
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Lt => i64::from(a >= b),
        // Only the five specialised operators reach the templates.
        _ => i64::from(a > b),
    }
}

/// Runs as many whole reduce iterations as the budget, the trip count,
/// and the in-bounds heap prefix jointly allow, writing the four
/// registers the iterations touch back once. Commits nothing if any
/// loop register is not an integer.
pub(crate) fn reduce_bulk(r: &ReduceLoop, regs: &mut [Value], hwords: &[i64], remaining: &mut u64) {
    let h = r.head;
    let (Value::Int(jv), Value::Int(nv), Value::Int(bv), Value::Int(accv)) = (
        regs[h.j.index()],
        regs[h.n.index()],
        regs[r.base.index()],
        regs[r.acc.index()],
    ) else {
        return;
    };
    // Trip count and in-bounds prefix in i128: no overflow traps.
    let trip = (nv as i128) - (jv as i128) + i128::from(h.cmp == BinOp::Le);
    let start = (bv as i128) + (jv as i128);
    let avail = if start < 1 {
        0
    } else {
        (hwords.len() as i128) - start
    };
    let budget = (*remaining / REDUCE_STEPS) as i128;
    let iters = trip.min(avail).min(budget).max(0) as usize;
    if iters == 0 {
        return;
    }
    let s = start as usize;
    let slice = &hwords[s..s + iters];
    let acc = match r.op {
        BinOp::Add => slice.iter().fold(accv, |a, &w| a.wrapping_add(w)),
        BinOp::Sub => slice.iter().fold(accv, |a, &w| a.wrapping_sub(w)),
        _ => slice.iter().fold(accv, |a, &w| a.wrapping_mul(w)),
    };
    // Committed-iteration register state: head compare true, last
    // loaded word, accumulator, counter.
    regs[h.t.index()] = Value::Int(0);
    regs[r.w.index()] = Value::Int(slice[iters - 1]);
    regs[r.acc.index()] = Value::Int(acc);
    regs[h.j.index()] = Value::Int(jv.wrapping_add(iters as i64));
    *remaining -= REDUCE_STEPS * iters as u64;
}

/// Runs guarded-update iterations while each one pre-validates: the
/// whole iteration is computed into locals first (every operand an
/// integer, both loads and the conditional store in bounds, the budget
/// covering its exact step cost), then its register writes are
/// committed in program order — so temporaries that alias each other
/// end as the per-step path leaves them — and the store lands at once,
/// so later loads observe it.
pub(crate) fn guarded_bulk(
    g: &GuardedLoop,
    regs: &mut [Value],
    hwords: &mut [i64],
    remaining: &mut u64,
) {
    let h = g.head;
    macro_rules! int_of {
        ($r:expr) => {
            match regs[$r.index()] {
                Value::Int(v) => v,
                _ => return,
            }
        };
    }
    // Loop-invariant registers (never written by the loop) and the
    // counter; any non-integer leaves the typing to the per-step path.
    let nv = int_of!(h.n);
    let mut jv = int_of!(h.j);
    let la1 = int_of!(g.x1.lhs);
    let ra1 = int_of!(g.x1.rhs);
    let hb = int_of!(g.hb);
    let lc = int_of!(g.cand.lhs);
    let ld = int_of!(g.x3.lhs);
    let rd = int_of!(g.x3.rhs);
    let hb2 = int_of!(g.hb2);
    let lt1 = int_of!(g.y1.lhs);
    let rt1 = int_of!(g.y1.rhs);
    let hb3 = int_of!(g.hb3);
    let len = hwords.len() as i64;
    let in_bounds = |addr: i64| addr > 0 && addr < len;
    while *remaining >= GUARDED_NOT_TAKEN && alu_i64(h.cmp, jv, nv) == 0 {
        let x1v = alu_i64(g.x1.op, la1, ra1);
        let x2v = alu_i64(g.x2.op, x1v, jv);
        let addr_a = hb.wrapping_add(x2v);
        if !in_bounds(addr_a) {
            return;
        }
        let av = hwords[addr_a as usize];
        let candv = alu_i64(g.cand.op, lc, av);
        let x3v = alu_i64(g.x3.op, ld, rd);
        let x4v = alu_i64(g.x4.op, x3v, jv);
        let addr_b = hb2.wrapping_add(x4v);
        if !in_bounds(addr_b) {
            return;
        }
        let bbv = hwords[addr_b as usize];
        let cv = alu_i64(g.cmp2, candv, bbv);
        let (cost, y1v, y2v, addr_s) = if cv == 0 {
            let y1v = alu_i64(g.y1.op, lt1, rt1);
            let y2v = alu_i64(g.y2.op, y1v, jv);
            let addr_s = hb3.wrapping_add(y2v);
            if !in_bounds(addr_s) {
                return;
            }
            (GUARDED_TAKEN, y1v, y2v, addr_s)
        } else {
            (GUARDED_NOT_TAKEN, 0, 0, 0)
        };
        if *remaining < cost {
            return;
        }
        regs[h.t.index()] = Value::Int(0);
        regs[g.x1.dst.index()] = Value::Int(x1v);
        regs[g.x2.dst.index()] = Value::Int(x2v);
        regs[g.a.index()] = Value::Int(av);
        regs[g.cand.dst.index()] = Value::Int(candv);
        regs[g.x3.dst.index()] = Value::Int(x3v);
        regs[g.x4.dst.index()] = Value::Int(x4v);
        regs[g.bb.index()] = Value::Int(bbv);
        regs[g.c.index()] = Value::Int(cv);
        if cv == 0 {
            regs[g.y1.dst.index()] = Value::Int(y1v);
            regs[g.y2.dst.index()] = Value::Int(y2v);
            hwords[addr_s as usize] = candv;
        }
        jv = jv.wrapping_add(1);
        regs[h.j.index()] = Value::Int(jv);
        *remaining -= cost;
    }
}

#[cfg(test)]
mod tests {
    //! Reference-vs-fast differential checks of the loop templates:
    //! installation, quantum splits, promotion watch, and fault
    //! positions. The `template_quantum` integration suite extends these
    //! to property-based quantum chunkings.

    use super::LoopTemplate;
    use crate::decoded::DecodedProgram;
    use crate::isa::{Annotation, BinOp, Instr, Operand};
    use crate::machine::heap::Heap;
    use crate::machine::step::{RunPause, Stores, TaskState};
    use crate::machine::{run_task_until, Value};
    use crate::program::{Program, ProgramBuilder};
    use crate::programs::{fib, prod};

    /// Drives the reference interpreter and the fast tier over the same
    /// program in lockstep `run_until` calls, asserting identical
    /// `(steps, pause)` results (faults included), identical task
    /// positions and cycle counters after every call, and identical
    /// final register files and heaps. A `PromotionReady` pause is
    /// stepped past with a one-step watch-off nudge so watch-mode runs
    /// make progress.
    fn two_way(
        p: &Program,
        heap: &[i64],
        init: impl Fn(&mut TaskState, i64),
        quanta: &[u64],
        watch: bool,
    ) {
        let d = DecodedProgram::decode(p);
        for &q in quanta {
            let mk = || {
                let mut stores = Stores::new();
                let base = if heap.is_empty() {
                    0
                } else {
                    stores.heap.alloc_init(heap)
                };
                let mut task = TaskState::new(p, p.entry());
                init(&mut task, base);
                (task, stores)
            };
            let (mut t0, mut s0) = mk();
            let (mut t1, mut s1) = mk();
            loop {
                let r0 = run_task_until(p, &mut t0, &mut s0, q, watch);
                let r1 = d.run_until(&mut t1, &mut s1, q, watch);
                assert_eq!(format!("{r0:?}"), format!("{r1:?}"), "quantum {q}");
                assert_eq!(
                    (t0.block, t0.instr, t0.cycles),
                    (t1.block, t1.instr, t1.cycles),
                    "position, quantum {q}"
                );
                match r0 {
                    Err(_) | Ok((_, RunPause::Boundary)) => break,
                    Ok((_, RunPause::PromotionReady)) => {
                        let n0 = run_task_until(p, &mut t0, &mut s0, 1, false);
                        let n1 = d.run_until(&mut t1, &mut s1, 1, false);
                        assert_eq!(format!("{n0:?}"), format!("{n1:?}"));
                        if matches!(n0, Err(_) | Ok((_, RunPause::Boundary))) {
                            break;
                        }
                    }
                    Ok((_, RunPause::Quantum)) => {}
                }
            }
            assert_eq!(t0.regs, t1.regs, "registers, quantum {q}");
            assert_eq!(s0.heap.checksum(), s1.heap.checksum(), "heap, quantum {q}");
        }
    }

    /// The templates installed over `p`, in micro-op order.
    fn templates(p: &Program) -> Vec<LoopTemplate> {
        let d = DecodedProgram::decode(p);
        (0..d.uop_count())
            .filter_map(|pc| d.loop_template(pc))
            .collect()
    }

    /// Whether the watch stream keeps the template at the head (micro-op 0).
    fn watch_keeps_template(p: &Program) -> bool {
        let d = DecodedProgram::decode(p);
        d.watch_uops[0] == d.uops[0]
    }

    /// The canonical reduce loop: `head` compares, `body` loads,
    /// accumulates into the register named `acc` and steps, `exit`
    /// halts. `n` iterations over `heap[a..]`.
    fn reduce_program_into(prppt_on: Option<&str>, acc: &str) -> Program {
        let mut b = ProgramBuilder::new();
        let (i, n, a, w, acc, t) = (
            b.reg("i"),
            b.reg("n"),
            b.reg("a"),
            b.reg("w"),
            b.reg(acc),
            b.reg("t"),
        );
        let (head, body, exit, handler) = (
            b.label("head"),
            b.label("body"),
            b.label("exit"),
            b.label("handler"),
        );
        let op = |dst, op, lhs, rhs| Instr::Op { dst, op, lhs, rhs };
        let head_instrs = vec![
            op(t, BinOp::Lt, i, Operand::Reg(n)),
            Instr::IfJump {
                cond: t,
                target: Operand::Label(body),
            },
            Instr::Jump {
                target: Operand::Label(exit),
            },
        ];
        let body_instrs = vec![
            Instr::HLoad {
                dst: w,
                base: a,
                offset: Operand::Reg(i),
            },
            op(acc, BinOp::Add, acc, Operand::Reg(w)),
            op(i, BinOp::Add, i, Operand::Int(1)),
            Instr::Jump {
                target: Operand::Label(head),
            },
        ];
        for (name, instrs) in [("head", head_instrs), ("body", body_instrs)] {
            if prppt_on == Some(name) {
                b.annotated_block(name, Annotation::PromotionReady { handler }, instrs);
            } else {
                b.block(name, instrs);
            }
        }
        b.block("exit", vec![Instr::Halt]);
        b.block(
            "handler",
            vec![Instr::Jump {
                target: Operand::Label(head),
            }],
        );
        b.entry(head);
        b.build().unwrap()
    }

    fn reduce_program(prppt_on: Option<&str>) -> Program {
        reduce_program_into(prppt_on, "acc")
    }

    fn init_reduce(p: &Program, n: i64) -> impl Fn(&mut TaskState, i64) + '_ {
        move |task, base| {
            for (name, v) in [("i", 0), ("n", n), ("a", base), ("acc", 0)] {
                task.regs.write(p.reg(name).unwrap(), Value::Int(v));
            }
        }
    }

    const REDUCE_QUANTA: &[u64] = &[1, 2, 3, 4, 5, 6, 7, 11, 13, u64::MAX];

    /// The reduce shape installs a whole-loop template on its head and
    /// stays bit-identical to the reference under every quantum.
    #[test]
    fn reduce_loop_template_installs_and_matches() {
        let p = reduce_program(None);
        assert_eq!(templates(&p), [LoopTemplate::Reduce]);
        assert!(matches!(
            DecodedProgram::decode(&p).uops[0],
            super::UOp::ReduceLoop { .. }
        ));
        let data: Vec<i64> = (1..=10).collect();
        two_way(&p, &data, init_reduce(&p, 10), REDUCE_QUANTA, false);
        // And the sum is right (spot check, not just agreement).
        let mut stores = Stores::new();
        let base = stores.heap.alloc_init(&data);
        let mut task = TaskState::new(&p, p.entry());
        init_reduce(&p, 10)(&mut task, base);
        let (steps, pause) = DecodedProgram::decode(&p)
            .run_until(&mut task, &mut stores, u64::MAX, false)
            .unwrap();
        assert_eq!(pause, RunPause::Boundary);
        // 6 steps per iteration (head 2 taken + body 4), plus the
        // 3-step exit check.
        assert_eq!(steps, 63);
        assert_eq!(
            task.regs.read(p.reg("acc").unwrap()).unwrap(),
            Value::Int(55)
        );
    }

    /// Promotion watch over a reduce loop: with the `prppt` annotation on
    /// the head, the watch stream pauses at the head entry; with it on
    /// the body, the watch stream runs the plain loop head so the pause
    /// is observed at the body entry. Both match the reference exactly.
    #[test]
    fn reduce_loop_promotion_watch_matches() {
        for site in ["head", "body"] {
            let p = reduce_program(Some(site));
            assert_eq!(
                templates(&p),
                [LoopTemplate::Reduce],
                "template still installs with prppt on {site}"
            );
            assert!(!watch_keeps_template(&p), "prppt on {site}");
            let data: Vec<i64> = (1..=6).collect();
            two_way(&p, &data, init_reduce(&p, 6), REDUCE_QUANTA, true);
        }
        assert!(watch_keeps_template(&reduce_program(None)));
    }

    /// A heap fault raised on a later iteration (`n` runs past the end
    /// of the array) leaves the task at the body's load, with the same
    /// error and step count as the reference.
    #[test]
    fn reduce_loop_fault_positions_match() {
        let p = reduce_program(None);
        let data: Vec<i64> = (1..=5).collect();
        two_way(&p, &data, init_reduce(&p, 10), REDUCE_QUANTA, false);
    }

    /// The guarded-update loop (Floyd–Warshall relaxation shape): `head`
    /// counts `j` to `n`; `body` loads `heap[hb + ra*stride + j]`,
    /// combines it with `dd`, loads `heap[hb + rb*stride + j]`, and
    /// compares; `then_b` conditionally stores the combined value back;
    /// `endif` steps `j`.
    fn guarded_program(prppt_on: Option<&str>) -> Program {
        let mut b = ProgramBuilder::new();
        let (j, n, ra, rb, stride, hb, dd) = (
            b.reg("j"),
            b.reg("n"),
            b.reg("ra"),
            b.reg("rb"),
            b.reg("stride"),
            b.reg("hb"),
            b.reg("dd"),
        );
        let (t, x1, x2, a, cand, x3, x4, bb, c, y1, y2) = (
            b.reg("t"),
            b.reg("x1"),
            b.reg("x2"),
            b.reg("a"),
            b.reg("cand"),
            b.reg("x3"),
            b.reg("x4"),
            b.reg("bb"),
            b.reg("c"),
            b.reg("y1"),
            b.reg("y2"),
        );
        let (head, body, then_b, else_b, endif, exit, handler) = (
            b.label("head"),
            b.label("body"),
            b.label("then_b"),
            b.label("else_b"),
            b.label("endif"),
            b.label("exit"),
            b.label("handler"),
        );
        let op = |dst, op, lhs, rhs| Instr::Op { dst, op, lhs, rhs };
        let jump = |l| Instr::Jump {
            target: Operand::Label(l),
        };
        let head_instrs = vec![
            op(t, BinOp::Lt, j, Operand::Reg(n)),
            Instr::IfJump {
                cond: t,
                target: Operand::Label(body),
            },
            jump(exit),
        ];
        let body_instrs = vec![
            op(x1, BinOp::Mul, ra, Operand::Reg(stride)),
            op(x2, BinOp::Add, x1, Operand::Reg(j)),
            Instr::HLoad {
                dst: a,
                base: hb,
                offset: Operand::Reg(x2),
            },
            op(cand, BinOp::Add, dd, Operand::Reg(a)),
            op(x3, BinOp::Mul, rb, Operand::Reg(stride)),
            op(x4, BinOp::Add, x3, Operand::Reg(j)),
            Instr::HLoad {
                dst: bb,
                base: hb,
                offset: Operand::Reg(x4),
            },
            op(c, BinOp::Lt, cand, Operand::Reg(bb)),
            Instr::IfJump {
                cond: c,
                target: Operand::Label(then_b),
            },
            jump(else_b),
        ];
        let then_instrs = vec![
            op(y1, BinOp::Mul, rb, Operand::Reg(stride)),
            op(y2, BinOp::Add, y1, Operand::Reg(j)),
            Instr::HStore {
                base: hb,
                offset: Operand::Reg(y2),
                src: Operand::Reg(cand),
            },
            jump(endif),
        ];
        for (name, instrs) in [
            ("head", head_instrs),
            ("body", body_instrs),
            ("then_b", then_instrs),
        ] {
            if prppt_on == Some(name) {
                b.annotated_block(name, Annotation::PromotionReady { handler }, instrs);
            } else {
                b.block(name, instrs);
            }
        }
        b.block("else_b", vec![jump(endif)]);
        b.block(
            "endif",
            vec![op(j, BinOp::Add, j, Operand::Int(1)), jump(head)],
        );
        b.block("exit", vec![Instr::Halt]);
        b.block("handler", vec![jump(head)]);
        b.entry(head);
        b.build().unwrap()
    }

    const GUARDED_QUANTA: &[u64] = &[1, 2, 3, 5, 7, 11, 13, 15, 16, 17, 31, u64::MAX];

    fn init_guarded(p: &Program, nv: i64) -> impl Fn(&mut TaskState, i64) + '_ {
        move |task, base| {
            for (name, v) in [
                ("j", 0),
                ("n", nv),
                ("ra", 0),
                ("rb", 1),
                ("stride", 4),
                ("dd", 1),
                ("hb", base),
            ] {
                task.regs.write(p.reg(name).unwrap(), Value::Int(v));
            }
        }
    }

    /// The guarded-update shape installs a whole-loop template on its
    /// head, stays bit-identical under every quantum, and relaxes the
    /// right cells.
    #[test]
    fn guarded_loop_template_installs_and_matches() {
        let p = guarded_program(None);
        assert_eq!(templates(&p), [LoopTemplate::GuardedUpdate]);
        assert!(watch_keeps_template(&p));
        // Row a = [9,7,5,3], row b = [1,2,4,6]; cand = 1 + a[j] beats
        // b[j] only at j = 3 (4 < 6), so exactly one store lands.
        let data: Vec<i64> = vec![9, 7, 5, 3, 1, 2, 4, 6];
        two_way(&p, &data, init_guarded(&p, 4), GUARDED_QUANTA, false);
        let mut stores = Stores::new();
        let base = stores.heap.alloc_init(&data);
        let mut task = TaskState::new(&p, p.entry());
        init_guarded(&p, 4)(&mut task, base);
        let (steps, pause) = DecodedProgram::decode(&p)
            .run_until(&mut task, &mut stores, u64::MAX, false)
            .unwrap();
        assert_eq!(pause, RunPause::Boundary);
        // Three fall-through iterations (15 steps), one taken (17), and
        // the 3-step exit check.
        assert_eq!(steps, 3 * 15 + 17 + 3);
        assert_eq!(Heap::load_in(stores.heap.words_mut(), base, 7).unwrap(), 4);
    }

    /// A heap fault mid-template (the loop walking row b past the
    /// 8-word allocation) reports the same error at the same
    /// partially-advanced position as the reference, under every
    /// quantum.
    #[test]
    fn guarded_loop_fault_positions_match() {
        let p = guarded_program(None);
        let data: Vec<i64> = vec![9, 7, 5, 3, 1, 2, 4, 6];
        two_way(&p, &data, init_guarded(&p, 9), GUARDED_QUANTA, false);
    }

    /// Promotion watch over a guarded loop: a `prppt` annotation on the
    /// head pauses there; on the body or then block, the watch stream
    /// runs the plain loop head so the pause is observed at the right
    /// block entry. All match the reference exactly.
    #[test]
    fn guarded_loop_promotion_watch_matches() {
        for site in ["head", "body", "then_b"] {
            let p = guarded_program(Some(site));
            assert_eq!(
                templates(&p),
                [LoopTemplate::GuardedUpdate],
                "template still installs with prppt on {site}"
            );
            assert!(!watch_keeps_template(&p), "prppt on {site}");
            let data: Vec<i64> = vec![9, 7, 5, 3, 1, 2, 4, 6];
            two_way(&p, &data, init_guarded(&p, 4), GUARDED_QUANTA, true);
        }
    }

    /// The library's `prod` and `fib` programs stay bit-identical to the
    /// reference with the promotion watch off and on, under small and
    /// unbounded quanta.
    #[test]
    fn library_programs_match_reference() {
        for p in [prod(), fib()] {
            for watch in [false, true] {
                two_way(&p, &[], |_, _| {}, &[1, 2, 3, 5, 7, u64::MAX], watch);
            }
        }
    }

    /// A reduce loop that breaks the aliasing discipline (accumulating
    /// into the counter) is left to per-micro-op dispatch, and still
    /// matches the reference.
    #[test]
    fn aliased_reduce_installs_no_template() {
        let p = reduce_program_into(None, "i");
        assert!(templates(&p).is_empty());
        let data: Vec<i64> = vec![1, 0, 0, 2, 0, 0, 0, 5];
        two_way(
            &p,
            &data,
            |task, base| {
                for (name, v) in [("i", 0), ("n", 8), ("a", base)] {
                    task.regs.write(p.reg(name).unwrap(), Value::Int(v));
                }
            },
            REDUCE_QUANTA,
            false,
        );
    }
}
